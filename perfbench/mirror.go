package main

import (
	"fmt"

	"gocured"
	"gocured/internal/cil"
	"gocured/internal/cparse"
	"gocured/internal/diag"
	"gocured/internal/infer"
	"gocured/internal/instrument"
	"gocured/internal/interp"
	"gocured/internal/sema"
	"gocured/internal/vm"
)

// The traced driver. It makes the calls core.BuildStored, core.Unit.RunCured
// and the pipeline's cache path make, in the same order, each inside a span
// named after the layer it enters. It must follow the program: when
// core.BuildStored changes its call sequence this file changes with it, and
// trace.coverage rising above driftLimit is the sign that it has not.

// unit is one program built by the traced driver.
type unit struct {
	raw   *cil.Program
	cured *instrument.Cured
	incr  infer.IncrStats
	code  *vm.Module // cured bytecode, compiled on first run as core.Unit does
}

func inferOptions(o gocured.Options) infer.Options {
	return infer.Options{
		NoRTTI:              o.NoRTTI,
		NoPhysicalSubtyping: o.NoPhysicalSubtyping,
		TrustBadCasts:       o.TrustBadCasts,
		SplitAll:            o.ForceSplitAll,
		NoOptimize:          o.NoOptimize,
	}
}

// frontend is core's parse → check → lower pass.
func frontend(t *tracer, filename, src string, diags *diag.List) (*cil.Program, error) {
	var file *cparse.File
	t.do("cparse", func() { file = cparse.Parse(filename, src, diags) })
	if diags.HasErrors() {
		return nil, diags.Err()
	}
	var su *sema.Unit
	t.do("sema", func() { su = sema.Check(file, diags) })
	if diags.HasErrors() {
		return nil, diags.Err()
	}
	var prog *cil.Program
	t.do("cil", func() { prog = cil.Lower(su, diags) })
	if diags.HasErrors() {
		return nil, diags.Err()
	}
	return prog, nil
}

// build mirrors core.BuildStored, including its second frontend pass (the
// cured program is lowered again because curing rewrites it in place).
func build(t *tracer, filename, src string, opts gocured.Options, sums infer.SummarySource) (*unit, error) {
	diags := &diag.List{}
	raw, err := frontend(t, filename, src, diags)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	prog, err := frontend(t, filename, src, &diag.List{})
	if err != nil {
		return nil, fmt.Errorf("frontend (cure pass): %w", err)
	}
	u := &unit{raw: raw}
	var res *infer.Result
	t.do("instrument", func() { instrument.RedirectWrappers(prog, diags) })
	t.do("infer", func() { res, u.incr = infer.InferIncremental(prog, inferOptions(opts), diags, sums) })
	t.do("instrument", func() { u.cured = instrument.Cure(prog, res, diags) })
	if !opts.NoOptimize {
		t.do("instrument.optimize", func() { instrument.Optimize(u.cured) })
	}
	t.do("instrument", func() { instrument.AssignSites(u.cured) })
	if diags.HasErrors() {
		return nil, diags.Err()
	}
	return u, nil
}

// checksInserted is the static check count curing added.
func (u *unit) checksInserted() int {
	n := 0
	for _, c := range u.cured.ChecksInserted {
		n += c
	}
	return n
}

// checksRemoved is the optimizer's static deletions.
func (u *unit) checksRemoved() int {
	if o := u.cured.Opt; o != nil {
		return o.Eliminated + o.Coalesced
	}
	return 0
}

// runCured mirrors core.Unit.RunCured on the VM backend.
func (u *unit) runCured(t *tracer, cfg interp.Config) (*interp.Outcome, error) {
	if u.code == nil {
		t.do("vm", func() { u.code = vm.Compile(u.cured.Prog, u.cured.Lay) })
	}
	cfg.Policy = interp.PolicyCured
	cfg.Cured = u.cured
	cfg.Backend = interp.BackendVM
	cfg.Code = u.code
	var m *interp.Machine
	t.do("interp.setup", func() { m = interp.New(u.cured.Prog, cfg) })
	var out *interp.Outcome
	var err error
	t.do("interp.exec", func() { out, err = m.Run() })
	return out, err
}

// runRaw executes the uninstrumented program on the tree walker, untraced:
// the ledger uses it only for the raw side of sim_slowdown.
func (u *unit) runRaw(cfg interp.Config) (*interp.Outcome, error) {
	cfg.Policy = interp.PolicyNone
	cfg.Backend = interp.BackendTree
	return interp.New(u.raw, cfg).Run()
}

// execCounters accumulates what the interp.exec counters report.
type execCounters struct {
	ops, steps, checks uint64
}

func (e *execCounters) add(out *interp.Outcome) {
	e.ops++
	e.steps += out.Counters.Steps
	e.checks += out.Counters.Checks
}

// counters renders the interp.exec counters; execMS is the layer's self
// time over the whole traced phase.
func (e *execCounters) counters(ops int, execMS float64) map[string]float64 {
	n := float64(max(ops, 1))
	return map[string]float64{
		"interp.exec.steps_per_op":      float64(e.steps) / n,
		"interp.exec.dyn_checks_per_op": float64(e.checks) / n,
		"interp.exec.msteps_per_s":      ratio(float64(e.steps)/1e6, execMS/1000),
	}
}
