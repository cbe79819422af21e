package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"gocured"
	"gocured/internal/corpus"
	"gocured/internal/interp"
)

// outcome is the observable result of one execution, as the oracle
// compares it.
type outcome struct {
	Exit    int
	Stdout  string
	Trapped bool
}

func (o outcome) String() string {
	return fmt.Sprintf("exit %d, trapped %v, %d bytes of stdout", o.Exit, o.Trapped, len(o.Stdout))
}

func resultOutcome(r *gocured.Result) outcome {
	return outcome{Exit: r.ExitCode, Stdout: r.Stdout, Trapped: r.Trapped}
}

func interpOutcome(o *interp.Outcome) outcome {
	return outcome{Exit: o.ExitCode, Stdout: o.Stdout, Trapped: o.Trap != nil}
}

// reference is the oracle for one corpus program: its raw run on the tree
// walker, which shares no code with inference, curing, the optimizer or the
// VM.
type reference struct {
	out       outcome
	simCycles uint64
}

// parallel runs fn(0..n-1) on at most workers goroutines and returns the
// first error.
func parallel(workers, n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	next := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// corpusSetup holds the compiled corpus and its references.
type corpusSetup struct {
	progs []*gocured.Program
	refs  []reference
}

// setupCorpus compiles every corpus program and computes its reference.
// withVM also builds each program's cured VM module (a one-step run), as
// the run workload does before it times executions.
func setupCorpus(cfg *config, cps []corpusProg, withVM bool) (*corpusSetup, error) {
	s := &corpusSetup{progs: make([]*gocured.Program, len(cps)), refs: make([]reference, len(cps))}
	err := parallel(cfg.workers, len(cps), func(i int) error {
		p, err := gocured.Compile(cps[i].Name, cps[i].Source, cps[i].Opts)
		if err != nil {
			return fmt.Errorf("compile %s: %w", cps[i].Name, err)
		}
		raw, err := p.Run(gocured.ModeRaw, gocured.RunOptions{Backend: "tree", Seed: runSeed(cfg.seed)})
		if err != nil {
			return fmt.Errorf("reference run %s: %w", cps[i].Name, err)
		}
		if withVM {
			if _, err := p.Run(gocured.ModeCured, gocured.RunOptions{StepLimit: 1}); err != nil {
				return fmt.Errorf("vm module %s: %w", cps[i].Name, err)
			}
		}
		s.progs[i], s.refs[i] = p, reference{out: resultOutcome(raw), simCycles: raw.SimCycles}
		return nil
	})
	return s, err
}

// timedSetup runs set-up reps times and returns the last result with the
// median set-up time. Repeating it makes setup_s a median, like every other
// timing. discard, when non-nil, releases every result but the last, after
// its set-up was timed.
func timedSetup[T any](reps int, fn func() (T, error), discard func(T)) (T, float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == reps-1 {
			return v, median(secs), nil
		}
		if discard != nil {
			discard(v)
		}
	}
}

// oracle counts checked outputs and mismatches, keeping the first few
// mismatch messages for the report.
type oracle struct {
	mu         sync.Mutex
	checked    int
	mismatches int
	messages   []string
}

func (o *oracle) check(ok bool, format string, args ...any) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.checked++
	if !ok {
		o.mismatches++
		if len(o.messages) < 20 {
			o.messages = append(o.messages, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// exploitOracle runs the ftpd exploit session against the cured ftpd of
// progs: the known replydirname overflow must trap.
func exploitOracle(cps []corpusProg, progs []*gocured.Program) *oracle {
	o := &oracle{}
	if i := ftpdIndex(cps); o.check(i >= 0 && progs[i] != nil, "no compiled ftpd") {
		r, err := progs[i].Run(gocured.ModeCured, gocured.RunOptions{Stdin: []byte(corpus.FtpdExploitInput)})
		o.check(err == nil && r.Trapped, "ftpd exploit session did not trap (err %v)", err)
	}
	return o
}

func ftpdIndex(cps []corpusProg) int {
	for i, p := range cps {
		if p.Name == "ftpd.c" {
			return i
		}
	}
	return -1
}

// opLog collects the ops of one closed loop.
type opLog struct {
	mu     sync.Mutex
	lat    []float64 // ms; a failed op counts as failedLatency
	ok     []bool
	pass   []int
	done   []time.Duration // completion time since the loop started
	failed int
	wall   time.Duration
}

func (l *opLog) add(ms float64, ok bool, pass int, done time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !ok {
		l.failed++
		ms = failedLatency
	}
	l.lat = append(l.lat, ms)
	l.ok = append(l.ok, ok)
	l.pass = append(l.pass, pass)
	l.done = append(l.done, done)
}

// closedLoop runs workers goroutines, each taking the next item from s and
// calling op on it until the stream stops. op returns the op's latency in
// milliseconds and whether it succeeded.
func closedLoop(workers int, s *stream, d time.Duration, op func(i int) (float64, bool)) *opLog {
	runtime.GC() // every window starts from a collected heap
	l := &opLog{}
	s.runFor(d)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, pass, ok := s.next()
				if !ok {
					return
				}
				ms, good := op(i)
				l.add(ms, good, pass, time.Since(t0))
			}
		}()
	}
	wg.Wait()
	l.wall = time.Since(t0)
	return l
}

// rateGroups is how many groups of consecutive whole passes ops_per_s is
// measured over. It reports their median rate, so outside load that slows
// one part of the window moves it less than a window-wide mean.
const rateGroups = 5

// rate is the median completed-op rate over rateGroups groups of passes.
// A group lasts from the last completion of the group before it to its own
// last completion.
func (l *opLog) rate() float64 {
	if len(l.pass) == 0 {
		return 0
	}
	lo, hi := l.pass[0], l.pass[0]
	for _, p := range l.pass {
		lo, hi = min(lo, p), max(hi, p)
	}
	passes := hi - lo + 1
	k := min(rateGroups, passes)
	end := make([]time.Duration, k)
	count := make([]int, k)
	for i, p := range l.pass {
		g := (p - lo) * k / passes
		end[g] = max(end[g], l.done[i])
		if l.ok[i] {
			count[g]++
		}
	}
	var rates []float64
	prev := time.Duration(0)
	for g := range end {
		rates = append(rates, float64(count[g])/(end[g]-prev).Seconds())
		prev = end[g]
	}
	return median(rates)
}

// loopMetrics are the end-to-end metrics every closed loop reports.
func loopMetrics(l *opLog, allocBytes uint64) map[string]float64 {
	return map[string]float64{
		"ops_per_s":       l.rate(),
		"p50_ms":          median(l.lat),
		"p99_ms":          quantile(l.lat, 0.99),
		"alloc_mb_per_op": float64(allocBytes) / 1e6 / float64(len(l.lat)),
	}
}

// ---- compile workload ----

func runCompile(cfg *config, rep *report) error {
	cps := corpusProgs()
	setup, setupS, err := timedSetup(cfg.setupReps, func() (*corpusSetup, error) {
		return setupCorpus(cfg, cps, false)
	}, nil)
	if err != nil {
		return err
	}
	rep.values["setup_s"] = setupS
	o := &oracle{}
	if cfg.trace {
		return traceCompile(cfg, rep, cps, setup, o)
	}

	built := make([]*gocured.Program, len(cps))
	var mu sync.Mutex
	s := newStream(cfg.seed, indices(len(cps)))
	a0 := heapAllocBytes()
	log := closedLoop(cfg.workers, s, cfg.seconds, func(i int) (float64, bool) {
		t0 := time.Now()
		p, err := gocured.Compile(cps[i].Name, cps[i].Source, cps[i].Opts)
		ms := msSince(t0)
		if err == nil {
			mu.Lock()
			built[i] = p
			mu.Unlock()
		}
		return ms, err == nil
	})
	rep.addLoop(log, heapAllocBytes()-a0)
	// Outside the timed window: every program compiled in it must run as
	// its reference does.
	checkBuilt(cfg, o, cps, built, setup.refs)
	rep.addOracle(o, true)
	rep.addOracle(exploitOracle(cps, built), true)
	return nil
}

// checkBuilt runs each compiled program cured and compares it to its
// reference.
func checkBuilt(cfg *config, o *oracle, cps []corpusProg, built []*gocured.Program, refs []reference) {
	_ = parallel(cfg.workers, len(cps), func(i int) error {
		if !o.check(built[i] != nil, "%s: never compiled in the timed window", cps[i].Name) {
			return nil
		}
		r, err := built[i].Run(gocured.ModeCured, gocured.RunOptions{Seed: runSeed(cfg.seed)})
		o.check(err == nil && resultOutcome(r) == refs[i].out,
			"%s: cured run differs from reference (%v): %v", cps[i].Name, refs[i].out, describe(r, err))
		return nil
	})
}

func describe(r *gocured.Result, err error) string {
	if err != nil {
		return err.Error()
	}
	return resultOutcome(r).String()
}

func traceCompile(cfg *config, rep *report, cps []corpusProg, setup *corpusSetup, o *oracle) error {
	// Each op runs twice, back to back: the public call untraced, then the
	// same compile through the traced driver. Interleaved, both see the
	// same machine speed, so coverage and overhead do not move with drift.
	built := make([]*gocured.Program, len(cps))
	logA := &opLog{}
	t := newTracer()
	var checks, removed float64
	logB := closedLoop(1, newStream(cfg.seed, indices(len(cps))), cfg.seconds, func(i int) (float64, bool) {
		t0 := time.Now()
		p, err := gocured.Compile(cps[i].Name, cps[i].Source, cps[i].Opts)
		logA.add(msSince(t0), err == nil, 0, 0)
		built[i] = p
		h := t.begin("op")
		u, err := build(t, cps[i].Name, cps[i].Source, cps[i].Opts, nil)
		t.end(h)
		if err == nil {
			checks += float64(u.checksInserted())
			removed += float64(u.checksRemoved())
		}
		return t.dur(h), err == nil
	})
	checkBuilt(cfg, o, cps, built, setup.refs)
	rep.addPhases(logA, logB)
	rep.addOracle(o, true)
	rep.addOracle(exploitOracle(cps, built), true)
	n := float64(len(logB.lat))
	counters := map[string]float64{
		"instrument.checks_inserted":         checks / n,
		"instrument.optimize.checks_removed": removed / n,
	}
	// Shares divide by the untraced op time of the public call: a layer
	// call the program stops making then shows as coverage above 1.
	tot := t.totals()
	return rep.finishTrace(t, tot, ledgerInput{Ops: len(logB.lat), OpMS: mean(logA.lat), E2EOpMS: mean(logA.lat),
		TracedOpMS: mean(logB.lat), Counters: counters})
}

// ---- run workload ----

func runRun(cfg *config, rep *report) error {
	cps := corpusProgs()
	setup, setupS, err := timedSetup(cfg.setupReps, func() (*corpusSetup, error) {
		return setupCorpus(cfg, cps, true)
	}, nil)
	if err != nil {
		return err
	}
	rep.values["setup_s"] = setupS
	o := &oracle{}
	if cfg.trace {
		return traceRun(cfg, rep, cps, setup, o)
	}
	ro := gocured.RunOptions{Seed: runSeed(cfg.seed)}
	a0 := heapAllocBytes()
	log := closedLoop(cfg.workers, newStream(cfg.seed, indices(len(cps))), cfg.seconds, func(i int) (float64, bool) {
		t0 := time.Now()
		r, err := setup.progs[i].Run(gocured.ModeCured, ro)
		ms := msSince(t0)
		return ms, o.check(err == nil && resultOutcome(r) == setup.refs[i].out,
			"%s: cured run differs from reference (%v): %v", cps[i].Name, setup.refs[i].out, describe(r, err))
	})
	rep.addLoop(log, heapAllocBytes()-a0)
	rep.addOracle(o, false)
	rep.addOracle(exploitOracle(cps, setup.progs), true)
	return nil
}

func traceRun(cfg *config, rep *report, cps []corpusProg, setup *corpusSetup, o *oracle) error {
	ro := gocured.RunOptions{Seed: runSeed(cfg.seed)}
	// The traced driver builds its own units (untraced, as set-up) and
	// compiles their VM modules on first run, as core.Unit does.
	units := make([]*unit, len(cps))
	if err := parallel(cfg.workers, len(cps), func(i int) error {
		u, err := build(nil, cps[i].Name, cps[i].Source, cps[i].Opts, nil)
		units[i] = u
		return err
	}); err != nil {
		return err
	}
	// As in traceCompile, each op runs untraced and then traced.
	logA := &opLog{}
	t := newTracer()
	ex := &execCounters{}
	cured := make([]uint64, len(cps))
	logB := closedLoop(1, newStream(cfg.seed, indices(len(cps))), cfg.seconds, func(i int) (float64, bool) {
		t0 := time.Now()
		r, err := setup.progs[i].Run(gocured.ModeCured, ro)
		ms := msSince(t0)
		logA.add(ms, o.check(err == nil && resultOutcome(r) == setup.refs[i].out,
			"%s: cured run differs from reference: %v", cps[i].Name, describe(r, err)), 0, 0)
		h := t.begin("op")
		out, err := units[i].runCured(t, interp.Config{Seed: ro.Seed})
		t.end(h)
		ok := o.check(err == nil && interpOutcome(out) == setup.refs[i].out,
			"%s: traced cured run differs from reference", cps[i].Name)
		if ok {
			ex.add(out)
			cured[i] = out.Counters.Cost
		}
		return t.dur(h), ok
	})
	rep.addPhases(logA, logB)
	rep.addOracle(o, false)
	rep.addOracle(exploitOracle(cps, setup.progs), true)
	var slow []float64
	for i, c := range cured {
		if c > 0 && setup.refs[i].simCycles > 0 {
			slow = append(slow, float64(c)/float64(setup.refs[i].simCycles))
		}
	}
	tot := t.totals()
	counters := ex.counters(len(logB.lat), selfMS(tot, "interp.exec"))
	counters["interp.exec.sim_slowdown"] = geomean(slow)
	return rep.finishTrace(t, tot, ledgerInput{Ops: len(logB.lat), OpMS: mean(logA.lat), E2EOpMS: mean(logA.lat),
		TracedOpMS: mean(logB.lat), Counters: counters})
}

func selfMS(tot map[string]*layerTotals, layer string) float64 {
	if lt := tot[layer]; lt != nil {
		return lt.SelfMS
	}
	return 0
}

// msSince is the wall time since t0 in milliseconds.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }
