package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef is one metric the benchmark prints. The same names, units and
// directions appear in BENCHMARK.json; TestMetricNamesMatchBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd lists the metrics a user of gocured sees, printed by every
// untraced run. Each is measured on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "op/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// layers are the span names of the per-layer ledger, in pipeline order.
var layers = []string{
	"ccserve", "pipeline", "cparse", "sema", "cil", "infer", "instrument",
	"instrument.optimize", "vm", "interp.setup", "interp.exec",
}

// noAllocLayers are measured only as time: their work runs in another
// process, where the benchmark cannot read allocation counters per call.
var noAllocLayers = map[string]bool{"ccserve": true}

// layerCounters are the extra per-layer counters of the traced run.
var layerCounters = []metricDef{
	{"pipeline.cache_hit_ratio", "ratio", "higher"},
	{"infer.replayed_frac", "ratio", "higher"},
	{"instrument.checks_inserted", "count", "lower"},
	{"instrument.optimize.checks_removed", "count", "higher"},
	{"interp.exec.steps_per_op", "count", "lower"},
	{"interp.exec.dyn_checks_per_op", "count", "lower"},
	{"interp.exec.msteps_per_s", "Msteps/s", "higher"},
	{"interp.exec.sim_slowdown", "ratio", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// perLayer lists every metric a traced run prints: five per layer (three
// for layers without allocation counters), then the counters.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out,
			metricDef{l + ".calls_per_op", "count", "lower"},
			metricDef{l + ".self_ms_per_op", "ms", "lower"},
			metricDef{l + ".share", "ratio", "lower"})
		if !noAllocLayers[l] {
			out = append(out,
				metricDef{l + ".allocs_per_call", "count", "lower"},
				metricDef{l + ".kb_per_call", "KB", "lower"})
		}
	}
	return append(out, layerCounters...)
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect builds the metrics object from values keyed by name. Every
// listed metric must have a value: a missing one is a benchmark bug, not a
// measurement, so it is reported as an error.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if !hasMetric(defs, name) {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

func (r resultLine) String() string {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite floats and strings reach here
	}
	return string(data)
}

// ---- sample statistics ----

// failedLatency stands for a failed or refused op in latency percentiles:
// slower than any limit, yet a finite number JSON can carry.
const failedLatency = 1e9

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// geomean is the geometric mean of positive ratios (0 when xs is empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}
