// Command perfbench is gocured's benchmark: it drives three seeded
// workloads (compile, run, serve) through gocured's public entry points,
// checks every output against an oracle the timed code path does not
// produce, and prints the end-to-end metrics named in BENCHMARK.json. A
// traced run (-trace 1) instead prints the per-layer ledger. See README.md.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload compile --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	workers   int
	setupReps int
	ccserve   string // path of the ccserve binary (serve workload)
	outDir    string // reports and spans files
	tmp       string // this run's scratch directory
}

// report accumulates one run's results.
type report struct {
	cfg        *config
	values     map[string]float64 // end-to-end or per-layer metric values
	attempted  int
	failedOps  int
	mismatches int
	failures   []string // the first mismatch messages of each oracle
	notes      []string
	samples    map[string]int // sample count behind each latency metric
	host       map[string]string
	layers     map[string]*layerTotals
	drift      bool
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// addLoop records a closed loop's end-to-end metrics.
func (r *report) addLoop(l *opLog, allocBytes uint64) {
	for k, v := range loopMetrics(l, allocBytes) {
		r.values[k] = v
	}
	r.samples["p50_ms"] = len(l.lat)
	r.samples["p99_ms"] = len(l.lat)
	r.attempted += len(l.lat)
	r.failedOps += l.failed
	r.notef("timed window: %d ops in %.2fs, %d failed", len(l.lat), l.wall.Seconds(), l.failed)
}

// addPhases records the untraced and traced ops of a traced run.
func (r *report) addPhases(untraced, traced *opLog) {
	r.attempted += len(untraced.lat) + len(traced.lat)
	r.failedOps += untraced.failed + traced.failed
	r.notef("untraced: %d ops, mean %.3f ms; traced: %d ops, mean %.3f ms",
		len(untraced.lat), mean(untraced.lat), len(traced.lat), mean(traced.lat))
}

// addOracle records an oracle's mismatches. asOps counts its checks as
// attempted and failed ops (checks made outside the timed ops); per-op
// checks already marked their op failed.
func (r *report) addOracle(o *oracle, asOps bool) {
	r.mismatches += o.mismatches
	r.failures = append(r.failures, o.messages...)
	if asOps {
		r.attempted += o.checked
		r.failedOps += o.mismatches
	}
	r.notef("oracle: %d checks, %d mismatches", o.checked, o.mismatches)
}

// finishTrace turns a traced phase into the per-layer metrics and writes
// the spans file.
func (r *report) finishTrace(t *tracer, tot map[string]*layerTotals, in ledgerInput) error {
	r.layers = tot
	r.values = ledger(tot, in)
	if cov := r.values["trace.coverage"]; cov > driftLimit {
		r.drift = true
		fmt.Fprintf(os.Stderr, "perfbench: DRIFT: trace.coverage %.3f > %.2f: the traced driver spends more time in "+
			"layer calls than the program's own op takes; it probably makes a call the program no longer makes "+
			"(compare perfbench/mirror.go with internal/core)\n", cov, driftLimit)
	}
	path := filepath.Join(r.cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", r.cfg.workload, r.cfg.seed))
	n, err := t.writeSpans(path, "perfbench "+r.cfg.workload, map[string]any{"seed": r.cfg.seed})
	if err != nil {
		return err
	}
	r.notef("spans file: %s (%d events)", path, n)
	return nil
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB reads VmHWM, the peak resident set size, of a process.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func main() {
	cfg := &config{setupReps: 3}
	var seconds, traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: compile, run or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer ledger of a traced run instead of the end-to-end metrics")
	flag.StringVar(&cfg.ccserve, "ccserve", ".bench_build/perfbench/ccserve", "ccserve binary (serve workload)")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for reports and spans files")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1
	if cfg.trace {
		cfg.setupReps = 1 // a traced run does not report setup_s
	}
	cfg.workers = runtime.NumCPU()
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg *config) error {
	runs := map[string]func(*config, *report) error{
		"compile": runCompile,
		"run":     runRun,
		"serve":   runServe,
	}
	fn, ok := runs[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want compile, run or serve)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, fmt.Sprintf("tmp-%s-", cfg.workload))
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp
	rep := &report{cfg: cfg, values: map[string]float64{}, samples: map[string]int{}, host: hostStamp(cfg)}
	if err := fn(cfg, rep); err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	} else if _, ok := rep.values["peak_rss_mb"]; !ok {
		mb, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		rep.values["peak_rss_mb"] = mb
	}
	m, err := collect(defs, rep.values)
	if err != nil {
		return err
	}
	line := resultLine{
		Correct:   rep.mismatches == 0 && rep.failedOps == 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.failedOps,
		Metrics:   m,
	}
	if err := rep.write(defs, line); err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// write prints the human-readable report and saves the full one as JSON.
func (r *report) write(defs []metricDef, line resultLine) error {
	keys := make([]string, 0, len(r.host))
	for k := range r.host {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("host %-12s %s\n", k, r.host[k])
	}
	for _, n := range r.notes {
		fmt.Println("note", n)
	}
	for _, f := range r.failures {
		fmt.Println("MISMATCH", f)
	}
	failFrac := float64(line.Failed) / float64(line.Attempted)
	fmt.Printf("fail_frac %.6f (%d of %d)\n", failFrac, line.Failed, line.Attempted)
	for _, d := range defs {
		n := ""
		if c, ok := r.samples[d.Name]; ok {
			n = fmt.Sprintf(" (n=%d)", c)
		}
		fmt.Printf("%-40s %14.6g %s%s\n", d.Name, line.Metrics[d.Name].Value, d.Unit, n)
	}
	full := map[string]any{
		"workload": r.cfg.workload, "seed": r.cfg.seed, "seconds": r.cfg.seconds.Seconds(),
		"trace": r.cfg.trace, "host": r.host, "result": line, "fail_frac": failFrac,
		"samples": r.samples, "notes": r.notes, "mismatches": r.failures,
		"layers": r.layers, "drift": r.drift,
	}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if r.cfg.trace {
		t = 1
	}
	path := filepath.Join(r.cfg.outDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", r.cfg.workload, r.cfg.seed, t))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
