package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"gocured"
	"gocured/internal/trace"
)

// take returns the first n items of an unarmed stream.
func (s *stream) take(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i], _, _ = s.next()
	}
	return out
}

func TestStreamSeeded(t *testing.T) {
	items := indices(33)
	a := newStream(7, items).take(200)
	b := newStream(7, items).take(200)
	c := newStream(8, items).take(200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two op sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same op sequence")
	}
	// Every pass is a permutation of the items: runs of any length measure
	// whole passes with the same composition.
	for p := 0; p < 6; p++ {
		seen := map[int]bool{}
		for _, v := range a[p*33 : (p+1)*33] {
			seen[v] = true
		}
		if len(seen) != 33 {
			t.Fatalf("pass %d covers %d of 33 programs", p, len(seen))
		}
	}
}

// next returns the next request of an unarmed generator's seeded mix.
func (g *reqGen) next() request {
	i, _, _ := g.stream.next()
	return g.build(classes[i])
}

// requests returns the first n requests a generator makes, warm-up first.
func requests(seed int64, n int) []request {
	g := newReqGen(seed)
	out := g.warmup()
	for len(out) < n {
		out = append(out, g.next())
	}
	return out
}

func TestRequestsSeeded(t *testing.T) {
	a, b, c := requests(3, 300), requests(3, 300), requests(4, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 3 and 4 gave the same request sequence")
	}
	// Each pass of 100 holds loadgen's DefaultMix exactly, and no cure or
	// edit unit repeats, so neither can be a cache hit.
	g := newReqGen(3)
	counts := map[string]int{}
	sources := map[string]string{}
	for i := 0; i < 100; i++ {
		r := g.next()
		counts[r.Class]++
		if r.Class == classCure || r.Class == classEdit {
			src := r.Consts.source()
			if prev, dup := sources[src]; dup {
				t.Fatalf("%s request repeats an earlier %s unit", r.Class, prev)
			}
			sources[src] = r.Class
		}
	}
	want := map[string]int{classHit: 45, classRun: 25, classEdit: 20, classCure: 10}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("one pass has %v, want %v", counts, want)
	}
}

// TestExitOracle checks the Go-computed run-class exit code against the
// unit's raw run on the tree walker.
func TestExitOracle(t *testing.T) {
	for _, c := range []unitConsts{newReqGen(1).base, newReqGen(9000).base, {Stable: 1234, Mul: 97, Add: 88, Arg: 6}} {
		p, err := gocured.Compile("oracle.c", c.source(), gocured.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Run(gocured.ModeRaw, gocured.RunOptions{Backend: "tree"})
		if err != nil {
			t.Fatal(err)
		}
		if r.ExitCode != c.exitCode() {
			t.Errorf("%+v: program exits %d, oracle says %d", c, r.ExitCode, c.exitCode())
		}
	}
}

type benchFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var e2e, pl []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range bf.PerLayer {
		pl = append(pl, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > bf.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v must be in (0, 0.25] and at most setup_s's", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the printed metrics:\n json %v\n code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(pl, perLayer()) {
		t.Errorf("per_layer in BENCHMARK.json differs from the printed metrics:\n json %v\n code %v", pl, perLayer())
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !name.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q is not a valid name", d.Name)
		}
	}
	// What the ledger prints is exactly the per-layer list.
	vals := ledger(map[string]*layerTotals{}, ledgerInput{Ops: 1, OpMS: 1, E2EOpMS: 1})
	if _, err := collect(perLayer(), vals); err != nil {
		t.Errorf("ledger output: %v", err)
	}
	if _, err := collect(endToEnd, map[string]float64{"setup_s": 1}); err == nil {
		t.Error("collect accepted a result with missing metrics")
	}
}

func TestSelfTimes(t *testing.T) {
	tests := []struct {
		name  string
		spans []trace.Span
		want  []float64
	}{
		{"nested", []trace.Span{
			{Name: "op", StartMS: 0, DurMS: 10},
			{Name: "a", StartMS: 1, DurMS: 6, Depth: 1},
			{Name: "b", StartMS: 2, DurMS: 3, Depth: 2},
		}, []float64{4, 3, 3}},
		{"adjacent", []trace.Span{
			{Name: "op", StartMS: 0, DurMS: 10},
			{Name: "a", StartMS: 0, DurMS: 4, Depth: 1},
			{Name: "b", StartMS: 4, DurMS: 4, Depth: 1},
		}, []float64{2, 4, 4}},
		{"zero-length", []trace.Span{
			{Name: "op", StartMS: 0, DurMS: 5},
			{Name: "a", StartMS: 2, DurMS: 0, Depth: 1},
			{Name: "b", StartMS: 2, DurMS: 0, Depth: 1},
		}, []float64{5, 0, 0}},
		{"overlapping and clipped", []trace.Span{
			{Name: "op", StartMS: 0, DurMS: 10},
			{Name: "a", StartMS: 1, DurMS: 4, Depth: 1},
			{Name: "b", StartMS: 3, DurMS: 4, Depth: 1},
			{Name: "c", StartMS: 9, DurMS: 5, Depth: 1},
		}, []float64{3, 4, 4, 5}},
		{"siblings at the root", []trace.Span{
			{Name: "op", StartMS: 0, DurMS: 2},
			{Name: "op", StartMS: 2, DurMS: 3},
			{Name: "a", StartMS: 2, DurMS: 3, Depth: 1},
		}, []float64{2, 0, 3}},
	}
	for _, tc := range tests {
		got := selfTimes(tc.spans)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: self times %v, want %v", tc.name, got, tc.want)
		}
	}
}

var sink []byte

func TestTracerLedger(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 3; i++ {
		h := tr.begin("op")
		tr.do("cparse", func() { sink = make([]byte, 1<<16) })
		tr.do("infer", func() {})
		tr.end(h)
	}
	tot := tr.totals()
	if tot["cparse"].Calls != 3 || tot["infer"].Calls != 3 || tot["op"].Calls != 3 {
		t.Fatalf("calls: %+v %+v %+v", tot["op"], tot["cparse"], tot["infer"])
	}
	if tot["cparse"].Bytes < 3<<16 {
		t.Errorf("cparse allocated %d bytes, want at least %d", tot["cparse"].Bytes, 3<<16)
	}
	vals := ledger(tot, ledgerInput{Ops: 3, OpMS: 1, E2EOpMS: 1, TracedOpMS: 1.5})
	if vals["cparse.calls_per_op"] != 1 || vals["vm.calls_per_op"] != 0 {
		t.Errorf("calls_per_op: cparse %v, vm %v", vals["cparse.calls_per_op"], vals["vm.calls_per_op"])
	}
	if vals["trace.overhead_frac"] != 0.5 {
		t.Errorf("overhead_frac %v, want 0.5", vals["trace.overhead_frac"])
	}
	path := t.TempDir() + "/spans.json"
	n, err := tr.writeSpans(path, "test", nil)
	if err != nil || n != 1+3*3*2 {
		t.Fatalf("writeSpans: %d events, %v", n, err)
	}
}
