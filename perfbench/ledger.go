package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"

	"gocured/internal/flight"
	"gocured/internal/trace"
)

// tracer records the spans of a traced run from outside the program: the
// benchmark opens a span around each call it makes into a layer's public
// function. Each span also carries the heap objects and bytes allocated
// while it was open, read from runtime/metrics. A nil tracer runs the
// calls untraced. It is not safe for concurrent use: the traced run has one
// worker.
type tracer struct {
	set    trace.SpanSet
	allocs []allocDelta // parallel to set.Spans
	sample []metrics.Sample
}

// allocDelta is a span's inclusive allocation count: at Begin it holds the
// counters' start values, at End the difference.
type allocDelta struct{ objects, bytes uint64 }

func newTracer() *tracer {
	return &tracer{sample: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

func (t *tracer) heapAllocs() allocDelta {
	metrics.Read(t.sample)
	return allocDelta{t.sample[0].Value.Uint64(), t.sample[1].Value.Uint64()}
}

func (t *tracer) begin(name string) trace.SpanHandle {
	if t == nil {
		return -1
	}
	a := t.heapAllocs()
	h := t.set.Begin(name)
	t.allocs = append(t.allocs, a)
	return h
}

func (t *tracer) end(h trace.SpanHandle) {
	if t == nil {
		return
	}
	t.set.End(h)
	a := t.heapAllocs()
	start := t.allocs[h]
	t.allocs[h] = allocDelta{a.objects - start.objects, a.bytes - start.bytes}
}

// do runs fn inside a span named after the layer it calls and returns
// the span's duration in milliseconds.
func (t *tracer) do(name string, fn func()) float64 {
	h := t.begin(name)
	fn()
	t.end(h)
	return t.dur(h)
}

// dur is the duration of the closed span h (0 untraced).
func (t *tracer) dur(h trace.SpanHandle) float64 {
	if t == nil {
		return 0
	}
	return t.set.Spans[h].DurMS
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. spans are in pre-order with
// depths, as trace.SpanSet records them. Children are clipped to the
// parent, and overlapping or adjacent children are merged before their
// union is subtracted, so the result is never negative.
func selfTimes(spans []trace.Span) []float64 {
	self := make([]float64, len(spans))
	for i, sp := range spans {
		lo, hi := sp.StartMS, sp.EndMS()
		covered := 0.0
		curLo, curHi := 0.0, 0.0
		open := false
		for j := i + 1; j < len(spans) && spans[j].Depth > sp.Depth; j++ {
			if spans[j].Depth != sp.Depth+1 {
				continue
			}
			cLo, cHi := max(spans[j].StartMS, lo), min(spans[j].EndMS(), hi)
			if cHi < cLo {
				continue
			}
			switch {
			case !open:
				curLo, curHi, open = cLo, cHi, true
			case cLo <= curHi:
				curHi = max(curHi, cHi)
			default:
				covered += curHi - curLo
				curLo, curHi = cLo, cHi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = max(0, sp.DurMS-covered)
	}
	return self
}

// selfAllocs subtracts each span's direct children's inclusive allocations
// from its own.
func selfAllocs(spans []trace.Span, incl []allocDelta) []allocDelta {
	self := append([]allocDelta(nil), incl...)
	for i, sp := range spans {
		for j := i + 1; j < len(spans) && spans[j].Depth > sp.Depth; j++ {
			if spans[j].Depth == sp.Depth+1 {
				self[i].objects -= min(self[i].objects, incl[j].objects)
				self[i].bytes -= min(self[i].bytes, incl[j].bytes)
			}
		}
	}
	return self
}

// layerTotals is one layer's share of a traced run.
type layerTotals struct {
	Calls   int     `json:"calls"`
	SelfMS  float64 `json:"self_ms"`
	Objects uint64  `json:"alloc_objects"`
	Bytes   uint64  `json:"alloc_bytes"`
}

// totals sums self time and self allocations per span name.
func (t *tracer) totals() map[string]*layerTotals {
	spans := t.set.Spans
	st := selfTimes(spans)
	sa := selfAllocs(spans, t.allocs)
	out := map[string]*layerTotals{}
	for i, sp := range spans {
		lt := out[sp.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[sp.Name] = lt
		}
		lt.Calls++
		lt.SelfMS += st[i]
		lt.Objects += sa[i].objects
		lt.Bytes += sa[i].bytes
	}
	return out
}

// writeSpans renders the recorded spans as a Chrome trace-event file with
// the flight recorder's exporter and checks it with ValidateTrace before
// writing it, so the file always opens in Perfetto.
func (t *tracer) writeSpans(path, track string, args map[string]any) (int, error) {
	var buf bytes.Buffer
	if err := flight.WriteSpanTrace(&buf, track, t.set.Spans, args); err != nil {
		return 0, fmt.Errorf("render spans: %w", err)
	}
	n, err := flight.ValidateTrace(buf.Bytes())
	if err != nil {
		return 0, fmt.Errorf("spans file invalid: %w", err)
	}
	return n, os.WriteFile(path, buf.Bytes(), 0o644)
}

// ledgerInput is what a traced run measured besides its spans.
type ledgerInput struct {
	Ops        int                // traced ops
	OpMS       float64            // op wall time that shares and coverage divide by
	E2EOpMS    float64            // mean op wall time of the untraced phase
	TracedOpMS float64            // mean op wall time of the traced phase
	Counters   map[string]float64 // layerCounters values; absent ones are 0
}

// driftLimit bounds trace.coverage. The traced driver repeats the calls
// the program makes today; when the program stops making one (a later
// change drops a pass), the driver's layer time exceeds the real op time
// and coverage rises above 1 by that call's share. Coverage reads
// 0.93–1.01 on compile and run today; dropping the second frontend pass
// would add about 0.15.
const driftLimit = 1.08

// ledger turns span totals into the per-layer metrics.
func ledger(tot map[string]*layerTotals, in ledgerInput) map[string]float64 {
	out := map[string]float64{}
	ops := float64(max(in.Ops, 1))
	sum := 0.0
	for _, l := range layers {
		lt := tot[l]
		if lt == nil {
			lt = &layerTotals{}
		}
		perOp := lt.SelfMS / ops
		sum += perOp
		out[l+".calls_per_op"] = float64(lt.Calls) / ops
		out[l+".self_ms_per_op"] = perOp
		out[l+".share"] = ratio(perOp, in.OpMS)
		if !noAllocLayers[l] {
			out[l+".allocs_per_call"] = ratio(float64(lt.Objects), float64(lt.Calls))
			out[l+".kb_per_call"] = ratio(float64(lt.Bytes)/1024, float64(lt.Calls))
		}
	}
	for _, c := range layerCounters {
		out[c.Name] = in.Counters[c.Name] // 0 for a layer the workload does not call
	}
	out["trace.coverage"] = ratio(sum, in.OpMS)
	out["trace.overhead_frac"] = ratio(in.TracedOpMS, in.E2EOpMS) - 1
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that was never called).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
