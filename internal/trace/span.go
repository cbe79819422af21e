package trace

import (
	"math"
	"time"
)

// Span is one timed pipeline phase (parse, sema, lower, infer, instrument,
// run). DurMS is milliseconds, the unit the metrics surface uses. StartMS
// is the span's start offset from the SpanSet's first observation and
// Depth its nesting level, so exporters (the flight recorder's Chrome
// trace rendering) can reconstruct a timeline from a snapshot.
type Span struct {
	Name    string  `json:"name"`
	DurMS   float64 `json:"dur_ms"`
	StartMS float64 `json:"start_ms,omitempty"`
	Depth   int     `json:"depth,omitempty"`
}

// EndMS returns the span's end offset.
func (s Span) EndMS() float64 { return s.StartMS + s.DurMS }

// SpanSet accumulates phase spans. The zero value is ready to use; it is
// not safe for concurrent use (phases run sequentially). Spans may nest:
// Begin/End pairs track an open-span stack, and Do is Begin+fn+End.
type SpanSet struct {
	Spans []Span

	t0   time.Time
	open []int // indices into Spans of still-open spans, outermost first
}

// SpanHandle identifies one Begin'd span for End.
type SpanHandle int

// gridMS is the resolution of span times: 2^-20 ms, just under 1 ns.
// Every time a SpanSet records is a whole number of grid steps, converted
// to ms once; power-of-two steps make the float64 sums and differences of
// such times exact, so a span closed at instant end has StartMS+DurMS ==
// end bit for bit, and spans closed together end together.
const gridMS = 1.0 / (1 << 20)

// toMS converts d to ms on the span grid.
func toMS(d time.Duration) float64 {
	return math.Round(float64(d)/float64(time.Millisecond)/gridMS) * gridMS
}

// now returns the offset in ms since the set's first observation,
// initializing the epoch on first use.
func (s *SpanSet) now() float64 {
	if s.t0.IsZero() {
		s.t0 = time.Now()
		return 0
	}
	return toMS(time.Since(s.t0))
}

// Add records a completed (leaf) span ending now with duration d.
func (s *SpanSet) Add(name string, d time.Duration) {
	if s == nil {
		return
	}
	end := s.now()
	dur := toMS(d)
	start := end - dur
	if start < 0 {
		start = 0
	}
	s.Spans = append(s.Spans, Span{Name: name, DurMS: dur, StartMS: start, Depth: len(s.open)})
}

// Begin opens a span. The returned handle closes it via End; spans begun
// while another is open nest under it (Depth records the level).
func (s *SpanSet) Begin(name string) SpanHandle {
	if s == nil {
		return -1
	}
	start := s.now()
	idx := len(s.Spans)
	s.Spans = append(s.Spans, Span{Name: name, StartMS: start, DurMS: -1, Depth: len(s.open)})
	s.open = append(s.open, idx)
	return SpanHandle(idx)
}

// End closes the span h. Ending a span that still has open children closes
// the children first (at the same instant), so out-of-order End calls can
// never produce overlapping-but-unnested spans; ending an already-closed
// span is a no-op. Zero-duration spans (Begin immediately followed by End)
// are kept — they mark phases that ran and finished within a timer tick.
func (s *SpanSet) End(h SpanHandle) {
	if s == nil || h < 0 || int(h) >= len(s.Spans) {
		return
	}
	// Find h on the open stack; a missing entry means it was already ended.
	at := -1
	for i, idx := range s.open {
		if idx == int(h) {
			at = i
			break
		}
	}
	if at < 0 {
		return
	}
	end := s.now()
	// Close h and everything opened after it, innermost first; all of them
	// end at exactly end (see gridMS).
	for i := len(s.open) - 1; i >= at; i-- {
		sp := &s.Spans[s.open[i]]
		sp.DurMS = end - sp.StartMS
		if sp.DurMS < 0 {
			sp.DurMS = 0
		}
	}
	s.open = s.open[:at]
}

// Do times fn and records it under name, nesting inside any open span.
func (s *SpanSet) Do(name string, fn func()) {
	if s == nil {
		fn()
		return
	}
	h := s.Begin(name)
	fn()
	s.End(h)
}

// Open reports how many spans are currently open (for tests).
func (s *SpanSet) Open() int {
	if s == nil {
		return 0
	}
	return len(s.open)
}
