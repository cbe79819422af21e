package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gocured"
	"gocured/internal/corpus"
	"gocured/internal/loadgen"
)

// stream hands out a seeded sequence of passes. Each pass is a fresh
// shuffle of the same items, so every pass has the same composition and
// only the order depends on the seed. A stream stops at a pass boundary:
// once its deadline has passed no new pass starts, but every op of a pass
// already begun is handed out. Measuring whole passes keeps the op mix, and
// so every mean and percentile, the same from seed to seed.
type stream struct {
	mu       sync.Mutex
	rng      *rand.Rand
	items    []int
	cur      []int
	pos      int
	passes   int
	deadline time.Time
	closed   bool
}

func newStream(seed int64, items []int) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed)), items: items}
}

// next returns the next item and the number of its pass (from 1), or
// false once the stream is exhausted.
func (s *stream) next() (item, pass int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0, false
	}
	if s.pos == len(s.cur) {
		if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
			s.closed = true
			return 0, 0, false
		}
		s.cur = append(s.cur[:0], s.items...)
		s.rng.Shuffle(len(s.cur), func(i, j int) { s.cur[i], s.cur[j] = s.cur[j], s.cur[i] })
		s.pos = 0
		s.passes++
	}
	v := s.cur[s.pos]
	s.pos++
	return v, s.passes, true
}

// runFor arms the stream to stop at the first pass boundary after d. A
// stopped stream resumes with a fresh pass.
func (s *stream) runFor(d time.Duration) {
	s.mu.Lock()
	s.deadline = time.Now().Add(d)
	s.closed = false
	s.mu.Unlock()
}

// ---- corpus workloads ----

// corpusProg is one corpus program with the options its documentation
// prescribes (bind's trusted casts and so on).
type corpusProg struct {
	Name   string
	Source string
	Opts   gocured.Options
}

func corpusProgs() []corpusProg {
	var out []corpusProg
	for _, p := range corpus.All() {
		out = append(out, corpusProg{Name: p.Name + ".c", Source: p.Source,
			Opts: gocured.Options{TrustBadCasts: p.TrustBadCasts}})
	}
	return out
}

func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// runSeed is the deterministic rand() seed the corpus programs run with.
func runSeed(seed int64) uint64 { return uint64(seed)*2654435761 + 1 }

// ---- serve workload ----

// Request classes, as in loadgen: hit is a memory-cache hit, run a cache
// hit plus execution, edit a unit with one function changed (its other
// functions are replayed from the artifact store), cure a fresh unit.
const (
	classHit  = "hit"
	classRun  = "run"
	classEdit = "edit"
	classCure = "cure"
)

var classes = []string{classHit, classRun, classEdit, classCure}

// mixItems expands loadgen's DefaultMix into one pass of class indices: a
// pass of 100 requests holds exactly 45 hit, 25 run, 20 edit and 10 cure.
func mixItems() []int {
	mix := loadgen.DefaultMix()
	var out []int
	for i, c := range classes {
		for j := 0; j < mix[c]; j++ {
			out = append(out, i)
		}
	}
	if len(out) == 0 || len(mix) != len(classes) {
		panic(fmt.Sprintf("perfbench: DefaultMix %v does not match classes %v", mix, classes))
	}
	return out
}

// baseProg is loadgen's request template: stable_sum and main stay fixed
// for the edit class, edited() is the function an edit changes.
const baseProg = `extern int printf(char *fmt, ...);

int stable_sum(int n) {
  int i, t = 0;
  int a[8];
  for (i = 0; i < 8; i++) a[i] = i + %d;
  for (i = 0; i < n && i < 8; i++) t += a[i];
  return t;
}

int edited(int x) { return x * %d + %d; }

int main(void) {
  int r = stable_sum(6) + edited(%d);
  return r & 255;
}
`

// unitConsts are the four constants of baseProg.
type unitConsts struct{ Stable, Mul, Add, Arg int32 }

func (c unitConsts) source() string {
	return fmt.Sprintf(baseProg, c.Stable, c.Mul, c.Add, c.Arg)
}

// exitCode is what main returns, computed in Go from the constants:
// stable_sum(6) adds a[0..5] = K..K+5, edited(x) = x*Mul + Add. It is the
// run-class oracle and shares no code with the interpreter.
func (c unitConsts) exitCode() int {
	r := 15 + 6*c.Stable + c.Arg*c.Mul + c.Add
	return int(r & 255)
}

// request is one POST /cure body plus what the reply must show.
type request struct {
	Class    string
	Name     string
	Consts   unitConsts
	Run      bool
	WantExit int // run class only
}

// reqGen builds the requests of one serve run. The hit and run classes
// share one unit, salted by the seed; edit changes only edited() of that
// unit; cure numbers every unit so none repeats.
type reqGen struct {
	salt   int32 // non-negative, derived from the seed
	base   unitConsts
	edits  int
	cures  int
	stream *stream
}

func newReqGen(seed int64) *reqGen {
	s := int32(seed % 9973)
	if s < 0 {
		s = -s
	}
	return &reqGen{
		salt:   s,
		base:   unitConsts{Stable: 1 + s%97, Mul: 3, Add: 1 + s%31, Arg: 2 + s%5},
		stream: newStream(seed, mixItems()),
	}
}

// build returns the next request of a class. Edits keep Stable and Arg,
// so stable_sum and main keep their fingerprints; Mul starts at 4 so an
// edit never reproduces the hit unit.
func (g *reqGen) build(class string) request {
	switch class {
	case classHit:
		return request{Class: class, Name: "bench-hit.c", Consts: g.base}
	case classRun:
		return request{Class: class, Name: "bench-hit.c", Consts: g.base, Run: true, WantExit: g.base.exitCode()}
	case classEdit:
		n := int32(g.edits)
		g.edits++
		c := g.base
		c.Mul, c.Add = 4+n%120, (n*7+g.salt)%89
		return request{Class: class, Name: "bench-hit.c", Consts: c}
	case classCure:
		n := int32(g.cures)
		g.cures++
		c := unitConsts{Stable: 1000 + g.salt*1000 + n, Mul: 1 + n%127, Add: n % 89, Arg: n % 7}
		return request{Class: class, Name: "bench-cure.c", Consts: c}
	}
	panic("perfbench: unknown class " + class)
}

// warmup is the fixed request list every serve-style set-up sends: the hit
// unit compiled, then run (building its VM module), one edit and one cure.
// Their sequence numbers come from the generator, so timed cure units stay
// fresh.
func (g *reqGen) warmup() []request {
	first := g.build(classHit)
	first.Class = "compile" // the first request of the hit unit is a miss
	return []request{first, g.build(classRun), g.build(classEdit), g.build(classCure)}
}
