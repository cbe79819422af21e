package instrument_test

import (
	"os"
	"reflect"
	"runtime"
	"testing"

	"gocured/internal/core"
	"gocured/internal/corpus"
	"gocured/internal/infer"
	"gocured/internal/instrument"
)

// optSource is one program the optimizer tests compile.
type optSource struct {
	name, src string
	opts      infer.Options
}

// keysSrc holds checks whose keys differ only in what the corpus rarely
// tells apart: the RTTI target, a cast's target type, a sizeof operand and
// a string constant. Each pair must stay two facts.
const keysSrc = `
struct A { int x; };
struct B { int y; };
struct C { int z; char c; };
int rtti(void *v) {
    return ((struct A *)v)->x + ((struct B *)v)->y;
}
int casts(char *p) {
    int a = *(int *)p;
    unsigned int b = *(unsigned int *)p;
    return a + (int)b;
}
int sizes(char *p, int i) {
    return p[i + sizeof(struct A)] + p[i + sizeof(struct C)] + p[i + sizeof(struct B)];
}
int strs(int i) {
    return "abc"[i] + "abd"[i] + "abc"[i];
}
int main(void) {
    struct A a;
    struct B b;
    char buf[64];
    a.x = 1;
    b.y = 2;
    buf[0] = 0;
    return rtti((void *)&a) + rtti((void *)&b) + casts(buf) + sizes(buf, 1) + strs(1);
}
`

// optSources returns every corpus program, with its documented options,
// examples/explain/wild.c and keysSrc.
func optSources(t testing.TB) []optSource {
	t.Helper()
	var out []optSource
	for _, p := range corpus.All() {
		out = append(out, optSource{p.Name + ".c", p.Source, infer.Options{TrustBadCasts: p.TrustBadCasts}})
	}
	wild, err := os.ReadFile("../../examples/explain/wild.c")
	if err != nil {
		t.Fatal(err)
	}
	return append(out,
		optSource{"wild.c", string(wild), infer.Options{}},
		optSource{"keys.c", corpus.Prelude + keysSrc, infer.Options{}})
}

// buildUnoptimized compiles s without running the optimizer.
func buildUnoptimized(t testing.TB, s optSource) *core.Unit {
	t.Helper()
	opts := s.opts
	opts.NoOptimize = true
	u, err := core.Build(s.name, s.src, opts)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return u
}

// samePartition reports the first pair of keys on which refs and got
// disagree: equal under one and different under the other.
func samePartition(pairs []instrument.KeyPair) (a, b instrument.KeyPair, ok bool) {
	byRef := make(map[string]instrument.KeyPair)
	byGot := make(map[string]instrument.KeyPair)
	for _, p := range pairs {
		if q, seen := byRef[p.Ref]; seen && q.Got != p.Got {
			return q, p, false
		}
		if q, seen := byGot[p.Got]; seen && q.Ref != p.Ref {
			return q, p, false
		}
		byRef[p.Ref] = p
		byGot[p.Got] = p
	}
	return instrument.KeyPair{}, instrument.KeyPair{}, true
}

// TestFactIDsMatchReferenceKeys is the key-equivalence oracle: over every
// check of every corpus function, wild.c and keysSrc, as the
// available-check pass sees them, two checks share a fact ID exactly when
// the original fmt-based keys are equal; and SEQ coalescing groups by
// base exactly as the original keys did.
func TestFactIDsMatchReferenceKeys(t *testing.T) {
	checks, seqs := 0, 0
	for _, s := range optSources(t) {
		u := buildUnoptimized(t, s)
		instrument.OptimizerKeys(u.Cured, func(fn string, facts, seqBases []instrument.KeyPair) {
			checks += len(facts)
			seqs += len(seqBases)
			if a, b, ok := samePartition(facts); !ok {
				t.Errorf("%s/%s: fact keys disagree: %q -> %s, %q -> %s", s.name, fn, a.Ref, a.Got, b.Ref, b.Got)
			}
			if a, b, ok := samePartition(seqBases); !ok {
				t.Errorf("%s/%s: SEQ base keys disagree: %q -> %q, %q -> %q", s.name, fn, a.Ref, a.Got, b.Ref, b.Got)
			}
		})
	}
	if checks == 0 || seqs == 0 {
		t.Fatalf("oracle saw %d checks and %d SEQ checks", checks, seqs)
	}
	t.Logf("%d checks, %d SEQ checks", checks, seqs)
}

// TestOptSitesDeterministic compiles every corpus program ten times: the
// optimizer's per-site deletion table must come out in the same order
// each time.
func TestOptSitesDeterministic(t *testing.T) {
	for _, s := range optSources(t) {
		var first []instrument.SiteElim
		for i := 0; i < 10; i++ {
			u, err := core.Build(s.name, s.src, s.opts)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			sites := u.Cured.Opt.Sites
			if i == 0 {
				first = sites
				continue
			}
			if !reflect.DeepEqual(sites, first) {
				t.Fatalf("%s: compile %d optimizer sites differ:\n got %v\nwant %v", s.name, i, sites, first)
			}
		}
	}
}

// bindOptimizeAllocs is the allocation budget of one Optimize over bind.
// It takes about 1,460 allocations, most of them the CFG; formatting every
// check key on every dataflow visit and copying map-based fact sets took
// about 4,170.
const bindOptimizeAllocs = 2200

// TestOptimizeAllocGuard bounds the heap allocations of one optimizer run
// over bind, the corpus program with the most checks.
func TestOptimizeAllocGuard(t *testing.T) {
	p := corpus.ByName("bind")
	u := buildUnoptimized(t, optSource{"bind.c", p.Source, infer.Options{TrustBadCasts: p.TrustBadCasts}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	instrument.Optimize(u.Cured)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > bindOptimizeAllocs {
		t.Errorf("bind optimizer run made %d allocations, budget %d", n, bindOptimizeAllocs)
	} else {
		t.Logf("bind optimizer run: %d allocations (budget %d)", n, bindOptimizeAllocs)
	}
}

// BenchmarkOptimize times one optimizer run over bind (compilation
// excluded).
func BenchmarkOptimize(b *testing.B) {
	p := corpus.ByName("bind")
	s := optSource{"bind.c", p.Source, infer.Options{TrustBadCasts: p.TrustBadCasts}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u := buildUnoptimized(b, s)
		b.StartTimer()
		instrument.Optimize(u.Cured)
	}
}
