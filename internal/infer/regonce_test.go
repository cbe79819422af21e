package infer

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gocured/internal/corpus"
)

// structGraphProg references one pointer into a cyclic struct graph k
// times. Each `p->v` registers p's whole reachable type graph for kind
// inference and each `p = p` registers it for split inference; neither
// adds a flow edge (both sides of `p = p` are the same type).
func structGraphProg(k int) string {
	var b strings.Builder
	b.WriteString(`
struct leaf { char *name; struct node *owner; int *vals[4]; };
struct node { int v; struct node *next; struct leaf *l; struct leaf inl; };
int main(void) {
  struct node n;
  struct node *p;
  int s;
  p = &n;
  s = 0;
`)
	for i := 0; i < k; i++ {
		b.WriteString("  s = s + p->v;\n  p = p;\n")
	}
	b.WriteString("  return s;\n}\n")
	return b.String()
}

// graphShape summarizes the constraint graph's size: nodes, provenance
// edges, and the total lengths of the class representatives' qualifier
// base lists and split down lists.
func graphShape(res *Result) string {
	base, down := 0, 0
	for _, r := range res.Graph.Reps() {
		base += len(r.BaseNodes())
	}
	for _, n := range res.Split.nodes {
		if n.find() == n {
			down += len(n.down)
		}
	}
	return fmt.Sprintf("nodes=%d prov=%d base=%d down=%d",
		len(res.Graph.Nodes), len(res.Graph.Prov.Edges), base, down)
}

// TestRegisterOnce: registering a type a second time adds nothing, so the
// graph's shape does not grow with the number of references, in a plain
// inference and in a recording one.
func TestRegisterOnce(t *testing.T) {
	for _, split := range []bool{false, true} {
		opts := Options{SplitAll: split}
		shape := func(k int, incr bool) string {
			prog, d := lower(t, "graph.c", structGraphProg(k))
			if incr {
				res, _ := InferIncremental(prog, opts, d, newMemSource())
				return graphShape(res)
			}
			return graphShape(Infer(prog, opts, d))
		}
		for _, incr := range []bool{false, true} {
			one, many := shape(1, incr), shape(500, incr)
			if one != many {
				t.Errorf("split=%v incremental=%v: K=1 %s, K=500 %s", split, incr, one, many)
			}
		}
	}
}

// ijpegInferAllocs is the allocation budget of one ijpeg inference. It
// takes about 26k allocations; re-walking every reachable type graph on
// each registration took about 95k.
const ijpegInferAllocs = 40000

// TestInferAllocGuardIjpeg bounds the heap allocations of one inference
// over the largest corpus program.
func TestInferAllocGuardIjpeg(t *testing.T) {
	p := corpus.ByName("ijpeg")
	prog, d := lower(t, "ijpeg.c", p.Source)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Infer(prog, Options{TrustBadCasts: p.TrustBadCasts}, d)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > ijpegInferAllocs {
		t.Errorf("ijpeg inference made %d allocations, budget %d", n, ijpegInferAllocs)
	} else {
		t.Logf("ijpeg inference: %d allocations (budget %d)", n, ijpegInferAllocs)
	}
}

// BenchmarkInferIjpeg times one inference over ijpeg (frontend excluded).
func BenchmarkInferIjpeg(b *testing.B) {
	p := corpus.ByName("ijpeg")
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		prog, d := lower(b, "ijpeg.c", p.Source)
		b.StartTimer()
		Infer(prog, Options{TrustBadCasts: p.TrustBadCasts}, d)
	}
}
