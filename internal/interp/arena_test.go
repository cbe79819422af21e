package interp_test

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"

	"gocured/internal/core"
	"gocured/internal/infer"
	"gocured/internal/interp"
)

// Machine arenas come from a package free list and go back to it, zeroed
// over their used length, when Run ends. These tests pin what that must
// never change: what a run can read, how an oversized allocation ends, and
// that setup no longer allocates an arena per run.

var backends = []interp.Backend{interp.BackendTree, interp.BackendVM}

// malloc(4294967200u) wraps addr+size in 32 bits. Carving that block would
// make it end below its start and move the allocation cursor backwards, so
// the next block would overlap live ones. It must be an out-of-memory trap
// at the malloc, in every mode on both backends.
func TestMallocOverflowTraps(t *testing.T) {
	u := buildOrDie(t, `
void *malloc(unsigned int n);
int main(void) {
    char *a = (char *)malloc(16);
    char *p = (char *)malloc(4294967200u);
    char *b = (char *)malloc(16);
    p[0] = 1;
    b[0] = 2;
    return a[0];
}
`)
	for _, be := range backends {
		runs := map[string]func() (*interp.Outcome, error){
			"cured":    func() (*interp.Outcome, error) { return u.RunCured(interp.Config{Backend: be}) },
			"raw":      func() (*interp.Outcome, error) { return u.RunRaw(interp.PolicyNone, interp.Config{Backend: be}) },
			"purify":   func() (*interp.Outcome, error) { return u.RunRaw(interp.PolicyPurify, interp.Config{Backend: be}) },
			"valgrind": func() (*interp.Outcome, error) { return u.RunRaw(interp.PolicyValgrind, interp.Config{Backend: be}) },
		}
		for mode, run := range runs {
			out, err := run()
			if err != nil {
				t.Fatalf("%s/%s: %v", be, mode, err)
			}
			if out.Trap == nil || out.Trap.Kind != "out-of-memory" {
				t.Fatalf("%s/%s: trap = %v, want out-of-memory", be, mode, out.Trap)
			}
			if !strings.Contains(out.Trap.Pos, ":5:") {
				t.Errorf("%s/%s: trap at %q, want the malloc on line 5", be, mode, out.Trap.Pos)
			}
		}
	}
}

// calloc's element count times element size is taken in 64 bits: a
// product past 4 GiB is malloc's out-of-memory trap in every mode, not a
// block of the wrapped (here 64 KiB) size.
func TestCallocOverflowTraps(t *testing.T) {
	u := buildOrDie(t, `
void *calloc(unsigned int n, unsigned int size);
int main(void) {
    char *a = (char *)calloc(4, 4);
    char *p = (char *)calloc(65536u, 65537u);
    p[65536] = 1;
    return a[0];
}
`)
	for _, be := range backends {
		runs := map[string]func() (*interp.Outcome, error){
			"cured":    func() (*interp.Outcome, error) { return u.RunCured(interp.Config{Backend: be}) },
			"raw":      func() (*interp.Outcome, error) { return u.RunRaw(interp.PolicyNone, interp.Config{Backend: be}) },
			"purify":   func() (*interp.Outcome, error) { return u.RunRaw(interp.PolicyPurify, interp.Config{Backend: be}) },
			"valgrind": func() (*interp.Outcome, error) { return u.RunRaw(interp.PolicyValgrind, interp.Config{Backend: be}) },
		}
		for mode, run := range runs {
			out, err := run()
			if err != nil {
				t.Fatalf("%s/%s: %v", be, mode, err)
			}
			if out.Trap == nil || out.Trap.Kind != "out-of-memory" {
				t.Fatalf("%s/%s: trap = %v, want out-of-memory", be, mode, out.Trap)
			}
			if !strings.Contains(out.Trap.Pos, ":5:") {
				t.Errorf("%s/%s: trap at %q, want the calloc on line 5", be, mode, out.Trap.Pos)
			}
		}
	}
}

// A stack that does not fit the address space is an out-of-memory trap
// reported by Run, not a panic out of New.
func TestStackOverflowingAddressSpaceTraps(t *testing.T) {
	u := buildOrDie(t, `int main(void) { return 0; }`)
	for _, be := range backends {
		out, err := u.RunCured(interp.Config{Backend: be, StackSize: 1<<32 - 64})
		if err != nil {
			t.Fatalf("%s: %v", be, err)
		}
		if out.Trap == nil || out.Trap.Kind != "out-of-memory" {
			t.Fatalf("%s: trap = %v, want out-of-memory", be, out.Trap)
		}
	}
}

func TestMachineSingleUse(t *testing.T) {
	u := buildOrDie(t, `int main(void) { return 7; }`)
	for _, be := range backends {
		m := interp.New(u.Raw, interp.Config{Backend: be})
		out, err := m.Run()
		if err != nil || out.ExitCode != 7 {
			t.Fatalf("%s: first Run = %+v, %v", be, out, err)
		}
		if out, err := m.Run(); err == nil {
			t.Fatalf("%s: second Run = %+v, want an error", be, out)
		}
	}
}

// dirtySrc fills its stack, a heap block and the allocation slack past the
// block with a pattern (raw mode lets it write out of bounds).
const dirtySrc = `
void *malloc(unsigned int n);
void fill(char *p, int n) { int i; for (i = 0; i < n; i++) p[i] = (char)0xAB; }
int deep(int d) {
    char buf[2048];
    fill(buf, 2048);
    if (d > 0) return deep(d - 1) + buf[7];
    return buf[3];
}
int main(void) {
    char *h = (char *)malloc(4096);
    fill(h, 4096 + 256);
    return deep(16) & 1;
}
`

// readerSrc reads an uninitialised local array, the unused stack above its
// own frame, a fresh heap block and the slack past it, and prints how many
// of those bytes are nonzero.
const readerSrc = `
int printf(char *fmt, ...);
void *malloc(unsigned int n);
int count(char *p, int n) { int i, c = 0; for (i = 0; i < n; i++) c += p[i] != 0; return c; }
int uninit(void) { char buf[1024]; return count(buf, 1024); }
int main(void) {
    char probe[8];
    char *h = (char *)malloc(64);
    int s = 0, i;
    for (i = 0; i < 24000; i++) s += probe[i] != 0;
    printf("%d %d %d %d\n", uninit(), s, count(h, 64), count(h + 64, 256));
    return 0;
}
`

// freshProcessArg marks the re-executed test binary: the isolation check
// needs reference runs made on arenas no earlier run has touched.
const freshProcessArg = "arena-isolation-fresh-process"

// TestArenaIsolation runs the reader in raw mode on recycled arenas after
// dirty runs, concurrently, and demands that every Outcome DeepEqual the
// reader's first run in a fresh process. The check itself runs in a child
// process, where the reference machines are the first ones built and so
// cannot have been handed a recycled arena.
func TestArenaIsolation(t *testing.T) {
	if flag.Arg(0) != freshProcessArg {
		cmd := exec.Command(os.Args[0], "-test.run=^TestArenaIsolation$", "-test.count=1", "-test.v", freshProcessArg)
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), "--- PASS: TestArenaIsolation") {
			t.Fatalf("fresh-process isolation check failed (%v):\n%s", err, out)
		}
		return
	}

	reader := buildOrDie(t, readerSrc)
	dirty := buildOrDie(t, dirtySrc)
	// Build every reference machine before running any, so each takes a
	// newly made arena.
	refs := make([]*interp.Machine, len(backends))
	for i, be := range backends {
		refs[i] = interp.New(reader.Raw, interp.Config{Backend: be})
	}
	fresh := make([]*interp.Outcome, len(backends))
	for i, m := range refs {
		out, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		var uninit, stack, heap, slack int
		if _, err := fmt.Sscanf(out.Stdout, "%d %d %d %d", &uninit, &stack, &heap, &slack); err != nil || out.Trap != nil || uninit+heap+slack != 0 {
			t.Fatalf("%s: fresh reader = %q (trap %v), want zero uninitialised, heap and slack bytes", backends[i], out.Stdout, out.Trap)
		}
		fresh[i] = out
	}

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers) // each worker sends at most once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, be := range backends {
					d, err := dirty.RunRaw(interp.PolicyNone, interp.Config{Backend: backends[(w+r)%len(backends)]})
					if err != nil {
						errs <- err
						return
					}
					if d.Trap != nil {
						errs <- fmt.Errorf("dirty run trapped: %v", d.Trap)
						return
					}
					out, err := interp.New(reader.Raw, interp.Config{Backend: be}).Run()
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(out, fresh[i]) {
						errs <- fmt.Errorf("%s reader on a recycled arena: stdout %q, want the fresh run's %q (outcomes differ)", be, out.Stdout, fresh[i].Stdout)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// heapAllocBytes reads the cumulative bytes allocated on the Go heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestMachineSetupAllocGuard catches a return to per-run arena allocation:
// an arena made per run holds at least the 1 MiB default stack, far above
// the limit, while a recycled one costs a tiny program a few KB.
func TestMachineSetupAllocGuard(t *testing.T) {
	u := buildOrDie(t, `int main(void) { int a[4]; a[1] = 2; return a[1]; }`)
	run := func() {
		out, err := u.RunCured(interp.Config{Backend: interp.BackendVM})
		if err != nil || out.Trap != nil || out.ExitCode != 2 {
			t.Fatalf("run = %+v, %v", out, err)
		}
	}
	run() // warm the compiled module and the arena free list
	const cycles, limit = 50, 256 << 10
	before := heapAllocBytes()
	for i := 0; i < cycles; i++ {
		run()
	}
	per := (heapAllocBytes() - before) / cycles
	if per > limit {
		t.Fatalf("machine setup+run allocates %d bytes per cycle, want <= %d", per, limit)
	}
	t.Logf("machine setup+run: %d bytes per cycle", per)
}

// BenchmarkMachineSetup times building and running an empty program on
// the VM, so it is almost all machine setup.
func BenchmarkMachineSetup(b *testing.B) {
	u, err := core.Build("setup.c", `int main(void) { return 0; }`, infer.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := u.RunRaw(interp.PolicyNone, interp.Config{Backend: interp.BackendVM}); err != nil {
			b.Fatal(err)
		}
	}
}

// A wild load from near the top of the address space wraps addr+size in
// 32 bits. Purify and Valgrind mode must report it once as a red-zone
// access and then end in the same segv trap as raw mode, without sizing
// the shadow memory by the unmapped address or panicking out of Run.
func TestShadowWildLoadTraps(t *testing.T) {
	u := buildOrDie(t, `
int main(void) {
    int *p = (int *)0xfffffffe;
    return *p;
}
`)
	for _, be := range backends {
		raw, err := u.RunRaw(interp.PolicyNone, interp.Config{Backend: be})
		if err != nil {
			t.Fatalf("%s/raw: %v", be, err)
		}
		if raw.Trap == nil || raw.Trap.Kind != "segv" {
			t.Fatalf("%s/raw: trap = %v, want segv", be, raw.Trap)
		}
		for _, policy := range []interp.Policy{interp.PolicyPurify, interp.PolicyValgrind} {
			out, err := u.RunRaw(policy, interp.Config{Backend: be})
			if err != nil {
				t.Fatalf("%s/%s: %v", be, policy, err)
			}
			if out.Trap == nil || out.Trap.Kind != raw.Trap.Kind || out.Trap.Msg != raw.Trap.Msg || out.Trap.Pos != raw.Trap.Pos {
				t.Errorf("%s/%s: trap = %v, want raw mode's %v", be, policy, out.Trap, raw.Trap)
			}
			if len(out.ToolReports) != 1 || !strings.Contains(out.ToolReports[0], "red zone") {
				t.Errorf("%s/%s: tool reports %q, want one red-zone report", be, policy, out.ToolReports)
			}
		}
	}
}
