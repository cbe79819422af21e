package interp

import (
	"fmt"
	"slices"
)

// shadowMem emulates the cost model and detection envelope of binary
// instrumentation tools:
//
//   - Purify keeps 2 status bits per byte of allocated storage and places
//     red zones around heap blocks. It detects heap overruns into
//     unallocated space and use-after-free, but misses overruns of
//     stack-allocated arrays and "pointer arithmetic between two separate
//     valid regions" (Jones & Kelly's observation, cited in §5).
//   - Valgrind keeps 9 status bits per byte and JIT-instruments every
//     access, costing roughly an order of magnitude more than Purify's
//     link-time approach per access in our calibration.
//
// Detection is reported (like the real tools print diagnostics), not
// trapped: the program keeps running.
type shadowMem struct {
	policy Policy
	// bits is the shadow state, lazily grown; value semantics are opaque
	// (the work done on them is what matters for the cost model).
	bits []uint8
	// workPerByte calibrates per-byte instrumentation cost.
	workPerByte int
	sink        uint64
	reports     []string
}

// Per-byte instrumentation work, calibrated so that whole-program slowdowns
// land in the published ranges relative to our interpreter's base cost
// (paper: Purify 25-100x, Valgrind 9-130x; Valgrind's JIT costs more per
// access than Purify's link-time instrumentation on these workloads).
const (
	purifyWorkPerByte   = 350
	valgrindWorkPerByte = 1000
)

func newShadowMem(p Policy) *shadowMem {
	s := &shadowMem{policy: p}
	if p == PolicyPurify {
		s.workPerByte = purifyWorkPerByte
	} else {
		s.workPerByte = valgrindWorkPerByte
	}
	return s
}

func (s *shadowMem) report(format string, args ...any) {
	if len(s.reports) < 100 {
		s.reports = append(s.reports, fmt.Sprintf(format, args...))
	}
}

// churn performs the per-byte shadow bookkeeping work for the bytes of
// [addr, addr+size) that lie inside the arena's mapped length. The rest of
// a wild access has no shadow: the access itself traps (segv) after the
// red-zone report, and an unmapped address must not size the shadow.
func (s *shadowMem) churn(addr, size uint32, mapped int) {
	end := min(uint64(addr)+uint64(size), uint64(mapped))
	if uint64(addr) >= end {
		return
	}
	if uint64(len(s.bits)) < end {
		s.bits = slices.Grow(s.bits, int(end)-len(s.bits))[:end]
	}
	for i := uint64(addr); i < end; i++ {
		v := uint64(s.bits[i])
		for w := 0; w < s.workPerByte; w++ {
			v = v*2862933555777941757 + 3037000493
		}
		s.bits[i] = uint8(v>>56) | 1
		s.sink += v
	}
}

// Simulated-cycle cost per shadowed byte (see Counters.Cost), calibrated
// against the published whole-program slowdowns.
func (s *shadowMem) cost(size uint32) uint64 {
	if s.policy == PolicyPurify {
		return 8 * uint64(size)
	}
	return 22 * uint64(size)
}

func (s *shadowMem) onLoad(m *Machine, addr, size uint32) {
	m.addCost(s.cost(size))
	s.churn(addr, size, m.mem.Size())
	s.checkAccess(m, addr, size, "read")
}

func (s *shadowMem) onStore(m *Machine, addr, size uint32) {
	m.addCost(s.cost(size))
	s.churn(addr, size, m.mem.Size())
	s.checkAccess(m, addr, size, "write")
}

// checkAccess reproduces the tools' detection envelope: an access that does
// not land in any block (heap red zone / unmapped) or lands in a freed
// block is reported. Accesses that stay inside some block — including a
// neighbouring one reached by overflow, or a stack frame — pass silently.
func (s *shadowMem) checkAccess(m *Machine, addr, size uint32, what string) {
	blk := m.mem.BlockAt(addr)
	if blk == nil {
		s.report("%s: invalid %s of %d bytes at 0x%x (red zone)", s.policy, what, size, addr)
		return
	}
	if blk.Dead {
		s.report("%s: %s of freed block %q at 0x%x", s.policy, what, blk.Name, addr)
	}
}
