package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocAndBlockAt(t *testing.T) {
	m := New()
	a := mustAlloc(t, m, 16, RegHeap, "a")
	b := mustAlloc(t, m, 32, RegGlobal, "b")
	if a.Addr == 0 || b.Addr == 0 {
		t.Fatal("blocks must not start at the null page")
	}
	if a.End() > b.Addr {
		t.Fatal("blocks overlap")
	}
	if got := m.BlockAt(a.Addr + 7); got != a {
		t.Errorf("BlockAt inside a = %v", got)
	}
	if got := m.BlockAt(b.Addr); got != b {
		t.Errorf("BlockAt start of b = %v", got)
	}
	if got := m.BlockAt(3); got == nil || got.Region != RegNull {
		t.Errorf("BlockAt null page = %v", got)
	}
}

func TestNullPageTraps(t *testing.T) {
	m := New()
	if _, err := m.ReadInt(0, 4, true); err == nil {
		t.Error("read of address 0 must trap")
	}
	if err := m.WriteInt(8, 4, 1); err == nil {
		t.Error("write into the null page must trap")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, 64, RegHeap, "rt")
	cases := []struct {
		size   int
		signed bool
		v      int64
	}{
		{1, true, -5}, {1, false, 250}, {2, true, -30000}, {2, false, 60000},
		{4, true, -2000000000}, {4, false, 4000000000}, {8, true, -1 << 60},
	}
	for _, c := range cases {
		if err := m.WriteInt(b.Addr, c.size, c.v); err != nil {
			t.Fatal(err)
		}
		got, err := m.ReadInt(b.Addr, c.size, c.signed)
		if err != nil {
			t.Fatal(err)
		}
		want := c.v
		switch c.size {
		case 1:
			if c.signed {
				want = int64(int8(c.v))
			} else {
				want = int64(uint8(c.v))
			}
		case 2:
			if c.signed {
				want = int64(int16(c.v))
			} else {
				want = int64(uint16(c.v))
			}
		case 4:
			if c.signed {
				want = int64(int32(c.v))
			} else {
				want = int64(uint32(c.v))
			}
		}
		if got != want {
			t.Errorf("size %d signed %v: wrote %d, read %d, want %d", c.size, c.signed, c.v, got, want)
		}
	}
	if err := m.WriteFloat(b.Addr, 8, 3.25); err != nil {
		t.Fatal(err)
	}
	if f, _ := m.ReadFloat(b.Addr, 8); f != 3.25 {
		t.Errorf("double round trip = %g", f)
	}
	if err := m.WriteFloat(b.Addr, 4, 1.5); err != nil {
		t.Fatal(err)
	}
	if f, _ := m.ReadFloat(b.Addr, 4); f != 1.5 {
		t.Errorf("float round trip = %g", f)
	}
}

func TestFreeSemantics(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, 8, RegHeap, "f")
	g := mustAlloc(t, m, 8, RegGlobal, "g")
	if err := m.Free(b.Addr); err != nil {
		t.Fatalf("first free: %v", err)
	}
	if err := m.Free(b.Addr); err == nil {
		t.Error("double free must trap")
	}
	if err := m.Free(g.Addr); err == nil {
		t.Error("free of a global must trap")
	}
	if err := m.Free(b.Addr + 4); err == nil {
		t.Error("free of an interior pointer must trap")
	}
}

func TestOverflowCorruptsSilently(t *testing.T) {
	m := New()
	a := mustAlloc(t, m, 8, RegGlobal, "a")
	b := mustAlloc(t, m, 8, RegGlobal, "b")
	if err := m.WriteInt(b.Addr, 4, 1234); err != nil {
		t.Fatal(err)
	}
	// Write past a's end far enough to hit b.
	off := b.Addr - a.Addr
	if err := m.WriteInt(a.Addr+off, 4, 9999); err != nil {
		t.Fatalf("in-arena overflow must not trap: %v", err)
	}
	v, _ := m.ReadInt(b.Addr, 4, true)
	if v != 9999 {
		t.Errorf("b = %d, want corruption to 9999", v)
	}
}

func TestStackPushPop(t *testing.T) {
	m := New()
	if err := m.InitStack(4096); err != nil {
		t.Fatal(err)
	}
	f1, err := m.PushFrame(64, "f1")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := m.PushFrame(64, "f2")
	if err != nil {
		t.Fatal(err)
	}
	if !m.InStack(f1.Addr) || !m.InStack(f2.Addr) {
		t.Error("frames must be in the stack region")
	}
	if got := m.BlockAt(f2.Addr + 8); got != f2 {
		t.Errorf("BlockAt inner frame = %v", got)
	}
	m.PopFrame()
	if got := m.BlockAt(f2.Addr + 8); got != nil {
		t.Errorf("popped frame still found: %v", got)
	}
	// Memory is reused by the next push.
	f3, err := m.PushFrame(32, "f3")
	if err != nil {
		t.Fatal(err)
	}
	if f3.Addr != f2.Addr {
		t.Errorf("frame not reused: f3 at 0x%x, f2 was 0x%x", f3.Addr, f2.Addr)
	}
}

func TestStackOverflow(t *testing.T) {
	m := New()
	if err := m.InitStack(256); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PushFrame(128, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PushFrame(200, "b"); err == nil {
		t.Error("expected stack overflow")
	}
}

func TestWildTags(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, 32, RegHeap, "w")
	if b.TagAt(b.Addr) != 0 {
		t.Error("non-wild block has tags")
	}
	b.MakeWild()
	b.SetTag(b.Addr+8, 1)
	if b.TagAt(b.Addr+8) != 1 || b.TagAt(b.Addr+11) != 1 {
		t.Error("tag covers its whole word")
	}
	if b.TagAt(b.Addr+12) != 0 {
		t.Error("neighbouring word tagged")
	}
	b.SetTag(b.Addr+8, 0)
	if b.TagAt(b.Addr+8) != 0 {
		t.Error("tag not cleared")
	}
}

func TestCStringAndBytes(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, 16, RegGlobal, "s")
	for i, c := range []byte("hi!") {
		if err := m.WriteInt(b.Addr+uint32(i), 1, int64(c)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := m.CString(b.Addr, 16)
	if err != nil || s != "hi!" {
		t.Errorf("CString = %q, %v", s, err)
	}
	bs, err := m.Bytes(b.Addr, 3)
	if err != nil || string(bs) != "hi!" {
		t.Errorf("Bytes = %q, %v", bs, err)
	}
}

func TestCopyOverlap(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, 16, RegHeap, "c")
	for i := 0; i < 8; i++ {
		if err := m.WriteInt(b.Addr+uint32(i), 1, int64('a'+i)); err != nil {
			t.Fatal(err)
		}
	}
	// memmove semantics: overlapping copy forward.
	if err := m.Copy(b.Addr+2, b.Addr, 8); err != nil {
		t.Fatal(err)
	}
	s, _ := m.CString(b.Addr, 16)
	if s[2:10] != "abcdefgh" {
		t.Errorf("after overlap copy: %q", s)
	}
}

// Property: Alloc never produces overlapping live blocks, and BlockAt
// always maps interior addresses back to their block.
func TestAllocProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := New()
		var blocks []*Block
		for _, s := range sizes {
			blocks = append(blocks, mustAlloc(t, m, uint32(s%100)+1, RegHeap, "p"))
		}
		for i, b := range blocks {
			for j, c := range blocks {
				if i != j && b.Addr < c.End() && c.Addr < b.End() {
					return false
				}
			}
			if m.BlockAt(b.Addr) != b || m.BlockAt(b.End()-1) != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func mustAlloc(t *testing.T, m *Memory, size uint32, region Region, name string) *Block {
	t.Helper()
	b, err := m.Alloc(size, region, name)
	if err != nil {
		t.Fatal(err)
	}
	if b.End() <= b.Addr {
		t.Fatalf("block %q: End 0x%x not above Addr 0x%x", name, b.End(), b.Addr)
	}
	return b
}

// An allocation whose end would wrap the 32-bit address space is an
// out-of-memory trap that leaves the allocator untouched. Carved anyway, the
// block would end below its start and brk would move backwards, so the next
// block would overlap live ones.
func TestAllocOverflowTraps(t *testing.T) {
	m := New()
	defer m.Release()
	a := mustAlloc(t, m, 64, RegHeap, "a")
	for _, size := range []uint32{4294967200, 1<<32 - 1, 1<<32 - allocSlack - a.End()} {
		b, err := m.Alloc(size, RegHeap, "huge")
		tr, ok := err.(*Trap)
		if !ok || tr.Kind != "out-of-memory" || b != nil {
			t.Fatalf("Alloc(%d) = %v, %v; want out-of-memory trap", size, b, err)
		}
	}
	c := mustAlloc(t, m, 16, RegHeap, "c")
	if c.Addr < a.End() {
		t.Errorf("block after the failed alloc at 0x%x overlaps a [0x%x,0x%x)", c.Addr, a.Addr, a.End())
	}
	for _, b := range m.Blocks() {
		if b.End() <= b.Addr {
			t.Errorf("block %q: End 0x%x not above Addr 0x%x", b.Name, b.End(), b.Addr)
		}
	}
}

func TestInitStackOverflowTraps(t *testing.T) {
	m := New()
	defer m.Release()
	err := m.InitStack(1<<32 - 16)
	if tr, ok := err.(*Trap); !ok || tr.Kind != "out-of-memory" {
		t.Fatalf("InitStack = %v, want out-of-memory trap", err)
	}
	if m.InStack(nullPage + 8) {
		t.Error("failed InitStack left a stack region behind")
	}
}

// A frame too large for the stack is a stack overflow, even when its end
// would wrap the address space.
func TestPushFrameHugeFrame(t *testing.T) {
	m := New()
	defer m.Release()
	if err := m.InitStack(4096); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PushFrame(1<<32-8, "huge"); err == nil {
		t.Fatal("expected stack overflow")
	}
}

// Growth maps zeroed bytes, and a released arena comes back zeroed over its
// whole capacity, so a recycled arena reads exactly like a fresh one.
func TestArenaRecycledZeroed(t *testing.T) {
	m := New()
	if err := m.InitStack(1 << 16); err != nil {
		t.Fatal(err)
	}
	b := mustAlloc(t, m, 3000, RegHeap, "dirty")
	for _, x := range m.arena {
		if x != 0 {
			t.Fatal("extend exposed a nonzero byte")
		}
	}
	// Scribble over the block and past it into the slack.
	if err := m.SetBytes(b.Addr, 0xAB, b.Size+allocSlack); err != nil {
		t.Fatal(err)
	}
	used := len(m.arena)
	m.Release()
	if m.Size() != 0 {
		t.Errorf("released memory still maps %d bytes", m.Size())
	}
	if _, err := m.ReadInt(b.Addr, 4, false); err == nil {
		t.Error("read after Release must trap")
	}
	m.Release() // a second Release is a no-op

	m2 := New()
	defer m2.Release()
	if cap(m2.arena) < used {
		t.Fatalf("arena not recycled: cap %d < previous length %d", cap(m2.arena), used)
	}
	for i, x := range m2.arena[:cap(m2.arena)] {
		if x != 0 {
			t.Fatalf("recycled arena byte %d = %#x, want 0", i, x)
		}
	}
}

func TestArenaPoolDropsOversized(t *testing.T) {
	m := New()
	b := mustAlloc(t, m, maxPooledArena+1, RegHeap, "big")
	if b.End() > uint32(m.Size()) {
		t.Fatalf("block [0x%x,0x%x) not mapped (arena %d bytes)", b.Addr, b.End(), m.Size())
	}
	m.Release()
	arenaPool.Lock()
	defer arenaPool.Unlock()
	for _, a := range arenaPool.free {
		if cap(a) > maxPooledArena {
			t.Fatalf("free list kept a %d-byte arena (ceiling %d)", cap(a), maxPooledArena)
		}
	}
}
