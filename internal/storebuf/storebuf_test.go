package storebuf

import (
	"testing"
	"testing/quick"

	"mtvp/internal/isa"
	"mtvp/internal/mem"
)

func TestOverlayShadowsParent(t *testing.T) {
	m := mem.New()
	m.Store(0x100, 8, 1)
	o := New(m)
	if got := o.Load(0x100, 8); got != 1 {
		t.Errorf("fall-through read = %d, want 1", got)
	}
	o.Store(0x100, 8, 2)
	if got := o.Load(0x100, 8); got != 2 {
		t.Errorf("shadowed read = %d, want 2", got)
	}
	if got := m.Load(0x100, 8); got != 1 {
		t.Errorf("overlay leaked to memory: %d", got)
	}
}

func TestByteGranularMerge(t *testing.T) {
	m := mem.New()
	m.Store(0x200, 8, 0xAAAAAAAAAAAAAAAA)
	o := New(m)
	o.Store(0x200, 1, 0xBB) // overwrite only the low byte
	if got := o.Load(0x200, 8); got != 0xAAAAAAAAAAAAAABB {
		t.Errorf("merged read = %#x", got)
	}
}

func TestForkSemantics(t *testing.T) {
	m := mem.New()
	root := New(m)
	root.Store(0x10, 8, 1)

	tops := root.Fork(nil, 2)
	parent, child := tops[0], tops[1]
	if !root.Frozen() {
		t.Error("fork did not freeze the forked overlay")
	}

	parent.Store(0x10, 8, 2) // parent's post-fork write
	child.Store(0x18, 8, 3)  // child's write

	if got := child.Load(0x10, 8); got != 1 {
		t.Errorf("child sees parent's post-fork write: %d", got)
	}
	if got := parent.Load(0x18, 8); got != 0 {
		t.Errorf("parent sees child's write: %d", got)
	}
	if got := child.Load(0x18, 8); got != 3 {
		t.Errorf("child lost its own write: %d", got)
	}
}

func TestStoreToFrozenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("store to frozen overlay did not panic")
		}
	}()
	o := New(mem.New())
	o.Fork(nil, 1)
	o.Store(0, 1, 1)
}

func TestReleaseUnwindsChain(t *testing.T) {
	m := mem.New()
	root := New(m)
	tops := root.Fork(nil, 2)
	if root.refs != 2 {
		t.Fatalf("fork refs = %d, want 2", root.refs)
	}
	tops[1].Release() // kill the child path
	if root.refs != 1 {
		t.Errorf("after child release, refs = %d, want 1", root.refs)
	}
	tops[0].Release()
	if root.refs != 0 {
		t.Errorf("after both releases, refs = %d, want 0", root.refs)
	}
}

func TestSettleSplicesSingleRefAncestors(t *testing.T) {
	m := mem.New()
	root := New(m)
	root.Store(0x10, 8, 1)
	root.Store(0x20, 8, 2)
	tops := root.Fork(nil, 2)
	survivor, dead := tops[0], tops[1]
	survivor.Store(0x10, 8, 9) // shadows root's value

	dead.Release()
	survivor.Settle()
	if survivor.parent != m {
		t.Fatal("settle did not splice out the frozen ancestor")
	}
	if len(survivor.data) != 0 {
		t.Errorf("sole survivor kept %d buffered words", len(survivor.data))
	}
	if got := m.Load(0x10, 8); got != 9 {
		t.Errorf("memory holds %d, want the newest store 9", got)
	}
	if got := m.Load(0x20, 8); got != 2 {
		t.Errorf("ancestor value did not reach memory: %d", got)
	}
}

func TestSettleStopsAtSharedAncestor(t *testing.T) {
	m := mem.New()
	root := New(m)
	root.Store(0x10, 8, 1)
	tops := root.Fork(nil, 2) // both referents alive
	tops[0].Store(0x18, 8, 2)
	tops[0].Settle()
	if tops[0].parent != root {
		t.Error("settle spliced out an ancestor another path still uses")
	}
	if got := tops[0].Load(0x18, 8); got != 2 {
		t.Errorf("overlay above the shared ancestor reads %d at 0x18, want its store 2", got)
	}
	if got := m.Load(0x18, 8); got != 0 {
		t.Errorf("store above the shared ancestor reached memory: %d", got)
	}
	if got := m.Load(0x10, 8); got != 0 {
		t.Errorf("shared ancestor's store reached memory: %d", got)
	}
}

// sameView reports whether a and b return the same value for a load of
// every size at every address in [lo, hi), so it covers loads that cross a
// word and, where the range spans one, a page.
func sameView(a, b isa.MemAccess, lo, hi uint64) bool {
	for addr := lo; addr < hi; addr++ {
		for _, size := range []int{1, 2, 4, 8} {
			if a.Load(addr, size) != b.Load(addr, size) {
				return false
			}
		}
	}
	return true
}

// Property: a chain of overlays with interleaved stores reads back exactly
// like sequential execution against flat memory, and Settle reproduces the
// flat image. This is invariant 2 of DESIGN.md. The stores and loads
// straddle a page boundary.
func TestChainEquivalenceQuick(t *testing.T) {
	type op struct {
		Addr uint64
		Val  uint64
		Sel  uint8
		Fork bool
	}
	const span = 512
	const base = mem.PageSize - span/2
	f := func(ops []op) bool {
		flat := mem.New() // reference: all stores applied in order
		backing := mem.New()
		top := New(backing) // overlay chain, forked at Fork ops
		for _, o := range ops {
			if o.Fork {
				tops := top.Fork(nil, 2)
				tops[1].Release() // simulate the dead sibling path
				top = tops[0]
			}
			size := []int{1, 2, 4, 8}[o.Sel%4]
			addr := base + o.Addr%span
			flat.Store(addr, size, o.Val)
			top.Store(addr, size, o.Val)
		}
		if !sameView(top, flat, base-8, base+span+8) {
			return false
		}
		top.Settle()
		return backing.Equal(flat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: on any tree of forks, stores and releases, Settle on any live
// top leaves every live view equal to its flat reference, keeps every live
// chain on one bottom overlay, and leaves no frozen single-referent overlay
// on memory. With one survivor, memory itself equals the flat reference.
// The address range straddles a page boundary.
func TestSettleQuick(t *testing.T) {
	type op struct {
		Kind uint8
		Pick uint8
		Addr uint16
		Val  uint64
		Sel  uint8
	}
	const span = 512
	const base = mem.PageSize - span/2
	f := func(ops []op) bool {
		backing := mem.New()
		tops := []*Overlay{New(backing)}
		flats := []*mem.Memory{mem.New()} // flat reference per live top
		settled := func() bool {
			var bottom *Overlay
			for i, top := range tops {
				b, err := top.CheckChain()
				if err != nil || (bottom != nil && b != bottom) || (b.frozen && b.refs == 1) {
					return false
				}
				bottom = b
				if !sameView(top, flats[i], base-8, base+span+8) {
					return false
				}
			}
			return len(tops) > 1 || (len(tops[0].data) == 0 && backing.Equal(flats[0]))
		}
		for _, o := range ops {
			i := int(o.Pick) % len(tops)
			switch o.Kind % 4 {
			case 0:
				size := []int{1, 2, 4, 8}[o.Sel%4]
				addr := base + uint64(o.Addr)%span
				tops[i].Store(addr, size, o.Val)
				flats[i].Store(addr, size, o.Val)
			case 1:
				if len(tops) >= 8 {
					continue
				}
				forked := tops[i].Fork(nil, 2+int(o.Sel%2))
				tops[i] = forked[0]
				for _, c := range forked[1:] {
					tops = append(tops, c)
					flats = append(flats, flats[i].Clone())
				}
			case 2:
				if len(tops) == 1 {
					continue
				}
				tops[i].Release()
				tops = append(tops[:i], tops[i+1:]...)
				flats = append(flats[:i], flats[i+1:]...)
			case 3:
				tops[i].Settle()
				if !settled() {
					return false
				}
			}
		}
		for len(tops) > 1 {
			tops[1].Release()
			tops, flats = append(tops[:1], tops[2:]...), append(flats[:1], flats[2:]...)
		}
		tops[0].Settle()
		return settled()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPoolRecycles pins the overlay free list: an overlay that leaves its
// chain goes back to its pool, by release or by Settle's splice, and comes
// back empty, unfrozen and chained to its new parent. Overlays forked from a
// pooled overlay belong to the same pool.
func TestPoolRecycles(t *testing.T) {
	m := mem.New()
	var p Pool
	root := p.New(m)
	root.Store(0x10, 8, 1)
	tops := root.Fork(nil, 2)
	parent, child := tops[0], tops[1]
	child.Store(0x18, 8, 2)

	child.Release() // the child path dies
	if len(p.free) != 1 || p.free[0] != child {
		t.Fatalf("released child not pooled: free list %v", p.free)
	}
	if _, err := child.CheckChain(); err == nil {
		t.Error("CheckChain accepted a recycled overlay")
	}
	parent.Settle() // root is spliced out: its store reaches memory
	if len(p.free) != 2 || p.free[1] != root {
		t.Fatalf("spliced-out root not pooled: free list %v", p.free)
	}
	if got := m.Load(0x10, 8); got != 1 {
		t.Errorf("settled store = %d, want 1", got)
	}

	again := p.New(parent)
	if again != root {
		t.Fatal("pool did not reuse the last recycled overlay")
	}
	if again.Frozen() || again.Load(0x18, 8) != 0 || again.Load(0x10, 8) != 1 {
		t.Errorf("recycled overlay kept old state: frozen=%v [0x18]=%d [0x10]=%d",
			again.Frozen(), again.Load(0x18, 8), again.Load(0x10, 8))
	}
	if b, err := again.CheckChain(); err == nil {
		t.Errorf("recycled overlay on an unfrozen parent passed CheckChain (bottom %p)", b)
	}
	parent.Fork(nil, 1)
	if b, err := again.CheckChain(); err != nil || b != parent {
		t.Errorf("recycled overlay chain: bottom %p err %v, want bottom %p", b, err, parent)
	}
}

func TestOverlayDoubleFreePanics(t *testing.T) {
	var p Pool
	o := p.New(mem.New())
	o.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("recycling a pooled overlay did not panic")
		}
	}()
	o.recycle()
}
