package storebuf

import (
	"testing"

	"mtvp/internal/mem"
)

// TestPartialWidthForwarding is the table-driven sub-word forwarding matrix:
// stores and loads of every width and offset combination, layered across an
// overlay over initialised flat memory, must splice bytes exactly.
func TestPartialWidthForwarding(t *testing.T) {
	const base = 0x1000
	cases := []struct {
		name   string
		stores []struct {
			addr uint64
			size int
			val  uint64
		}
		loadAddr uint64
		loadSize int
		want     uint64
	}{
		{
			name: "full-width-hit",
			stores: []struct {
				addr uint64
				size int
				val  uint64
			}{{base, 8, 0x1122334455667788}},
			loadAddr: base, loadSize: 8, want: 0x1122334455667788,
		},
		{
			name: "byte-from-middle-of-doubleword",
			stores: []struct {
				addr uint64
				size int
				val  uint64
			}{{base, 8, 0x1122334455667788}},
			loadAddr: base + 3, loadSize: 1, want: 0x55,
		},
		{
			name: "half-from-top-of-doubleword",
			stores: []struct {
				addr uint64
				size int
				val  uint64
			}{{base, 8, 0x1122334455667788}},
			loadAddr: base + 6, loadSize: 2, want: 0x1122,
		},
		{
			name: "word-from-bottom-of-doubleword",
			stores: []struct {
				addr uint64
				size int
				val  uint64
			}{{base, 8, 0x1122334455667788}},
			loadAddr: base, loadSize: 4, want: 0x55667788,
		},
		{
			name: "subword-overwrite-layers",
			stores: []struct {
				addr uint64
				size int
				val  uint64
			}{
				{base, 8, 0x1111111111111111},
				{base + 2, 2, 0xabcd},
				{base + 3, 1, 0xef},
			},
			loadAddr: base, loadSize: 8, want: 0x11111111efcd1111,
		},
		{
			name: "load-spans-store-and-memory",
			stores: []struct {
				addr uint64
				size int
				val  uint64
			}{{base + 4, 4, 0xdeadbeef}},
			loadAddr: base, loadSize: 8, want: 0xdeadbeef_a0a0a0a0,
		},
		{
			name: "load-below-store-untouched",
			stores: []struct {
				addr uint64
				size int
				val  uint64
			}{{base + 8, 8, ^uint64(0)}},
			loadAddr: base, loadSize: 8, want: 0xa0a0a0a0a0a0a0a0,
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := mem.New()
			for a := uint64(base) - 16; a < base+32; a++ {
				m.Store(a, 1, 0xa0) // recognisable background
			}
			o := New(m)
			for _, s := range tc.stores {
				o.Store(s.addr, s.size, s.val)
			}
			if got := o.Load(tc.loadAddr, tc.loadSize); got != tc.want {
				t.Fatalf("load [%#x +%d] = %#x, want %#x", tc.loadAddr, tc.loadSize, got, tc.want)
			}
		})
	}
}

// TestSameCycleStoreLoad models the same-cycle store→load pair: the
// functional overlay must make a store visible to a program-order-later load
// immediately, with no settling delay, including when only part of the load
// is supplied by the store.
func TestSameCycleStoreLoad(t *testing.T) {
	m := mem.New()
	m.Store(0x2000, 8, 0x0102030405060708)
	o := New(m)

	o.Store(0x2000, 4, 0xcafebabe)
	if got := o.Load(0x2000, 4); got != 0xcafebabe {
		t.Fatalf("same-cycle forward = %#x, want 0xcafebabe", got)
	}
	// The upper half still comes from memory in the same access.
	if got := o.Load(0x2000, 8); got != 0x01020304cafebabe {
		t.Fatalf("merged same-cycle load = %#x, want 0x01020304cafebabe", got)
	}
	// Immediate read-after-write of the freshest value wins over older data.
	o.Store(0x2000, 4, 0x11223344)
	if got := o.Load(0x2000, 8); got != 0x0102030411223344 {
		t.Fatalf("second same-cycle load = %#x, want 0x0102030411223344", got)
	}
}

// TestSpeculativeStoreIsolation walks the spawn lifecycle: before the parent
// retires, a speculative child's stores are visible only to the
// child and its descendants, never to the parent or flat memory; after
// confirmation they become visible; after a kill they vanish.
func TestSpeculativeStoreIsolation(t *testing.T) {
	const addr = 0x3000
	m := mem.New()
	m.Store(addr, 8, 0x5555)

	root := New(m)
	root.Store(addr+8, 8, 0x7777) // pre-fork parent store

	// Spawn: parent's overlay freezes, parent continues on tops[0], the
	// speculative child on tops[1].
	tops := root.Fork(nil, 2)
	parent, child := tops[0], tops[1]

	child.Store(addr, 8, 0xbadbad)
	if got := parent.Load(addr, 8); got != 0x5555 {
		t.Fatalf("child store leaked to parent: %#x", got)
	}
	if got := m.Load(addr, 8); got != 0x5555 {
		t.Fatalf("child store leaked to flat memory: %#x", got)
	}
	if got := child.Load(addr, 8); got != 0xbadbad {
		t.Fatalf("child cannot see its own store: %#x", got)
	}
	// Both sides still see the pre-fork parent store through the chain.
	if got := child.Load(addr+8, 8); got != 0x7777 {
		t.Fatalf("child lost pre-fork parent store: %#x", got)
	}
	if got := parent.Load(addr+8, 8); got != 0x7777 {
		t.Fatalf("parent lost pre-fork store: %#x", got)
	}

	// A grandchild forked from the child sees the child's speculation.
	gtops := child.Fork(nil, 2)
	childCont, grand := gtops[0], gtops[1]
	if got := grand.Load(addr, 8); got != 0xbadbad {
		t.Fatalf("grandchild cannot see ancestor speculation: %#x", got)
	}

	// Kill the grandchild: its overlay releases without touching state.
	grand.Release()
	if got := childCont.Load(addr, 8); got != 0xbadbad {
		t.Fatalf("kill of grandchild corrupted child view: %#x", got)
	}

	// Confirm: the parent's path dies, and the child, now the only live
	// context, settles its whole chain into memory.
	parent.Release()
	childCont.Settle()
	if got := childCont.Load(addr, 8); got != 0xbadbad {
		t.Fatalf("settle changed the surviving view: %#x", got)
	}
	if got := m.Load(addr, 8); got != 0xbadbad {
		t.Fatalf("confirmed store did not reach memory: %#x", got)
	}
	if got := m.Load(addr+8, 8); got != 0x7777 {
		t.Fatalf("pre-fork store lost on settle: %#x", got)
	}
}

// TestKilledChildStoresDiscarded is the mirror image: the parent survives,
// the child dies, and the child's speculative stores must never reach any
// surviving view or memory.
func TestKilledChildStoresDiscarded(t *testing.T) {
	const addr = 0x4000
	m := mem.New()
	m.Store(addr, 8, 0x1234)

	root := New(m)
	tops := root.Fork(nil, 2)
	parent, child := tops[0], tops[1]
	child.Store(addr, 8, 0xdead)
	child.Release() // misprediction: child killed

	parent.Settle()
	if got := parent.Load(addr, 8); got != 0x1234 {
		t.Fatalf("killed child's store visible to parent: %#x", got)
	}
	if got := m.Load(addr, 8); got != 0x1234 {
		t.Fatalf("killed child's store reached memory: %#x", got)
	}
}

// TestFrozenStorePanics pins the containment guard: writing through a frozen
// (forked-away) overlay is a thread-management bug and must panic rather
// than silently corrupt a shared view.
func TestFrozenStorePanics(t *testing.T) {
	root := New(mem.New())
	root.Fork(nil, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("store to frozen overlay did not panic")
		}
	}()
	root.Store(0x100, 8, 1)
}
