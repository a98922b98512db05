// Package storebuf implements the speculative store buffering that makes
// threaded value prediction possible: a spawned thread may commit
// instructions, but its stores must stay buffered — invisible to older
// threads, visible to itself and its descendants — until its value
// prediction is confirmed.
//
// The functional mechanism is a copy-on-write overlay chain. Each hardware
// context executes against its own mutable Overlay; spawning a thread
// freezes the parent's overlay and gives both parent and child fresh
// overlays chained to it. A load walks its chain (newest overlay first) down
// to flat memory, which is exactly the paper's "searched by every load ...
// used in preference to the value stored in memory" semantics, generalised
// to the thread tree.
//
// An overlay holds its stores as 8-byte words keyed by aligned address, each
// with a mask of the bytes written. An access inside one word costs one map
// probe per overlay; a load stops at the first overlay that completes its
// bytes and reads whatever no overlay holds from flat memory with one
// aligned word load. Accesses that cross a word boundary split per word.
//
// Stores reach flat memory in one place, Overlay.Settle: once no live
// context can lose a buffered byte, it is written into memory (a whole word
// with one 8-byte store) and the overlay that held it leaves the chain.
//
// Overlays come and go with every spawn and kill, so each one may belong to
// a Pool that recycles it, its word map included, once it leaves every
// chain: its last reference is released or Settle splices it out.
//
// Timing-level capacity (the 128-entry store buffer of §5.3) is accounted
// separately by the pipeline; overlays carry functional state only.
package storebuf

import (
	"fmt"

	"mtvp/internal/isa"
)

// Overlay is one speculative store buffer: a write log over a parent memory
// view, kept per aligned word with a byte-valid mask. It implements
// isa.MemAccess.
type Overlay struct {
	parent isa.MemAccess
	data   map[uint64]word // keyed by 8-byte-aligned address
	frozen bool
	refs   int
	pool   *Pool // where the overlay goes once unreferenced; nil = nowhere
	pooled bool  // on pool's free list (double-free guard)
}

// Pool is a free list of overlays. An overlay made by a pool, and every
// overlay forked from it, returns to the pool when it leaves its chain, and
// the pool's next New reuses it: the word map is cleared, keeping its
// buckets. The zero Pool is empty and ready to use. A Pool is not safe for
// concurrent use.
type Pool struct {
	free []*Overlay
}

// word is the buffered part of one aligned 8-byte word: byte i of val is
// valid where bit i of mask is set.
type word struct {
	val  uint64
	mask uint8
}

// byteBits widens a byte mask to a bit mask: byte i of the result is 0xFF
// where bit i of m is set.
func byteBits(m uint8) uint64 {
	x := uint64(m)
	x = (x | x<<28) & 0x0000000F0000000F
	x = (x | x<<14) & 0x0003000300030003
	x = (x | x<<7) & 0x0101010101010101
	return x * 0xFF
}

// span returns the aligned word holding addr, addr's byte offset in it, and
// how many of the n bytes from addr fit in the word.
func span(addr uint64, n int) (wa uint64, off, k int) {
	off = int(addr & 7)
	return addr - uint64(off), off, min(n, 8-off)
}

// New returns a mutable overlay whose reads fall through to parent and that
// belongs to no pool. If the parent is itself an *Overlay its reference
// count is incremented.
func New(parent isa.MemAccess) *Overlay { return (*Pool)(nil).New(parent) }

// New returns a mutable overlay of the pool whose reads fall through to
// parent, reusing a recycled one when the pool holds any. A nil pool
// allocates an overlay that belongs to no pool.
func (p *Pool) New(parent isa.MemAccess) *Overlay {
	if po, ok := parent.(*Overlay); ok {
		po.refs++
	}
	if p == nil || len(p.free) == 0 {
		return &Overlay{parent: parent, data: make(map[uint64]word), refs: 1, pool: p}
	}
	o := p.free[len(p.free)-1]
	p.free[len(p.free)-1] = nil
	p.free = p.free[:len(p.free)-1]
	clear(o.data)
	o.parent, o.frozen, o.refs, o.pooled = parent, false, 1, false
	return o
}

// recycle returns an overlay that has left every chain to its pool. Its
// contents stay as they were until the pool reuses it.
func (o *Overlay) recycle() {
	if o.pooled {
		panic("storebuf: overlay double-free")
	}
	if o.pool == nil {
		return
	}
	o.pooled = true
	o.pool.free = append(o.pool.free, o)
}

// Frozen reports whether the overlay has been sealed by a fork.
func (o *Overlay) Frozen() bool { return o.frozen }

// Load reads size bytes little-endian, taking each byte from the newest
// overlay in the chain that has written it.
func (o *Overlay) Load(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; {
		wa, off, k := span(addr+uint64(i), size-i)
		need := uint8(1<<k-1) << off
		v |= o.loadWord(wa, need) >> (8 * off) << (8 * i)
		i += k
	}
	return v
}

// loadWord returns the bytes of the word at wa that need selects, each from
// the newest overlay holding it, else from flat memory; other bytes are 0.
func (o *Overlay) loadWord(wa uint64, need uint8) uint64 {
	var v uint64
	for cur := o; ; {
		if w, ok := cur.data[wa]; ok {
			if got := w.mask & need; got != 0 {
				v |= w.val & byteBits(got)
				if need &^= got; need == 0 {
					return v
				}
			}
		}
		p, ok := cur.parent.(*Overlay)
		if !ok {
			return v | cur.parent.Load(wa, 8)&byteBits(need)
		}
		cur = p
	}
}

// Store writes the low size bytes of val. Storing to a frozen overlay is a
// bug in the thread-management logic and panics.
func (o *Overlay) Store(addr uint64, size int, val uint64) {
	if o.frozen {
		panic("storebuf: store to frozen overlay")
	}
	for i := 0; i < size; {
		wa, off, k := span(addr+uint64(i), size-i)
		m := uint8(1<<k-1) << off
		part := val >> (8 * i) << (8 * off)
		if m == 0xFF {
			o.data[wa] = word{val: part, mask: m}
		} else {
			w := o.data[wa]
			bits := byteBits(m)
			o.data[wa] = word{val: w.val&^bits | part&bits, mask: w.mask | m}
		}
		i += k
	}
}

// Fork seals the overlay and appends to dst n fresh overlays chained to it,
// from the overlay's pool: one for the continuing parent thread and one per
// spawned child. The receiver keeps one reference per returned overlay (the
// caller's own reference is released — contexts move to the new tops).
func (o *Overlay) Fork(dst []*Overlay, n int) []*Overlay {
	o.frozen = true
	o.refs-- // the forking context abandons its direct reference
	for i := 0; i < n; i++ {
		dst = append(dst, o.pool.New(o))
	}
	return dst
}

// Release drops one reference. When the last reference to an overlay is
// dropped (a killed speculative path), its parent's reference is dropped in
// turn, unwinding the dead branch of the thread tree, and the overlay goes
// back to its pool.
func (o *Overlay) Release() {
	o.refs--
	if o.refs < 0 {
		panic("storebuf: overlay over-released")
	}
	if o.refs == 0 {
		if p, ok := o.parent.(*Overlay); ok {
			p.Release()
		}
		o.recycle()
	}
}

// Settle stores into flat memory the bytes that every live view already
// shares, and drops the overlays that held them. The pipeline calls it on a
// live thread's top wherever the thread tree shrinks: at promotion, after a
// wrong prediction kills a fork's children, and at HALT.
//
// Settle starts at the bottom overlay, the one whose parent is flat memory.
// Every live overlay descends from the bottom (the pipeline's auditor checks
// this), so every live view already reads the bottom's bytes wherever no
// newer overlay shadows them. Writing those bytes into the memory beneath
// the bottom therefore changes no live view:
//   - If the bottom is an ancestor of o, it is frozen. With exactly one
//     referent, that referent is its only child. Settle stores the bottom's
//     bytes into memory, points the child at memory in its place, and
//     repeats from the child.
//   - If the bottom is o itself, o has no children and its owner is the only
//     live context. Settle stores o's bytes into memory and empties o.
//
// Otherwise the bottom is still shared by diverging paths and Settle stops.
// A spliced-out bottom goes back to its pool. Released overlays may see
// their view change, but nothing reads them again.
func (o *Overlay) Settle() {
	for {
		bottom, child := o, (*Overlay)(nil)
		for {
			p, ok := bottom.parent.(*Overlay)
			if !ok {
				break
			}
			bottom, child = p, bottom
		}
		if bottom != o && bottom.refs != 1 {
			return
		}
		for wa, w := range bottom.data {
			if w.mask == 0xFF {
				bottom.parent.Store(wa, 8, w.val)
				continue
			}
			for i := 0; i < 8; i++ {
				if w.mask>>i&1 != 0 {
					bottom.parent.Store(wa+uint64(i), 1, w.val>>(8*i))
				}
			}
		}
		if bottom == o {
			clear(o.data)
			return
		}
		child.parent = bottom.parent
		bottom.refs = 0
		bottom.recycle()
	}
}

// CheckChain validates the structural invariants of the overlay chain above
// o and returns the chain's bottom overlay, the one on flat memory. No
// member may be on its pool's free list, every ancestor must be frozen with
// a positive reference count, and the chain must reach flat memory without
// a cycle. The pipeline's invariant auditor
// runs it over each live thread's overlay so corruption of the speculation
// tree (e.g. under fault campaigns) is caught as a structured failure
// instead of a wrong value.
func (o *Overlay) CheckChain() (*Overlay, error) {
	seen := make(map[*Overlay]bool)
	for cur := o; ; {
		if seen[cur] {
			return nil, fmt.Errorf("storebuf: overlay chain cycle")
		}
		seen[cur] = true
		if cur.pooled {
			return nil, fmt.Errorf("storebuf: overlay in live chain is recycled")
		}
		if cur.refs <= 0 {
			return nil, fmt.Errorf("storebuf: overlay in live chain has %d refs", cur.refs)
		}
		if cur != o && !cur.frozen {
			return nil, fmt.Errorf("storebuf: interior overlay not frozen")
		}
		p, ok := cur.parent.(*Overlay)
		if !ok {
			return cur, nil
		}
		cur = p
	}
}

var _ isa.MemAccess = (*Overlay)(nil)
