// Package mem provides the flat, sparsely paged physical memory image that
// backs every simulation. Workloads initialise it deterministically: a
// builder reserves each data area with Region, which allocates the area's
// pages as one slab, and writes the returned bytes directly.
//
// During a timing run the image is written in one place only,
// storebuf.Overlay.Settle. Mid-run it holds the initial image plus the
// stores that every live thread shared the last time the thread tree
// shrank (a promotion or a wrong prediction): committed, non-speculative
// work that no live thread can lose. Stores still buffered in live overlays
// are not in it. At HALT it holds the final architectural image. Because the image handed to
// pipeline.New is written during the run, callers that share one image
// between runs must give each run its own Clone.
//
// A Memory is not safe for concurrent use, not even by readers alone: every
// access, a read included, updates its last-page cache. Each goroutine needs
// its own Memory (a Clone).
package mem

import (
	"encoding/binary"
	"slices"
)

const (
	pageShift = 12
	// PageSize is the allocation granule of the sparse image.
	PageSize = 1 << pageShift
	pageMask = PageSize - 1
)

// Memory is a sparse 64-bit byte-addressable memory. The zero value is an
// empty memory where every byte reads as zero. Store and PutByte allocate a
// page on its first write; Region allocates a whole area's pages as one
// slab, and Clone copies all pages into one slab. Each page is still
// entered in the page map on its own. Memory implements isa.MemAccess.
//
// Accesses cluster (a workload image is written in address order, and a
// load's bytes share a page), so page keeps a one-entry cache of the last
// page it found and skips the map when the next access hits the same page.
type Memory struct {
	pages map[uint64]*[PageSize]byte
	// lastPage is nil or the allocated page numbered lastPN.
	lastPN   uint64
	lastPage *[PageSize]byte
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

// ensurePages makes the page map of a zero Memory. The write paths call it
// before page allocates; page itself stays small enough to inline.
func (m *Memory) ensurePages() {
	if m.pages == nil {
		m.pages = make(map[uint64]*[PageSize]byte)
	}
}

func (m *Memory) page(addr uint64, alloc bool) *[PageSize]byte {
	pn := addr >> pageShift
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	p := m.pages[pn]
	if p == nil {
		if !alloc {
			return nil
		}
		p = new([PageSize]byte)
		m.pages[pn] = p
	}
	m.lastPN, m.lastPage = pn, p
	return p
}

// GetByte returns the byte at addr (zero if the page is unallocated).
func (m *Memory) GetByte(addr uint64) byte {
	if p := m.page(addr, false); p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// PutByte stores b at addr, allocating the page if needed.
func (m *Memory) PutByte(addr uint64, b byte) {
	m.ensurePages()
	m.page(addr, true)[addr&pageMask] = b
}

// Load reads size bytes (1, 2, 4, or 8) little-endian starting at addr and
// zero-extends to uint64. Accesses may straddle page boundaries.
func (m *Memory) Load(addr uint64, size int) uint64 {
	// Fast path: aligned 8-byte access within one page.
	if size == 8 && addr&7 == 0 {
		if p := m.page(addr, false); p != nil {
			off := addr & pageMask
			return binary.LittleEndian.Uint64(p[off : off+8])
		}
		return 0
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.GetByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Store writes the low size bytes of val little-endian starting at addr.
func (m *Memory) Store(addr uint64, size int, val uint64) {
	m.ensurePages()
	if size == 8 && addr&7 == 0 {
		p := m.page(addr, true)
		off := addr & pageMask
		binary.LittleEndian.PutUint64(p[off:off+8], val)
		return
	}
	for i := 0; i < size; i++ {
		m.PutByte(addr+uint64(i), byte(val>>(8*i)))
	}
}

// Region allocates every page covering [addr, addr+n) as one zeroed slab,
// enters each in the page map, and returns the n bytes at addr for the
// caller to fill. Workload builders reserve each data area this way and
// write it directly; after the build, Store is the only write path. It
// returns nil for n == 0 and panics if any of the pages already exists,
// which only a builder bug can cause.
func (m *Memory) Region(addr uint64, n int) []byte {
	if n == 0 {
		return nil
	}
	m.ensurePages()
	first, last := addr>>pageShift, (addr+uint64(n)-1)>>pageShift
	for pn := first; pn <= last; pn++ {
		if m.pages[pn] != nil {
			panic("mem: Region over an allocated page")
		}
	}
	slab := make([]byte, (last-first+1)*PageSize)
	for pn := first; pn <= last; pn++ {
		m.pages[pn] = (*[PageSize]byte)(slab[(pn-first)*PageSize:])
	}
	off := addr & pageMask
	return slab[off : off+uint64(n)]
}

// Pages returns the number of allocated pages (for footprint reporting).
func (m *Memory) Pages() int { return len(m.pages) }

// EachPage calls fn for every allocated page in ascending address order,
// with the page's base address and contents. fn must not change m.
func (m *Memory) EachPage(fn func(addr uint64, page *[PageSize]byte)) {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	for _, pn := range pns {
		fn(pn<<pageShift, m.pages[pn])
	}
}

// Clone returns a deep copy of the memory image. The architectural-
// equivalence tests clone the initial image so the reference interpreter and
// the timing simulator run against identical state. The copy starts with an
// empty last-page cache, so it never reaches the original's pages.
func (m *Memory) Clone() *Memory {
	nm := &Memory{pages: make(map[uint64]*[PageSize]byte, len(m.pages))}
	slab := make([]byte, len(m.pages)*PageSize)
	for pn, p := range m.pages {
		cp := (*[PageSize]byte)(slab)
		slab = slab[PageSize:]
		*cp = *p
		nm.pages[pn] = cp
	}
	return nm
}

// Equal reports whether two memories hold identical contents. Unallocated
// pages compare equal to all-zero pages.
func (m *Memory) Equal(o *Memory) bool {
	return m.subsetOf(o) && o.subsetOf(m)
}

func (m *Memory) subsetOf(o *Memory) bool {
	for pn, p := range m.pages {
		op := o.pages[pn]
		if op == nil {
			if *p != ([PageSize]byte{}) {
				return false
			}
			continue
		}
		if *p != *op {
			return false
		}
	}
	return true
}

// Diff returns the address of the first differing byte between m and o, and
// whether any difference exists. It is a test/debug helper.
func (m *Memory) Diff(o *Memory) (uint64, bool) {
	if a, ok := m.diffIn(o); ok {
		return a, true
	}
	return o.diffIn(m)
}

func (m *Memory) diffIn(o *Memory) (uint64, bool) {
	for pn, p := range m.pages {
		base := pn << pageShift
		for i := range p {
			if p[i] != o.GetByte(base+uint64(i)) {
				return base + uint64(i), true
			}
		}
	}
	return 0, false
}
