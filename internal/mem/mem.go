// Package mem provides the flat, sparsely paged physical memory image that
// backs every simulation. Workloads initialise it deterministically: a
// builder reserves each data area either with Lazy, which allocates nothing
// and fills each page from the builder's generator the first time an
// access reaches it, or with Region, which allocates the area's pages as
// one slab for the builder to write directly. Areas a kernel sweeps in
// address order are Lazy, since a run reaches few of their pages; tables
// it reads at random are Region, since a run reaches most of theirs, as is
// an area whose values cost more to draw again than to write.
//
// During a timing run the image's bytes change in one place only,
// storebuf.Overlay.Settle. A read may fill a reserved page, but a page
// holds the same bytes before and after its fill, so no read changes what
// the image holds. Mid-run it holds the initial image plus the
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
// empty memory where every byte reads as zero. Store allocates a page on
// its first write; Region allocates a whole area's pages as one
// slab, and Clone copies all allocated pages into one slab. Each page is
// still entered in the page map on its own. A page reserved with Lazy is
// allocated and filled by the first access of any kind that reaches it;
// until then only its area is recorded. Memory implements isa.MemAccess.
//
// Accesses cluster (a load's bytes share a page, and kernels sweep their
// arrays), so page keeps a one-entry cache of the last page it found and
// skips the map when the next access hits the same page.
type Memory struct {
	pages map[uint64]*[PageSize]byte
	// lastPage is nil or the allocated page numbered lastPN.
	lastPN   uint64
	lastPage *[PageSize]byte
	// lazy holds the areas Lazy reserved. Clones share them: an area and
	// its fill never change once the builder has made them.
	lazy []*lazyArea
}

// lazyArea is a run of reserved pages, first to last, whose bytes fill
// writes.
type lazyArea struct {
	first, last uint64
	fill        func(pn uint64, page *[PageSize]byte)
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

// ensurePages makes the page map of a zero Memory. The write paths and the
// reservations call it before a page is entered; page itself stays small
// enough to inline.
func (m *Memory) ensurePages() {
	if m.pages == nil {
		m.pages = make(map[uint64]*[PageSize]byte)
	}
}

// page returns the page holding addr. A hit in the last-page cache is all
// it does inline; everything else is lookup's.
func (m *Memory) page(addr uint64, alloc bool) *[PageSize]byte {
	if m.lastPN == addr>>pageShift && m.lastPage != nil {
		return m.lastPage
	}
	return m.lookup(addr>>pageShift, alloc)
}

// lookup finds page pn in the page map. On a miss it fills a reserved page
// and enters it, for a read or a write alike; any other page it allocates
// zeroed for a write only and reports absent (nil) to a read.
func (m *Memory) lookup(pn uint64, alloc bool) *[PageSize]byte {
	p := m.pages[pn]
	if p == nil {
		a := m.area(pn)
		if a == nil && !alloc {
			return nil
		}
		p = new([PageSize]byte)
		if a != nil {
			a.fill(pn, p)
		}
		m.pages[pn] = p
	}
	m.lastPN, m.lastPage = pn, p
	return p
}

// area returns the reserved area holding page pn, or nil.
func (m *Memory) area(pn uint64) *lazyArea {
	for _, a := range m.lazy {
		if a.first <= pn && pn <= a.last {
			return a
		}
	}
	return nil
}

// Load reads size bytes (1, 2, 4, or 8) little-endian starting at addr and
// zero-extends to uint64. An access inside one page looks the page up once;
// one that crosses a page boundary splits there.
func (m *Memory) Load(addr uint64, size int) uint64 {
	// Fast path: an aligned word, the flat-memory read behind every
	// simulated load (storebuf.Overlay.loadWord).
	if size == 8 && addr&7 == 0 {
		if p := m.page(addr, false); p != nil {
			off := addr & pageMask
			return binary.LittleEndian.Uint64(p[off : off+8])
		}
		return 0
	}
	off := addr & pageMask
	if off+uint64(size) > PageSize {
		n := PageSize - off
		return m.Load(addr, int(n)) | m.Load(addr+n, size-int(n))<<(8*n)
	}
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	b := p[off : off+uint64(size)]
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// Store writes the low size bytes of val little-endian starting at addr,
// allocating the page if needed. Like Load, it looks a page up once and
// splits an access at a page boundary.
func (m *Memory) Store(addr uint64, size int, val uint64) {
	m.ensurePages()
	if size == 8 && addr&7 == 0 {
		off := addr & pageMask
		binary.LittleEndian.PutUint64(m.page(addr, true)[off:off+8], val)
		return
	}
	off := addr & pageMask
	if off+uint64(size) > PageSize {
		n := PageSize - off
		m.Store(addr, int(n), val)
		m.Store(addr+n, size-int(n), val>>(8*n))
		return
	}
	b := m.page(addr, true)[off : off+uint64(size)]
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(b, val)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(val))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(val))
	default:
		for i := range b {
			b[i] = byte(val >> (8 * i))
		}
	}
}

// Region allocates every page covering [addr, addr+n) as one zeroed slab,
// enters each in the page map, and returns the n bytes at addr for the
// caller to fill. A workload builder reserves a data area this way when
// its kernel reads the area at random, so that a run touches most of its
// pages anyway (Gather's and Hash's tables, ResidentMiss's side table), or
// when a page would cost more to generate again than to write now
// (Branchy's token stream); an area read in address order is otherwise
// reserved with Lazy. After the build, Store is the only write path.
// Region returns nil for n == 0 and panics if any of the pages is already
// allocated or reserved, which only a builder bug can cause.
func (m *Memory) Region(addr uint64, n int) []byte {
	if n == 0 {
		return nil
	}
	first, last := m.reserve(addr, n, "Region")
	slab := make([]byte, (last-first+1)*PageSize)
	for pn := first; pn <= last; pn++ {
		m.pages[pn] = (*[PageSize]byte)(slab[(pn-first)*PageSize:])
	}
	off := addr & pageMask
	return slab[off : off+uint64(n)]
}

// Lazy reserves every page covering [addr, addr+n) and allocates none of
// them. The first access that reaches a reserved page, a read or a write,
// allocates it zeroed, calls fill with its page number, and enters it in
// the page map; a write then lands on the filled bytes. fill must write
// the area's bytes on that page (the rest of the page stays zero), and do
// it as a pure function of state that never changes after the build: it
// runs whenever a page is first touched, in any order, once per Clone, and
// on scratch pages for Pages, EachPage, Equal and Diff, which treat every
// reserved page as present with the bytes fill gives it. n == 0 reserves
// nothing. Lazy panics if any of the pages is already allocated or
// reserved, which only a builder bug can cause.
func (m *Memory) Lazy(addr uint64, n int, fill func(pn uint64, page *[PageSize]byte)) {
	if n == 0 {
		return
	}
	first, last := m.reserve(addr, n, "Lazy")
	m.lazy = append(m.lazy, &lazyArea{first, last, fill})
}

// reserve returns the first and last page covering [addr, addr+n), n > 0,
// after checking that none is allocated or reserved; what names the caller
// in the panic.
func (m *Memory) reserve(addr uint64, n int, what string) (first, last uint64) {
	m.ensurePages()
	first, last = addr>>pageShift, (addr+uint64(n)-1)>>pageShift
	for pn := first; pn <= last; pn++ {
		if m.pages[pn] != nil || m.area(pn) != nil {
			panic("mem: " + what + " over an allocated or reserved page")
		}
	}
	return first, last
}

// Pages returns the number of pages the image holds, allocated or
// reserved (for footprint reporting).
func (m *Memory) Pages() int { return len(m.pageNumbers()) }

// pageNumbers returns, in no order, the number of every page m holds:
// each allocated page and each reserved one not yet filled.
func (m *Memory) pageNumbers() []uint64 {
	pns := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		if m.area(pn) == nil {
			pns = append(pns, pn)
		}
	}
	for _, a := range m.lazy {
		for pn := a.first; pn <= a.last; pn++ {
			pns = append(pns, pn)
		}
	}
	return pns
}

// view returns page pn as m holds it, without changing m: the allocated
// page; for a reserved page not yet filled, scratch holding its bytes; nil
// for a page m does not hold.
func (m *Memory) view(pn uint64, scratch *[PageSize]byte) *[PageSize]byte {
	if p := m.pages[pn]; p != nil {
		return p
	}
	if a := m.area(pn); a != nil {
		*scratch = [PageSize]byte{}
		a.fill(pn, scratch)
		return scratch
	}
	return nil
}

// EachPage calls fn for every page the image holds, allocated or reserved,
// in ascending address order, with the page's base address and contents.
// A reserved page not yet filled is generated on a scratch page that the
// next call reuses, and is not entered in m. fn must not change m or keep
// the page.
func (m *Memory) EachPage(fn func(addr uint64, page *[PageSize]byte)) {
	pns := m.pageNumbers()
	slices.Sort(pns)
	var scratch [PageSize]byte
	for _, pn := range pns {
		fn(pn<<pageShift, m.view(pn, &scratch))
	}
}

// Clone returns a deep copy of the memory image: it copies every allocated
// page and shares the reserved areas, whose pages each copy fills for
// itself. The architectural-equivalence tests clone the initial image so
// the reference interpreter and the timing simulator run against identical
// state. The copy starts with an empty last-page cache, so it never
// reaches the original's pages.
func (m *Memory) Clone() *Memory {
	nm := &Memory{pages: make(map[uint64]*[PageSize]byte, len(m.pages)), lazy: slices.Clip(m.lazy)}
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
	_, diff := m.Diff(o)
	return !diff
}

// Diff returns the address of the first differing byte between m and o, and
// whether any difference exists. It is a test/debug helper.
func (m *Memory) Diff(o *Memory) (uint64, bool) {
	if a, ok := m.diffIn(o); ok {
		return a, true
	}
	return o.diffIn(m)
}

// zeroPage is what a page neither memory holds reads as. Nothing writes it.
var zeroPage [PageSize]byte

// diffIn returns the lowest address, on a page m holds, whose byte differs
// in o. A page both memories hold unfilled from one shared area (a Clone
// shares its source's) is equal without being generated.
func (m *Memory) diffIn(o *Memory) (uint64, bool) {
	pns := m.pageNumbers()
	slices.Sort(pns)
	var mine, theirs [PageSize]byte
	for _, pn := range pns {
		if a := m.area(pn); a != nil && a == o.area(pn) && m.pages[pn] == nil && o.pages[pn] == nil {
			continue
		}
		p, op := m.view(pn, &mine), o.view(pn, &theirs)
		if op == nil {
			op = &zeroPage
		}
		if *p == *op {
			continue
		}
		for i := range p {
			if p[i] != op[i] {
				return pn<<pageShift + uint64(i), true
			}
		}
	}
	return 0, false
}
