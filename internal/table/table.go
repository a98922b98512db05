// Package table provides Paged, the storage behind the simulator's large
// hardware tables: cache line arrays and PC- or hash-indexed predictor
// tables. A short run touches a few percent of a Table 1 structure (the
// 4 MB L3 alone is 65,536 lines), so pages are allocated on first write
// and an engine costs only what it uses. mem.Memory stores the simulated
// image the same way.
package table

import "math/bits"

// PageLen is the number of entries in a full page.
const PageLen = 64

// Paged is a fixed number of entries stored in power-of-two pages that are
// allocated on first write. An entry on a page that was never written reads
// as the zero T. Peek is the read path and never allocates; At is the
// writing path and allocates the entry's page if needed. PeekSet and AtSet
// are their set-sized variants for tables built by NewSets.
//
// The zero Paged has no entries.
type Paged[T any] struct {
	pages    [][]T
	n        int  // entries, counting the padding that rounds sets up
	shift    uint // log2 of the page length
	mask     int  // page length - 1
	ways     int  // entries per set (1 for New)
	setShift uint // log2 of the set stride: ways rounded up to a power of two
}

// New returns a table of n entries.
func New[T any](n int) Paged[T] { return NewSets[T](n, 1) }

// NewSets returns a table of sets sets of ways entries each. Every set is
// padded to a power-of-two stride so that no set crosses a page; there is
// no padding when ways is itself a power of two.
func NewSets[T any](sets, ways int) Paged[T] {
	setShift := uint(bits.Len(uint(ways - 1)))
	n := sets << setShift
	pageLen := max(PageLen, 1<<setShift)
	// A table smaller than a page gets a single page of the smallest power
	// of two that holds it.
	for pageLen > 1 && pageLen/2 >= n {
		pageLen /= 2
	}
	return Paged[T]{
		pages:    make([][]T, (n+pageLen-1)/pageLen),
		n:        n,
		shift:    uint(bits.TrailingZeros(uint(pageLen))),
		mask:     pageLen - 1,
		ways:     ways,
		setShift: setShift,
	}
}

// Len returns the number of entries, set padding included.
func (p *Paged[T]) Len() int { return p.n }

// Peek returns entry i, or nil when its page was never written (the entry
// then reads as the zero T).
func (p *Paged[T]) Peek(i int) *T {
	pg := p.pages[i>>p.shift]
	if pg == nil {
		return nil
	}
	return &pg[i&p.mask]
}

// At returns entry i for writing, allocating its page on first use.
func (p *Paged[T]) At(i int) *T {
	pg := p.pages[i>>p.shift]
	if pg == nil {
		pg = p.alloc(i >> p.shift)
	}
	return &pg[i&p.mask]
}

// PeekSet returns the ways entries of set s, or nil when its page was
// never written.
func (p *Paged[T]) PeekSet(s int) []T {
	i := s << p.setShift
	pg := p.pages[i>>p.shift]
	if pg == nil {
		return nil
	}
	o := i & p.mask
	return pg[o : o+p.ways : o+p.ways]
}

// AtSet returns the ways entries of set s for writing, allocating their
// page on first use.
func (p *Paged[T]) AtSet(s int) []T {
	i := s << p.setShift
	pg := p.pages[i>>p.shift]
	if pg == nil {
		pg = p.alloc(i >> p.shift)
	}
	o := i & p.mask
	return pg[o : o+p.ways : o+p.ways]
}

// alloc allocates page pi. The last page is short when the page length
// does not divide the entry count.
func (p *Paged[T]) alloc(pi int) []T {
	base := pi << p.shift
	pg := make([]T, min(p.mask+1, p.n-base))
	p.pages[pi] = pg
	return pg
}

// EachPage calls fn with every allocated page, in index order. Entries on
// pages it skips were never written and read as the zero T.
func (p *Paged[T]) EachPage(fn func(page []T)) {
	for _, pg := range p.pages {
		if pg != nil {
			fn(pg)
		}
	}
}
