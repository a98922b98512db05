package table

import "testing"

// pageLens returns the lengths of p's allocated pages, in index order.
func pageLens[T any](p *Paged[T]) []int {
	var lens []int
	p.EachPage(func(page []T) { lens = append(lens, len(page)) })
	return lens
}

func TestUnwrittenReadsZero(t *testing.T) {
	p := New[uint64](1000)
	for i := 0; i < p.Len(); i++ {
		if e := p.Peek(i); e != nil {
			t.Fatalf("Peek(%d) on an empty table = %v, want nil", i, *e)
		}
	}
	*p.At(5) = 42
	if e := p.Peek(5); e == nil || *e != 42 {
		t.Fatalf("Peek(5) after write = %v, want 42", e)
	}
	// Neighbours on the written page read as zero; other pages stay absent.
	if e := p.Peek(6); e == nil || *e != 0 {
		t.Fatalf("Peek(6) on a written page = %v, want zero", e)
	}
	if e := p.Peek(PageLen + 5); e != nil {
		t.Fatalf("Peek on an unwritten page = %v, want nil", *e)
	}
	if s := p.PeekSet(PageLen + 5); s != nil {
		t.Fatalf("PeekSet on an unwritten page = %v, want nil", s)
	}
}

func TestAtAllocatesOnePage(t *testing.T) {
	p := New[int](10 * PageLen)
	for k, i := range []int{3, 3*PageLen + 7, 9*PageLen + PageLen - 1} {
		*p.At(i) = i
		if got := len(pageLens(&p)); got != k+1 {
			t.Fatalf("At(%d): %d pages, want %d", i, got, k+1)
		}
		*p.At(i) = i + 1 // second write to the same page allocates nothing
		if got := len(pageLens(&p)); got != k+1 {
			t.Fatalf("rewrite At(%d): %d pages, want %d", i, got, k+1)
		}
	}
}

func TestSetsNeverCrossAPage(t *testing.T) {
	for _, ways := range []int{1, 2, 3, 16, 64, 100} {
		const sets = 37
		p := NewSets[int](sets, ways)
		for s := 0; s < sets; s++ {
			before := len(pageLens(&p))
			set := p.AtSet(s)
			if len(set) != ways || cap(set) != ways {
				t.Fatalf("ways=%d set %d: len %d cap %d, want %d", ways, s, len(set), cap(set), ways)
			}
			if grew := len(pageLens(&p)) - before; grew > 1 {
				t.Fatalf("ways=%d set %d allocated %d pages", ways, s, grew)
			}
			for w := range set {
				set[w] = s*1000 + w
			}
		}
		// Every set kept its own entries: no two sets alias and none was
		// cut at a page boundary.
		for s := 0; s < sets; s++ {
			for w, v := range p.PeekSet(s) {
				if v != s*1000+w {
					t.Fatalf("ways=%d set %d way %d = %d, want %d", ways, s, w, v, s*1000+w)
				}
			}
		}
	}
}

func TestShortLastPage(t *testing.T) {
	const n = 3*PageLen + 5
	p := New[byte](n)
	*p.At(n - 1) = 1
	if lens := pageLens(&p); len(lens) != 1 || lens[0] != 5 {
		t.Fatalf("last page lengths %v, want [5]", pageLens(&p))
	}
	if e := p.Peek(n - 1); e == nil || *e != 1 {
		t.Fatalf("Peek(n-1) = %v, want 1", e)
	}
}

func TestPageLenClampedToTable(t *testing.T) {
	p := New[int](10)
	if got := p.mask + 1; got != 16 {
		t.Fatalf("page length %d for a 10-entry table, want 16", got)
	}
	*p.At(9) = 1
	if lens := pageLens(&p); len(lens) != 1 || lens[0] != 10 {
		t.Fatalf("pages %v, want one page of 10 entries", lens)
	}
	// A set wider than a page widens the page instead of splitting the set.
	q := NewSets[int](4, 2*PageLen)
	q.AtSet(3)[2*PageLen-1] = 1
	if lens := pageLens(&q); len(lens) != 1 || lens[0] != 2*PageLen {
		t.Fatalf("pages %v, want one page of %d entries", lens, 2*PageLen)
	}
}
