package mem

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestZeroFill(t *testing.T) {
	m := New()
	if v := m.Load(0x1234, 8); v != 0 {
		t.Errorf("unwritten memory = %#x, want 0", v)
	}
	if m.Pages() != 0 {
		t.Errorf("reads allocated %d pages", m.Pages())
	}
}

// The zero Memory is usable: reads see zeros, the first store (of a word
// or of a byte) allocates, and a clone carries the stored page.
func TestZeroValueMemory(t *testing.T) {
	var m Memory
	if v := m.Load(0x10, 8); v != 0 {
		t.Fatalf("zero memory reads %#x, want 0", v)
	}
	m.Store(0x10, 8, 1)
	if v := m.Load(0x10, 8); v != 1 {
		t.Fatalf("Load after Store = %#x, want 1", v)
	}
	c := m.Clone()
	if v := c.Load(0x10, 8); v != 1 || c.Pages() != 1 {
		t.Fatalf("clone reads %#x with %d pages, want 1 with 1 page", v, c.Pages())
	}
	var b Memory
	b.Store(0x20, 1, 7)
	if v := b.Load(0x20, 1); v != 7 {
		t.Fatalf("byte Load after byte Store = %d, want 7", v)
	}
}

func TestStoreLoadSizes(t *testing.T) {
	m := New()
	m.Store(0x100, 8, 0x1122334455667788)
	for _, c := range []struct {
		size int
		want uint64
	}{{1, 0x88}, {2, 0x7788}, {4, 0x55667788}, {8, 0x1122334455667788}} {
		if got := m.Load(0x100, c.size); got != c.want {
			t.Errorf("load size %d = %#x, want %#x", c.size, got, c.want)
		}
	}
}

func TestPageStraddle(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3)
	m.Store(addr, 8, 0xAABBCCDDEEFF0011)
	if got := m.Load(addr, 8); got != 0xAABBCCDDEEFF0011 {
		t.Errorf("straddling load = %#x", got)
	}
	if m.Pages() != 2 {
		t.Errorf("straddle allocated %d pages, want 2", m.Pages())
	}
}

func TestUnalignedFastPathBypass(t *testing.T) {
	m := New()
	m.Store(0x101, 8, 0x0123456789ABCDEF) // unaligned 8-byte
	if got := m.Load(0x101, 8); got != 0x0123456789ABCDEF {
		t.Errorf("unaligned round trip = %#x", got)
	}
	if got := m.Load(0x100, 1); got != 0 {
		t.Errorf("neighbour byte = %#x, want 0", got)
	}
}

// A clone copies every page into one slab of its own: no write through the
// clone shows in its source, and no write to the source (through Store or
// through the bytes Region returned) shows in the clone. Clones of clones
// are slabs too.
func TestCloneIsDeep(t *testing.T) {
	m := New()
	m.Store(0x40, 8, 42)
	region := m.Region(3*PageSize-8, 16) // straddles two pages
	binary.LittleEndian.PutUint64(region, 7)
	binary.LittleEndian.PutUint64(region[8:], 8)
	c := m.Clone()
	c.Store(0x40, 8, 99)
	c.Store(3*PageSize, 8, 80)
	if m.Load(0x40, 8) != 42 || m.Load(3*PageSize, 8) != 8 {
		t.Error("clone shares storage with original")
	}
	if c.Load(0x40, 8) != 99 || c.Load(3*PageSize, 8) != 80 {
		t.Error("clone did not take the write")
	}
	binary.LittleEndian.PutUint64(region, 70)
	m.Store(0x48, 8, 43)
	if c.Load(3*PageSize-8, 8) != 7 || c.Load(0x48, 8) != 0 {
		t.Error("write to the original shows in the clone")
	}
	cc := c.Clone()
	cc.Store(3*PageSize-8, 8, 700)
	if c.Load(3*PageSize-8, 8) != 7 || cc.Load(0x40, 8) != 99 || cc.Pages() != c.Pages() {
		t.Error("clone of a clone is not a deep copy")
	}
}

func TestRegion(t *testing.T) {
	m := New()
	if b := m.Region(0x5000, 0); b != nil || m.Pages() != 0 {
		t.Fatalf("empty region = %v with %d pages, want nil with 0", b, m.Pages())
	}
	b := m.Region(PageSize+100, 2*PageSize)
	if len(b) != 2*PageSize || m.Pages() != 3 {
		t.Fatalf("region has %d bytes over %d pages, want %d over 3", len(b), m.Pages(), 2*PageSize)
	}
	for i := range b {
		if b[i] != 0 {
			t.Fatalf("region byte %d = %d, want 0", i, b[i])
		}
		b[i] = byte(i)
	}
	for i := range b {
		if got := m.Load(PageSize+100+uint64(i), 1); got != uint64(byte(i)) {
			t.Fatalf("byte %d reads %d through the page map, want %d", i, got, byte(i))
		}
	}
	m.Store(PageSize+96, 8, 0xAABBCCDD11223344) // straddles the region's start
	if b[0] != 0xDD || b[3] != 0xAA {
		t.Errorf("Store did not write the region's bytes: % x", b[:4])
	}
}

// Region and Lazy panic over any page that already exists, however it was
// allocated or reserved, and leave the image as it was.
func TestRegionPanicsOverExistingPage(t *testing.T) {
	for _, c := range []struct {
		name string
		prep func(*Memory)
	}{
		{"store", func(m *Memory) { m.Store(4*PageSize-1, 1, 1) }},
		{"region", func(m *Memory) { m.Region(4*PageSize-8, 8) }},
		{"lazy", func(m *Memory) { m.Lazy(4*PageSize-8, 8, pattern) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, call := range []struct {
				name    string
				reserve func(*Memory)
			}{
				{"Region", func(m *Memory) { m.Region(2*PageSize, 2*PageSize+1) }}, // pages 2 to 4
				{"Lazy", func(m *Memory) { m.Lazy(2*PageSize, 2*PageSize+1, pattern) }},
			} {
				m := New()
				c.prep(m)
				before, allocated, areas := m.Pages(), len(m.pages), len(m.lazy)
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s over an existing page did not panic", call.name)
						}
					}()
					call.reserve(m)
				}()
				if m.Pages() != before || len(m.pages) != allocated || len(m.lazy) != areas {
					t.Errorf("failed %s changed the image", call.name)
				}
			}
		})
	}
}

// pattern is a fill for reserved pages: byte i of page pn is pn*7+i.
func pattern(pn uint64, page *[PageSize]byte) {
	for i := range page {
		page[i] = byte(pn*7 + uint64(i))
	}
}

// A reserved page holds its generated bytes from the start: Pages counts
// it, and EachPage, Equal and Diff see its bytes without allocating it.
// The first load or store allocates and fills it, a store on top of the
// generated bytes. A Clone shares the unfilled pages and copies the
// filled ones.
func TestLazy(t *testing.T) {
	m := New()
	m.Lazy(0x5000, 0, pattern) // reserves nothing
	m.Lazy(3*PageSize, 2*PageSize, pattern)
	m.Store(0x40, 8, 1)
	if m.Pages() != 3 || len(m.pages) != 1 {
		t.Fatalf("%d pages, %d allocated; want 3 and 1", m.Pages(), len(m.pages))
	}
	var seen []uint64
	m.EachPage(func(addr uint64, page *[PageSize]byte) {
		seen = append(seen, addr)
		if pn := addr / PageSize; pn >= 3 && page[10] != byte(pn*7+10) {
			t.Errorf("EachPage shows page %d byte 10 as %d", pn, page[10])
		}
	})
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 3*PageSize || seen[2] != 4*PageSize {
		t.Errorf("EachPage visited %#x, want pages 0, 3 and 4 in order", seen)
	}
	c := m.Clone()
	if !m.Equal(c) || len(m.pages) != 1 || len(c.pages) != 1 {
		t.Fatalf("clone unequal, or comparing filled pages (%d and %d allocated)", len(m.pages), len(c.pages))
	}
	if got := m.Load(3*PageSize+8, 2); got != uint64(byte(21+8))|uint64(byte(21+9))<<8 {
		t.Errorf("load from a reserved page = %#x", got)
	}
	c.Store(4*PageSize+16, 1, 0xEE)
	if len(m.pages) != 2 || len(c.pages) != 2 || m.Pages() != 3 || c.Pages() != 3 {
		t.Errorf("fills allocated %d and %d pages, counted %d and %d; want 2, 2, 3, 3", len(m.pages), len(c.pages), m.Pages(), c.Pages())
	}
	if c.Load(4*PageSize+15, 1) != 28+15 || c.Load(4*PageSize+17, 1) != 28+17 {
		t.Error("a store into a reserved page lost its generated neighbours")
	}
	if addr, diff := m.Diff(c); !diff || addr != 4*PageSize+16 {
		t.Errorf("Diff = (%#x, %v), want (%#x, true)", addr, diff, 4*PageSize+16)
	}
	if len(m.pages) != 2 {
		t.Error("Diff filled a page")
	}
	if o := New(); o.Equal(m) {
		t.Error("an empty memory equals one with generated pages")
	}
}

// Property: a memory whose area is reserved with Lazy behaves exactly like
// one whose area Region allocated and the same fill wrote eagerly, under
// any interleaving of loads, stores and clones. Each access may be the
// first to reach its page, in any order; a store may come before any load.
func TestLazyMatchesEagerQuick(t *testing.T) {
	type op struct {
		Kind uint8
		Pick uint8
		Addr uint16
		Val  uint64
		Sel  uint8
	}
	// The area covers pages 1 to 3 in part: its first and last pages keep
	// zero bytes outside it.
	const start, n = PageSize + 100, 2*PageSize + 50
	fill := func(pn uint64, page *[PageSize]byte) {
		for a := max(pn*PageSize, start); a < min(pn*PageSize+PageSize, start+n); a++ {
			page[a&pageMask] = byte(a*131 + a>>8)
		}
	}
	f := func(ops []op) bool {
		eager := New()
		slab := eager.Region(start, n)
		for i := range slab {
			a := uint64(start + i)
			slab[i] = byte(a*131 + a>>8)
		}
		lazy := New()
		lazy.Lazy(start, n, fill)
		pairs := [][2]*Memory{{eager, lazy}}
		for _, o := range ops {
			p := pairs[int(o.Pick)%len(pairs)]
			size := []int{1, 2, 4, 8}[o.Sel%4]
			addr := uint64(o.Addr) % (5 * PageSize)
			switch o.Kind % 3 {
			case 0:
				p[0].Store(addr, size, o.Val)
				p[1].Store(addr, size, o.Val)
			case 1:
				if p[0].Load(addr, size) != p[1].Load(addr, size) {
					return false
				}
			case 2:
				if len(pairs) < 6 {
					pairs = append(pairs, [2]*Memory{p[0].Clone(), p[1].Clone()})
				}
			}
		}
		for _, p := range pairs {
			if !p[0].Equal(p[1]) || p[0].Pages() != p[1].Pages() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEqualAndDiff(t *testing.T) {
	a, b := New(), New()
	if !a.Equal(b) {
		t.Error("empty memories unequal")
	}
	a.Store(0x1000, 8, 7)
	if a.Equal(b) {
		t.Error("differing memories compare equal")
	}
	if addr, diff := a.Diff(b); !diff || addr != 0x1000 {
		t.Errorf("Diff = (%#x, %v), want (0x1000, true)", addr, diff)
	}
	b.Store(0x1000, 8, 7)
	if !a.Equal(b) {
		t.Error("identical memories unequal")
	}
	// A page of explicit zeroes equals an unallocated page.
	a.Store(0x999000, 8, 0)
	if !a.Equal(b) {
		t.Error("explicit zero page breaks equality")
	}
}

// Property: Store then Load round-trips at any address and size.
func TestRoundTripQuick(t *testing.T) {
	m := New()
	f := func(addr, val uint64, sel uint8) bool {
		size := []int{1, 2, 4, 8}[sel%4]
		addr %= 1 << 44
		m.Store(addr, size, val)
		want := val
		if size < 8 {
			want &= (1 << (8 * size)) - 1
		}
		return m.Load(addr, size) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the paged memory behaves exactly like a flat map of bytes, with
// Region writes interleaved among the stores. A Region over an existing
// page must panic and change nothing; one over fresh pages must come back
// zeroed, and every allocated byte outside what was written reads zero.
func TestAgainstReferenceQuick(t *testing.T) {
	type op struct {
		Addr uint64
		Val  uint64
		Sel  uint8
	}
	region := func(m *Memory, addr uint64, n int) (b []byte, panicked bool) {
		defer func() { panicked = recover() != nil }()
		return m.Region(addr, n), false
	}
	f := func(ops []op) bool {
		m := New()
		ref := map[uint64]byte{}
		for _, o := range ops {
			addr := o.Addr % (1 << 20)
			if o.Sel%8 >= 4 {
				n := int(o.Val % (2 * PageSize))
				fresh := true
				if n > 0 {
					for pn := addr >> pageShift; pn <= (addr+uint64(n)-1)>>pageShift; pn++ {
						fresh = fresh && m.pages[pn] == nil
					}
				}
				pages := m.Pages()
				b, panicked := region(m, addr, n)
				if panicked {
					if fresh || m.Pages() != pages {
						return false
					}
					continue
				}
				if !fresh || len(b) != n {
					return false
				}
				for i := range b {
					if b[i] != 0 {
						return false
					}
					b[i] = byte(o.Val>>(8*(i%8))) + byte(i)
					ref[addr+uint64(i)] = b[i]
				}
				continue
			}
			size := []int{1, 2, 4, 8}[o.Sel%4]
			m.Store(addr, size, o.Val)
			for i := 0; i < size; i++ {
				ref[addr+uint64(i)] = byte(o.Val >> (8 * i))
			}
		}
		for a, b := range ref {
			if byte(m.Load(a, 1)) != b {
				return false
			}
		}
		for pn, p := range m.pages {
			for i, b := range p {
				if ref[pn<<pageShift+uint64(i)] != b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: interleaved stores, loads and clones behave like independent
// byte maps. A clone starts equal to its original; afterwards neither sees
// the other's writes, whichever page each one's last-page cache holds. The
// accesses hop over three pages and straddle their boundaries.
func TestCloneCacheQuick(t *testing.T) {
	type op struct {
		Kind uint8
		Pick uint8
		Addr uint16
		Val  uint64
		Sel  uint8
	}
	load := func(ref map[uint64]byte, addr uint64, size int) uint64 {
		var v uint64
		for i := 0; i < size; i++ {
			v |= uint64(ref[addr+uint64(i)]) << (8 * i)
		}
		return v
	}
	f := func(ops []op) bool {
		mems := []*Memory{New()}
		refs := []map[uint64]byte{{}}
		for _, o := range ops {
			i := int(o.Pick) % len(mems)
			size := []int{1, 2, 4, 8}[o.Sel%4]
			addr := uint64(o.Addr) % (3 * PageSize)
			switch o.Kind % 3 {
			case 0:
				mems[i].Store(addr, size, o.Val)
				for b := 0; b < size; b++ {
					refs[i][addr+uint64(b)] = byte(o.Val >> (8 * b))
				}
			case 1:
				if mems[i].Load(addr, size) != load(refs[i], addr, size) {
					return false
				}
			case 2:
				if len(mems) == 8 {
					continue
				}
				ref := make(map[uint64]byte, len(refs[i]))
				for a, b := range refs[i] {
					ref[a] = b
				}
				mems, refs = append(mems, mems[i].Clone()), append(refs, ref)
			}
		}
		for i, m := range mems {
			for a, b := range refs[i] {
				if m.Load(a, 1) != uint64(b) {
					return false
				}
			}
			for a := uint64(0); a < 3*PageSize; a += 8 {
				if m.Load(a, 8) != load(refs[i], a, 8) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Next() == NewRand(2).Next() {
		t.Error("different seeds agree on first value")
	}
	z := NewRand(0)
	if z.Next() == 0 && z.Next() == 0 {
		t.Error("zero seed stuck at zero")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

// TestIntnPowerOfTwoQuick: for n = 2^k, Intn masks instead of dividing, and
// must return exactly Next() % n from the same state, for any seed and k.
func TestIntnPowerOfTwoQuick(t *testing.T) {
	f := func(seed uint64, k uint8) bool {
		n := 1 << (k % 63)
		a, b := NewRand(seed), NewRand(seed)
		for i := 0; i < 16; i++ {
			if got, want := a.Intn(n), int(b.Next()%uint64(n)); got != want {
				t.Logf("seed %#x, n %d, draw %d: Intn %d, Next()%%n %d", seed, n, i, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestIntnZeroPanics: n == 0 is not a power of two; Intn(0) must panic as
// the division always did, not return the masked draw.
func TestIntnZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}
