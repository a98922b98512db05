package workload

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mtvp/internal/mem"
	"mtvp/internal/storebuf"
)

// touch loads one word from each of n pages of a stand-in's image (every
// page if it has fewer), chosen and ordered by a seeded shuffle, so that
// reserved pages are filled by reads and not in address order. Every
// archetype reserves at least one area with mem.Memory.Lazy; the pages of
// its Region tables are among those touched, and a load there changes
// nothing.
func touch(image *mem.Memory, seed uint64, n int) {
	var pages []uint64
	image.EachPage(func(addr uint64, _ *[mem.PageSize]byte) { pages = append(pages, addr) })
	r := mem.NewRand(seed)
	for i := len(pages) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		pages[i], pages[j] = pages[j], pages[i]
	}
	for _, addr := range pages[:min(n, len(pages))] {
		image.Load(addr+8*uint64(r.Intn(mem.PageSize/8)), 8)
	}
}

// TestTouchOrder fills every page of each stand-in and ResidentMiss at
// seeds 1 to 3 by loads in a seeded random page order, once on the built
// image and once on a Clone taken before any page was filled, and requires
// each to digest to the golden image. TestImageDigests walks pages in
// address order only; a fill that relied on that order (carrying the
// generator from one page to the next) would fail here.
func TestTouchOrder(t *testing.T) {
	want := map[string]string{}
	for _, line := range goldenDigests(t) {
		i := strings.LastIndexByte(line, ' ')
		want[line[:i]] = line[i+1:]
	}
	for _, b := range append(All(), ResidentMiss) {
		for seed := uint64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%q %d", b.Name, seed)
			prog, image := b.Build(seed)
			clone := image.Clone()
			touch(image, seed, image.Pages())
			if got := digest(prog, image); got != want[key] {
				t.Errorf("%s: image filled in random page order digests %s, want %s", key, got, want[key])
			}
			touch(clone, seed+100, clone.Pages())
			if got := digest(prog, clone); got != want[key] {
				t.Errorf("%s: clone filled in random page order digests %s, want %s", key, got, want[key])
			}
		}
	}
}

// lazyCases are one stand-in of each archetype, each with the start of an
// area it reserves with mem.Memory.Lazy that is at least 6 pages long: the
// data at dataBase, or gcc i's side table after its 64 KB token stream.
var lazyCases = []struct {
	name string
	area uint64
}{
	{"mcf", dataBase}, {"swim", dataBase}, {"bzip g", dataBase},
	{"gcc i", dataBase + 64<<10 + mem.PageSize},
	{"crafty", dataBase}, {"perlbmk", dataBase}, {"vpr r", dataBase},
}

// TestWriteBeforeRead: the first access to a reserved page may be a
// store, made directly or settled from a store-buffer overlay. It fills
// the page and then writes, so every other generated byte of the page
// survives. A write path that allocated a zero page would lose them. Each
// case writes an aligned word (Store's fast path) on one page and a single
// byte (the byte path) on another.
func TestWriteBeforeRead(t *testing.T) {
	const (
		word  uint64 = 0x0123456789ABCDEF
		byte1 byte   = 0x5A
	)
	for _, lc := range lazyCases {
		name := lc.name
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wordAt := lc.area + 3*mem.PageSize + 40
		byteAt := lc.area + 5*mem.PageSize + 1001
		_, ref := b.Build(1)
		for _, c := range []struct {
			how   string
			write func(image *mem.Memory)
		}{
			{"Store", func(image *mem.Memory) {
				image.Store(wordAt, 8, word)
				image.Store(byteAt, 1, uint64(byte1))
			}},
			{"Overlay.Settle", func(image *mem.Memory) {
				o := storebuf.New(image)
				o.Store(wordAt, 8, word)
				o.Store(byteAt, 1, uint64(byte1))
				o.Settle()
			}},
		} {
			t.Run(name+"/"+c.how, func(t *testing.T) {
				_, image := b.Build(1)
				c.write(image)
				for _, page := range []uint64{wordAt &^ (mem.PageSize - 1), byteAt &^ (mem.PageSize - 1)} {
					for a := page; a < page+mem.PageSize; a++ {
						want := ref.Load(a, 1)
						switch {
						case a >= wordAt && a < wordAt+8:
							want = word >> (8 * (a - wordAt)) & 0xff
						case a == byteAt:
							want = uint64(byte1)
						}
						if got := image.Load(a, 1); got != want {
							t.Fatalf("byte %#x = %#x after writing an unfilled page, want %#x", a, got, want)
						}
					}
				}
			})
		}
	}
}

// TestLazyBuildFootprint pins the gain of filling on first access:
// building these stand-ins at seed 1 allocates (TotalAlloc) far less than
// their whole images. mgrid keeps a 32-byte generator mark per page, so it
// must stay under 1/64 of its 17,417-page (71 MB) image; mcf keeps 12 bytes
// per 64-byte node plus 4 bytes a run while the runs are shuffled, so it
// must stay under a quarter of its 4,096-page (16 MB) image. gcc i writes
// its 64 KB token stream and keeps an 8-byte mark per page of its 128 KB
// side table, so it must stay under half of its 48-page (192 KB) image;
// crafty keeps a mark per page and a program of about 2.5 KB, so it must
// stay under a quarter of its 8-page (32 KB) image.
func TestLazyBuildFootprint(t *testing.T) {
	for _, c := range []struct {
		name  string
		pages int
		frac  uint64
	}{{"mgrid", 17417, 64}, {"mcf", 4096, 4}, {"gcc i", 48, 2}, {"crafty", 8, 4}} {
		b, err := ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, image := b.Build(1)
		runtime.ReadMemStats(&after)
		if image.Pages() != c.pages {
			t.Errorf("%s: %d pages, want %d", c.name, image.Pages(), c.pages)
		}
		eager := uint64(image.Pages()) * mem.PageSize
		if got := after.TotalAlloc - before.TotalAlloc; got >= eager/c.frac {
			t.Errorf("%s: build allocated %d KB, want under 1/%d of the %d KB image", c.name, got>>10, c.frac, eager>>10)
		}
	}
}

// TestClonesFillConcurrently: goroutines fill reserved pages of one image
// at once, each through its own Clone, 512 pages each from overlapping
// shuffles, so the fills read the builder's marks and node arrays
// together. Every clone must still equal the image, whose own pages stay
// unfilled: Diff compares each filled page with the image's generated one.
// CI runs it under the race detector with -count=10.
func TestClonesFillConcurrently(t *testing.T) {
	for _, lc := range lazyCases {
		name := lc.name
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, image := b.Build(1)
		clones := make([]*mem.Memory, 4)
		for i := range clones {
			clones[i] = image.Clone()
		}
		var wg sync.WaitGroup
		for i, c := range clones {
			wg.Add(1)
			go func(seed uint64, c *mem.Memory) {
				defer wg.Done()
				touch(c, seed, 512)
			}(uint64(i), c)
		}
		wg.Wait()
		for i, c := range clones {
			if addr, diff := c.Diff(image); diff {
				t.Errorf("%s: clone %d filled concurrently differs from the image at %#x", name, i, addr)
			}
		}
	}
}

// TestSweepMatchesEager reserves sweeps of several layouts (elements
// straddling pages, gaps between elements, lengths that end mid-chunk and
// mid-page) and both kinds of draw, and requires each to read as the area
// written element by element from the same generator, and the builder's
// generator to end in the same state. The stand-ins' areas are all
// page-aligned; these are not.
func TestSweepMatchesEager(t *testing.T) {
	for _, c := range []struct {
		off       uint64
		n, stride int
		intn      int
		shift     uint
	}{
		{0, 1500, 8, 0, 0},
		{3, 1500, 8, 1000, 0},
		{4092, 700, 16, 0, 7},
		{5, 2000, 24, 1 << 12, 0},
		{8, 1, 8, 0, 40},
	} {
		base := dataBase + c.off
		lazy, eager := mem.New(), mem.New()
		rl, re := mem.NewRand(9), mem.NewRand(9)
		sweep{base: base, n: c.n, stride: c.stride, intn: c.intn, shift: c.shift}.reserve(lazy, rl)
		area := eager.Region(base, c.n*c.stride)
		for i := 0; i < c.n; i++ {
			v := re.Next() >> c.shift
			if c.intn > 0 {
				v %= uint64(c.intn)
			}
			binary.LittleEndian.PutUint64(area[i*c.stride:], v)
		}
		if rl.Next() != re.Next() {
			t.Errorf("%+v: the walk leaves the generator elsewhere than the eager fill", c)
		}
		touch(lazy, 1, lazy.Pages())
		if addr, diff := lazy.Diff(eager); diff {
			t.Errorf("%+v: lazy area differs from the eager one at %#x", c, addr)
		}
	}
}

// TestFillsAllocateNothing: a reserved page's fill writes the page it is
// given and allocates nothing else. EachPage generates each reserved page
// of an image on one scratch page, and on a clone whose every page is
// filled it generates none, so the two walks must allocate the same; a
// fill that allocated (the sweeps once took a 512-byte draw buffer from the
// heap per page) would add one object a page.
func TestFillsAllocateNothing(t *testing.T) {
	walk := func(image *mem.Memory) float64 {
		return testing.AllocsPerRun(3, func() {
			image.EachPage(func(uint64, *[mem.PageSize]byte) {})
		})
	}
	for _, lc := range lazyCases {
		b, err := ByName(lc.name)
		if err != nil {
			t.Fatal(err)
		}
		_, image := b.Build(1)
		filled := image.Clone()
		touch(filled, 1, filled.Pages())
		if got, want := walk(image), walk(filled); got != want {
			t.Errorf("%s: generating its %d pages allocated %.0f objects, want %.0f, as with every page filled",
				lc.name, image.Pages(), got, want)
		}
	}
}
