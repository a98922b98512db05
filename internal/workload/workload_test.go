package workload

import (
	"testing"

	"mtvp/internal/isa"
	"mtvp/internal/mem"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) < 26 {
		t.Fatalf("only %d benchmarks registered", len(all))
	}
	ints, fps := BySuite(INT), BySuite(FP)
	if len(ints) < 12 || len(fps) < 12 {
		t.Errorf("suite sizes: %d INT, %d FP", len(ints), len(fps))
	}
	// The paper's headline benchmarks must exist.
	for _, name := range []string{"mcf", "vpr r", "parser", "swim", "art 1", "gcc 1", "crafty"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("missing benchmark %q", name)
		}
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("ByName accepted an unknown benchmark")
	}
	seen := map[string]bool{}
	for _, b := range all {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark name %q", b.Name)
		}
		seen[b.Name] = true
	}
	if len(Names()) != len(all) {
		t.Error("Names() length mismatch")
	}
}

func TestEveryBenchmarkBuildsAndRuns(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			prog, image := b.Build(1)
			if len(prog.Insts) == 0 {
				t.Fatal("empty program")
			}
			ctx := isa.NewContext(prog, image)
			n := ctx.Run(30_000)
			if n != 30_000 && !ctx.Halted {
				t.Fatalf("stopped after %d insts without halting", n)
			}
			if ctx.Halted {
				t.Fatalf("halted after only %d insts — suite kernels must run far past any budget", n)
			}
		})
	}
}

func TestBuildDeterminism(t *testing.T) {
	b, _ := ByName("mcf")
	p1, m1 := b.Build(3)
	p2, m2 := b.Build(3)
	if len(p1.Insts) != len(p2.Insts) {
		t.Fatal("program lengths differ between builds")
	}
	for i := range p1.Insts {
		if p1.Insts[i] != p2.Insts[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
	if !m1.Equal(m2) {
		t.Error("memory images differ between identical builds")
	}
	_, m3 := b.Build(4)
	if m1.Equal(m3) {
		t.Error("different seeds produced identical images")
	}
}

func TestSeedsMixedPerBenchmark(t *testing.T) {
	// Two benchmarks with the same user seed must still get different
	// data (the name is folded into the seed).
	a, _ := ByName("art 1")
	b, _ := ByName("art 4")
	_, ma := a.Build(1)
	_, mb := b.Build(1)
	if ma.Equal(mb) {
		t.Error("distinct benchmarks share a memory image")
	}
}

// visitOrder walks a successor array from head for len(succ) steps.
func visitOrder(succ []int32, head int32) []int32 {
	order := make([]int32, 0, len(succ))
	for cur := head; len(order) < len(succ); cur = succ[cur] {
		order = append(order, cur)
	}
	return order
}

func TestRunPermutationCoversAll(t *testing.T) {
	r := mem.NewRand(5)
	for _, seqPct := range []int{0, 50, 88, 100} {
		succ, head := runPermutation(r, 1000, seqPct)
		if len(succ) != 1000 {
			t.Fatalf("seqPct %d: length %d", seqPct, len(succ))
		}
		seen := make([]bool, 1000)
		order := visitOrder(succ, head)
		for _, v := range order {
			if v < 0 || v >= 1000 || seen[v] {
				t.Fatalf("seqPct %d: bad or repeated index %d", seqPct, v)
			}
			seen[v] = true
		}
		if succ[order[len(order)-1]] != head {
			t.Fatalf("seqPct %d: the walk does not close into one cycle", seqPct)
		}
	}
}

func TestRunPermutationSequentialFraction(t *testing.T) {
	r := mem.NewRand(7)
	succ, head := runPermutation(r, 50_000, 85)
	order := visitOrder(succ, head)
	seq := 0
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1]+1 {
			seq++
		}
	}
	frac := float64(seq) / float64(len(order)-1)
	if frac < 0.80 || frac > 0.90 {
		t.Errorf("sequential fraction %.3f, want ~0.85", frac)
	}
}

func TestDrawValueDistribution(t *testing.T) {
	r := mem.NewRand(9)
	pool := valuePool(r, 8, false)
	if pool[0] != 0 {
		t.Errorf("dominant integer pool value = %d, want 0", pool[0])
	}
	dominant, reused := 0, 0
	const n = 100_000
	inPool := func(v uint64) bool {
		for _, p := range pool[1:] {
			if p == v {
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		v := drawValue(r, pool, 70, 20, false)
		switch {
		case v == pool[0]:
			dominant++
		case inPool(v):
			reused++
		}
	}
	if f := float64(dominant) / n; f < 0.67 || f > 0.73 {
		t.Errorf("dominant fraction %.3f, want ~0.70", f)
	}
	if f := float64(reused) / n; f < 0.16 || f > 0.24 {
		t.Errorf("reuse fraction %.3f, want ~0.20", f)
	}
}

// TestChaseAccumulatorMatchesDirectWalk verifies the pointer-chase kernel's
// functional semantics against an independent walk of the initialised
// memory image.
func TestChaseAccumulatorMatchesDirectWalk(t *testing.T) {
	p := ChaseParams{
		Nodes: 64, NodeBytes: 64, PoolSize: 4,
		DominantPct: 60, ReusePct: 20, SeqPct: 50, BodyOps: 4, Iters: 2,
	}
	b := PointerChase("t", INT, p)
	prog, image := b.Build(11)

	// Independent walk over a clone (the kernel stores into nodes).
	walk := image.Clone()
	cur := walkStart(t, prog)
	var acc uint64
	for it := 0; it < int(p.Iters); it++ {
		for n := 0; n < p.Nodes; n++ {
			val := walk.Load(cur+8, 8)
			acc += val
			if val&1 == 1 {
				acc += 7
			}
			cur = walk.Load(cur, 8)
		}
	}

	ctx := isa.NewContext(prog, image)
	ctx.Run(1 << 30)
	if !ctx.Halted {
		t.Fatal("did not halt")
	}
	if got := image.Load(resultBase, 8); got != acc {
		t.Errorf("kernel accumulator %#x, direct walk %#x", got, acc)
	}
}

// walkStart extracts the start node address from the program's Liu.
func walkStart(t *testing.T, prog *isa.Program) uint64 {
	t.Helper()
	// The chase kernel's first LI into R1 after the filler init holds the
	// start address.
	for _, in := range prog.Insts {
		if in.Op == isa.LI && in.Rd == isa.R1 {
			return uint64(in.Imm)
		}
	}
	t.Fatal("no start-address LI found")
	return 0
}

func TestWorkingSetScales(t *testing.T) {
	small := Gather("s", FP, GatherParams{
		Items: 1024, TableLen: 1 << 10, PoolSize: 4,
		DominantPct: 80, ReusePct: 10, FPData: true, Iters: 1,
	})
	large := Gather("l", FP, GatherParams{
		Items: 1024, TableLen: 1 << 16, PoolSize: 4,
		DominantPct: 80, ReusePct: 10, FPData: true, Iters: 1,
	})
	_, ms := small.Build(1)
	_, ml := large.Build(1)
	if ml.Pages() <= ms.Pages() {
		t.Errorf("large table pages %d <= small %d", ml.Pages(), ms.Pages())
	}
}

// BenchmarkBuild builds every stand-in at seed 1: the program assembly,
// the image writes and the lazy areas' generator marks that make up
// workload set-up. Each archetype's stand-ins are one sub-benchmark, named
// after the archetype, and "suite" builds all 32.
func BenchmarkBuild(b *testing.B) {
	var kinds []string
	byKind := map[string][]Benchmark{}
	for _, w := range All() {
		if byKind[w.Kind] == nil {
			kinds = append(kinds, w.Kind)
		}
		byKind[w.Kind] = append(byKind[w.Kind], w)
	}
	run := func(name string, ws []Benchmark) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, w := range ws {
					w.Build(1)
				}
			}
		})
	}
	for _, kind := range kinds {
		run(kind, byKind[kind])
	}
	run("suite", All())
}

// TestBuildAllocatesPerRegion pins the slab build: each builder reserves
// its data areas with mem.Memory.Region or mem.Memory.Lazy, so one
// stand-in per archetype must build its image in fewer allocations than
// the image has pages, reserved pages counted. A builder that allocated
// per page would fail.
func TestBuildAllocatesPerRegion(t *testing.T) {
	for _, name := range []string{"mcf", "mgrid", "vpr r", "gzip r", "gcc i", "bzip g", ResidentMiss.Name} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var pages int
		allocs := testing.AllocsPerRun(1, func() {
			_, image := b.Build(1)
			pages = image.Pages()
		})
		if allocs >= float64(pages) {
			t.Errorf("%s (%s): %.0f allocations for %d pages", name, b.Kind, allocs, pages)
		}
	}
}
