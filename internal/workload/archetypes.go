package workload

import (
	"encoding/binary"

	"mtvp/internal/asm"
	"mtvp/internal/isa"
	"mtvp/internal/mem"
)

// resultBase is where kernels store their final accumulators, so
// architectural-equivalence tests can compare committed memory state.
const resultBase = 0x8000

// ChaseParams configures the pointer-chase archetype (mcf, parser, vortex,
// ammp): a randomised cyclic linked structure whose traversal defeats the
// stride prefetcher, with payload values drawn from a small reuse pool so
// payload loads are value-predictable even though next-pointers are not.
type ChaseParams struct {
	Nodes       int // nodes in the cycle
	NodeBytes   int // node size (32 to mem.PageSize; the nodes share one region)
	PoolSize    int // distinct payload values
	DominantPct int // percent of payloads equal to the dominant value
	ReusePct    int // percent of payloads drawn from the rest of the pool
	// SeqPct is the percent of nodes whose successor is the next node in
	// address order. Real list-walking codes (mcf's arc arrays above all)
	// allocate in traversal order, which is what makes their next
	// pointers stride-predictable; the remaining (100−SeqPct)% are random
	// jumps to another run.
	SeqPct  int
	BodyOps int   // filler ALU ops per iteration (loop-body weight)
	FPVal   bool  // payload is floating point (ammp-style)
	Iters   int64 // full traversals of the cycle
}

// PointerChase builds a pointer-chase benchmark.
func PointerChase(name string, suite Suite, p ChaseParams) Benchmark {
	return Benchmark{Name: name, Suite: suite, Kind: "chase", build: chaseBuilder{name, p}.build}
}

// chaseBuilder builds a chase stand-in.
type chaseBuilder struct {
	name string
	p    ChaseParams
}

func (g chaseBuilder) build(seed uint64) (*isa.Program, *mem.Memory) {
	p := g.p
	r := mem.NewRand(seed)
	m := mem.New()
	pool := valuePool(r, p.PoolSize, p.FPVal)
	succ, head := runPermutation(r, p.Nodes, p.SeqPct)
	addr := func(i int) uint64 { return dataBase + uint64(i)*uint64(p.NodeBytes) }
	// Each node holds its next pointer and its payload in its first
	// 16 bytes; the area ends with the last node's payload. The nodes
	// are kept as a successor index and a payload, 12 bytes a node,
	// and a page's nodes are written out when the page is filled.
	// Payloads are drawn in visiting order.
	payload := make([]uint64, p.Nodes)
	for i, cur := 0, head; i < p.Nodes; i, cur = i+1, succ[cur] {
		payload[cur] = drawValue(r, pool, p.DominantPct, p.ReusePct, p.FPVal)
	}
	m.Lazy(dataBase, (p.Nodes-1)*p.NodeBytes+16, func(pn uint64, page *[mem.PageSize]byte) {
		at := pn * mem.PageSize
		// A node is at least 32 bytes, so none before this one
		// reaches the page.
		for i := int((at - dataBase) / uint64(p.NodeBytes)); i < p.Nodes && addr(i) < at+mem.PageSize; i++ {
			putWord(page, at, addr(i), addr(int(succ[i])))
			putWord(page, at, addr(i)+8, payload[i])
		}
	})

	b := asm.New(g.name)
	initFiller(b)
	b.Liu(isa.R1, addr(int(head))) // current node
	b.Li(isa.R4, p.Iters)
	b.Li(isa.R3, 0) // accumulator
	b.Label("outer")
	b.Li(isa.R5, int64(p.Nodes))
	b.Label("inner")
	if p.FPVal {
		b.Fld(isa.F1, isa.R1, 8) // payload: long latency, predictable
		b.Fadd(isa.F2, isa.F2, isa.F1)
		b.Ld(isa.R2, isa.R1, 8) // raw bits drive the branch
	} else {
		b.Ld(isa.R2, isa.R1, 8)
		b.Add(isa.R3, isa.R3, isa.R2)
	}
	b.Andi(isa.R6, isa.R2, 1)
	b.Beq(isa.R6, isa.R0, "even")
	b.Addi(isa.R3, isa.R3, 7)
	b.Label("even")
	b.Sd(isa.R3, isa.R1, 16)
	emitFiller(b, p.BodyOps)
	b.Ld(isa.R1, isa.R1, 0) // next pointer: stride-predictable within runs
	b.Addi(isa.R5, isa.R5, -1)
	b.Bne(isa.R5, isa.R0, "inner")
	b.Addi(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "outer")
	b.Li(isa.R7, resultBase)
	b.Sd(isa.R3, isa.R7, 0)
	if p.FPVal {
		b.Fsd(isa.F2, isa.R7, 8)
	}
	b.Halt()
	return b.MustBuild(), m
}

// StreamParams configures the streaming archetype (swim, wupwise, mgrid,
// applu, gap): dense array sweeps whose strides the prefetcher can learn,
// with piecewise-constant data so values repeat, and optional periodic
// pointer jumps that break the stride pattern (multi-plane mgrid-style
// traversals).
type StreamParams struct {
	Arrays      int // source arrays: 2 to 10 (real swim sweeps 9 grids)
	Len         int // elements per array per pass
	BlockLen    int // consecutive elements sharing one value
	PoolSize    int
	DominantPct int
	ReusePct    int
	Stride      int   // element stride in bytes (8 = dense)
	JumpEvery   int   // break the stride every this many elements (0 = never)
	JumpBytes   int   // how far the break jumps
	BodyOps     int   // filler ALU ops per element (loop-body weight)
	FP          bool  // floating point (SPEC FP) or integer (gap-style)
	Iters       int64 // passes over the arrays
}

// Stream builds a streaming benchmark.
func Stream(name string, suite Suite, p StreamParams) Benchmark {
	return Benchmark{Name: name, Suite: suite, Kind: "stream", build: streamBuilder{name, p}.build}
}

// streamBuilder builds a stream stand-in.
type streamBuilder struct {
	name string
	p    StreamParams
}

func (g streamBuilder) build(seed uint64) (*isa.Program, *mem.Memory) {
	p := g.p
	r := mem.NewRand(seed)
	m := mem.New()
	pool := valuePool(r, p.PoolSize, p.FP)

	jumps := 0
	if p.JumpEvery > 0 {
		jumps = p.Len/p.JumpEvery + 1
	}
	span := uint64(p.Len*p.Stride + jumps*p.JumpBytes + 64)
	base := func(a int) uint64 { return dataBase + uint64(a)*span }
	nArr := p.Arrays + 1 // plus the destination array
	block := max(p.BlockLen, 1)
	// The arrays lie back to back. Each is filled in whole words, so
	// when span is not a multiple of 8 an array's last word spills
	// into the next array (which overwrites it) or past the last one.
	// Each array takes a new value every block words from its first
	// word. Word k of array a is the (a*words+k)th word written, and
	// the words' addresses rise in that order.
	words := int(span+7) / 8
	n := (nArr-1)*int(span) + 8*words
	wordAddr := func(a, k int) uint64 { return base(a) + uint64(k)*8 }
	// Run the generator over the arrays once, one draw per block, and
	// mark its state before the first word that reaches each page.
	marks := make([]streamMark, (n+mem.PageSize-1)/mem.PageSize)
	pageAt := func(pg int) uint64 { return dataBase + uint64(pg)*mem.PageSize }
	pg := 0
	for a := 0; a < nArr; a++ {
		for k := 0; k < words; k += block {
			v := drawValue(r, pool, p.DominantPct, p.ReusePct, p.FP)
			end := min(k+block, words)
			for ; pg < len(marks) && wordAddr(a, end-1)+8 > pageAt(pg); pg++ {
				first := k
				for wordAddr(a, first)+8 <= pageAt(pg) {
					first++
				}
				marks[pg] = streamMark{r: *r, v: v, left: block - (first - k), a: a, k: first}
			}
		}
	}
	m.Lazy(dataBase, n, func(pn uint64, page *[mem.PageSize]byte) {
		at := pn * mem.PageSize
		mk := marks[(at-dataBase)/mem.PageSize]
		r, v, left := mk.r, mk.v, mk.left
		for a, k := mk.a, mk.k; a < nArr; a, k, left = a+1, 0, 0 {
			for ; k < words; k++ {
				if wordAddr(a, k) >= at+mem.PageSize {
					return
				}
				if left == 0 {
					v = drawValue(&r, pool, p.DominantPct, p.ReusePct, p.FP)
					left = block
				}
				left--
				putWord(page, at, wordAddr(a, k), v)
			}
		}
	})

	srcRegs := []isa.Reg{
		isa.R1, isa.R2, isa.R7, isa.R13, isa.R14,
		isa.R15, isa.R16, isa.R17, isa.R18, isa.R19,
	}[:p.Arrays]
	dst := isa.R3
	b := asm.New(g.name)
	initFiller(b)
	b.Li(isa.R4, p.Iters)
	b.Label("outer")
	for i, reg := range srcRegs {
		b.Liu(reg, base(i))
	}
	b.Liu(dst, base(p.Arrays))
	b.Li(isa.R5, int64(p.Len))
	if p.JumpEvery > 0 {
		b.Li(isa.R9, int64(p.JumpEvery))
	}
	b.Label("inner")
	if p.FP {
		b.Fld(isa.F1, srcRegs[0], 0)
		b.Fld(isa.F2, srcRegs[1], 0)
		b.Fadd(isa.F3, isa.F1, isa.F2)
		for i := 2; i < p.Arrays; i++ {
			b.Fld(isa.F4, srcRegs[i], 0)
			if i%2 == 0 {
				b.Fmul(isa.F3, isa.F3, isa.F4)
			} else {
				b.Fadd(isa.F3, isa.F3, isa.F4)
			}
		}
		b.Fadd(isa.F5, isa.F5, isa.F3) // running sum for the result
		b.Fsd(isa.F3, dst, 0)
	} else {
		b.Ld(isa.R24, srcRegs[0], 0)
		b.Ld(isa.R25, srcRegs[1], 0)
		b.Add(isa.R26, isa.R24, isa.R25)
		for i := 2; i < p.Arrays; i++ {
			b.Ld(isa.R24, srcRegs[i], 0)
			b.Add(isa.R26, isa.R26, isa.R24)
		}
		b.Add(isa.R6, isa.R6, isa.R26)
		b.Sd(isa.R26, dst, 0)
	}
	emitFiller(b, p.BodyOps)
	step := int64(p.Stride)
	for _, reg := range srcRegs {
		b.Addi(reg, reg, step)
	}
	b.Addi(dst, dst, step)
	if p.JumpEvery > 0 {
		b.Addi(isa.R9, isa.R9, -1)
		b.Bne(isa.R9, isa.R0, "nojump")
		for _, reg := range srcRegs {
			b.Addi(reg, reg, int64(p.JumpBytes))
		}
		b.Addi(dst, dst, int64(p.JumpBytes))
		b.Li(isa.R9, int64(p.JumpEvery))
		b.Label("nojump")
	}
	b.Addi(isa.R5, isa.R5, -1)
	b.Bne(isa.R5, isa.R0, "inner")
	b.Addi(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "outer")
	b.Li(isa.R8, resultBase)
	if p.FP {
		b.Fsd(isa.F5, isa.R8, 0)
	} else {
		b.Sd(isa.R6, isa.R8, 0)
	}
	b.Halt()
	return b.MustBuild(), m
}

// GatherParams configures the sparse-gather archetype (art, equake, vpr,
// galgel): a sequential index array drives random accesses into a large
// table whose entries repeat heavily — exactly the combination (L3 misses +
// high value locality) where the paper's technique shines.
type GatherParams struct {
	Items       int // index-array length per pass
	TableLen    int // gathered-table elements (8 bytes each)
	PoolSize    int
	DominantPct int
	ReusePct    int
	FPData      bool
	StoreOut    bool  // also write a sequential output array
	BodyOps     int   // filler ALU ops per item (loop-body weight)
	Iters       int64 // passes
}

// Gather builds a sparse-gather benchmark.
func Gather(name string, suite Suite, p GatherParams) Benchmark {
	return Benchmark{Name: name, Suite: suite, Kind: "gather", build: gatherBuilder{name, p}.build}
}

// gatherBuilder builds a gather stand-in.
type gatherBuilder struct {
	name string
	p    GatherParams
}

func (g gatherBuilder) build(seed uint64) (*isa.Program, *mem.Memory) {
	p := g.p
	r := mem.NewRand(seed)
	m := mem.New()
	pool := valuePool(r, p.PoolSize, p.FPData)

	idxBase := uint64(dataBase)
	tabBase := idxBase + uint64(p.Items)*8 + 4096
	outBase := tabBase + uint64(p.TableLen)*8 + 4096
	sweep{base: idxBase, n: p.Items, stride: 8, draw: func(r *mem.Rand, v []uint64) {
		for i := range v {
			v[i] = uint64(r.Intn(p.TableLen))
		}
	}}.reserve(m, r)
	// The table is read at random, so a run touches most of its pages.
	tab := m.Region(tabBase, p.TableLen*8)
	for i := 0; i < p.TableLen; i++ {
		binary.LittleEndian.PutUint64(tab[i*8:], drawValue(r, pool, p.DominantPct, p.ReusePct, p.FPData))
	}

	b := asm.New(g.name)
	initFiller(b)
	b.Li(isa.R4, p.Iters)
	b.Liu(isa.R8, tabBase)
	b.Label("outer")
	b.Liu(isa.R1, idxBase)
	if p.StoreOut {
		b.Liu(isa.R3, outBase)
	}
	b.Li(isa.R5, int64(p.Items))
	b.Label("inner")
	b.Ld(isa.R6, isa.R1, 0) // index: sequential, prefetchable
	b.Slli(isa.R6, isa.R6, 3)
	b.Add(isa.R6, isa.R6, isa.R8)
	if p.FPData {
		b.Fld(isa.F1, isa.R6, 0) // gather: misses, value-predictable
		b.Fadd(isa.F2, isa.F2, isa.F1)
		if p.StoreOut {
			b.Fsd(isa.F2, isa.R3, 0)
			b.Addi(isa.R3, isa.R3, 8)
		}
	} else {
		b.Ld(isa.R7, isa.R6, 0)
		b.Add(isa.R10, isa.R10, isa.R7)
		if p.StoreOut {
			b.Sd(isa.R10, isa.R3, 0)
			b.Addi(isa.R3, isa.R3, 8)
		}
	}
	emitFiller(b, p.BodyOps)
	b.Addi(isa.R1, isa.R1, 8)
	b.Addi(isa.R5, isa.R5, -1)
	b.Bne(isa.R5, isa.R0, "inner")
	b.Addi(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "outer")
	b.Li(isa.R9, resultBase)
	if p.FPData {
		b.Fsd(isa.F2, isa.R9, 0)
	} else {
		b.Sd(isa.R10, isa.R9, 0)
	}
	b.Halt()
	return b.MustBuild(), m
}

// BlockedParams configures the cache-resident compute archetype (crafty,
// eon, twolf, mesa, sixtrack): a small working set, long arithmetic
// dependence chains, and data-dependent branches. Memory latency is not the
// bottleneck, so value prediction has little to offer — as in the paper.
type BlockedParams struct {
	WorkingSet int  // bytes; should fit in L1/L2
	MulChain   int  // dependent multiply-add chain length per element
	FP         bool // FP arithmetic (mesa/sixtrack) vs integer (crafty)
	// SideTableLen, when nonzero, adds a periodic long-latency load: every
	// SideEvery elements, one load from a SideTableLen-entry table at a
	// data-dependent (unpredictable) address whose *value* is dominant —
	// the §5.3 scenario where a spawned thread runs hundreds of resident
	// instructions (and stores) before its prediction resolves, making
	// store-buffer capacity the binding limit. SideTableLen must be a
	// power of two.
	SideTableLen int
	SideEvery    int
	SideDominant int // percent of side-table entries equal to the dominant value
	Iters        int64
}

// Blocked builds a cache-resident compute benchmark.
func Blocked(name string, suite Suite, p BlockedParams) Benchmark {
	return Benchmark{Name: name, Suite: suite, Kind: "blocked", build: blockedBuilder{name, p}.build}
}

// blockedBuilder builds a blocked stand-in.
type blockedBuilder struct {
	name string
	p    BlockedParams
}

func (g blockedBuilder) build(seed uint64) (*isa.Program, *mem.Memory) {
	p := g.p
	r := mem.NewRand(seed)
	m := mem.New()
	elems := p.WorkingSet / 16
	// Each element is a value word and a zero result word.
	sweep{base: dataBase, n: elems, stride: 16, draw: func(r *mem.Rand, v []uint64) {
		for i := range v {
			v[i] = uint64(r.Intn(1 << 12))
		}
	}}.reserve(m, r)
	sideBase := uint64(dataBase) + uint64(p.WorkingSet) + 1<<20
	if p.SideTableLen > 0 {
		// The side table is read at random, so a run touches most of
		// its pages.
		pool := valuePool(r, 6, false)
		side := m.Region(sideBase, p.SideTableLen*8)
		for i := 0; i < p.SideTableLen; i++ {
			binary.LittleEndian.PutUint64(side[i*8:], drawValue(r, pool, p.SideDominant, 4, false))
		}
	}

	b := asm.New(g.name)
	b.Li(isa.R4, p.Iters)
	b.Li(isa.R3, 3)
	if p.FP {
		b.Li(isa.R10, 3)
		b.Itof(isa.F3, isa.R10)
	}
	if p.SideTableLen > 0 {
		b.Liu(isa.R19, sideBase)
		b.Li(isa.R9, int64(p.SideEvery))
		b.Li(isa.R26, 0)
	}
	b.J("start")
	// Compute helper, called once per element: exercises the call/
	// return path (and the return-address stack) the way real
	// compute kernels do.
	b.Label("helper")
	if p.FP {
		b.Itof(isa.F1, isa.R2)
		for i := 0; i < p.MulChain; i++ {
			b.Fmul(isa.F3, isa.F3, isa.F1)
			b.Fadd(isa.F3, isa.F3, isa.F1)
		}
		b.Ftoi(isa.R6, isa.F3)
		b.Andi(isa.R6, isa.R6, 3)
	} else {
		for i := 0; i < p.MulChain; i++ {
			b.Mul(isa.R3, isa.R3, isa.R2)
			b.Add(isa.R3, isa.R3, isa.R2)
		}
		b.Andi(isa.R6, isa.R2, 3)
	}
	b.Jr(isa.R28)
	b.Label("start")
	b.Label("outer")
	b.Liu(isa.R1, dataBase)
	b.Li(isa.R5, int64(elems))
	b.Label("inner")
	b.Ld(isa.R2, isa.R1, 0) // cache-resident load
	b.Jal(isa.R28, "helper")
	b.Beq(isa.R6, isa.R0, "sk1")
	b.Addi(isa.R3, isa.R3, 1)
	b.Label("sk1")
	b.Andi(isa.R7, isa.R2, 4)
	b.Beq(isa.R7, isa.R0, "sk2")
	b.Xor(isa.R3, isa.R3, isa.R2)
	b.Label("sk2")
	b.Sd(isa.R3, isa.R1, 8)
	if p.SideTableLen > 0 {
		b.Addi(isa.R9, isa.R9, -1)
		b.Bne(isa.R9, isa.R0, "noside")
		// Periodic gather at a data-dependent address: misses to
		// memory, but its value is dominant and so predictable.
		b.Add(isa.R27, isa.R19, isa.R26)
		b.Ld(isa.R24, isa.R27, 0)
		b.Add(isa.R3, isa.R3, isa.R24)
		b.Muli(isa.R26, isa.R26, 0x9E3779B1)
		b.Add(isa.R26, isa.R26, isa.R24)
		b.Addi(isa.R26, isa.R26, 104729)
		b.Andi(isa.R26, isa.R26, int64(p.SideTableLen-1)*8)
		b.Andi(isa.R27, isa.R26, 7)
		b.Sub(isa.R26, isa.R26, isa.R27) // 8-align the offset
		b.Li(isa.R9, int64(p.SideEvery))
		b.Label("noside")
	}
	b.Addi(isa.R1, isa.R1, 16)
	b.Addi(isa.R5, isa.R5, -1)
	b.Bne(isa.R5, isa.R0, "inner")
	b.Addi(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "outer")
	b.Li(isa.R9, resultBase)
	b.Sd(isa.R3, isa.R9, 0)
	b.Halt()
	return b.MustBuild(), m
}

// HashParams configures the hash-lookup archetype (gzip, perlbmk, vortex,
// gap): sequential input hashed into a table whose size sets the miss
// level; table payloads reuse a pool, and optional read-modify-write churn
// (compression updating its dictionary) erodes that locality.
type HashParams struct {
	InputLen    int // sequential input elements per pass
	TableLen    int // table elements; footprint = 8 * TableLen
	PoolSize    int
	DominantPct int
	ReusePct    int
	Update      bool // read-modify-write the table entry
	BodyOps     int  // filler ALU ops per lookup (loop-body weight)
	Iters       int64
}

// Hash builds a hash-lookup benchmark.
func Hash(name string, suite Suite, p HashParams) Benchmark {
	return Benchmark{Name: name, Suite: suite, Kind: "hash", build: hashBuilder{name, p}.build}
}

// hashBuilder builds a hash stand-in.
type hashBuilder struct {
	name string
	p    HashParams
}

func (g hashBuilder) build(seed uint64) (*isa.Program, *mem.Memory) {
	p := g.p
	r := mem.NewRand(seed)
	m := mem.New()
	pool := valuePool(r, p.PoolSize, false)

	inBase := uint64(dataBase)
	tabBase := inBase + uint64(p.InputLen)*8 + 4096
	sweep{base: inBase, n: p.InputLen, stride: 8, draw: func(r *mem.Rand, v []uint64) {
		for i := range v {
			v[i] = r.Next() >> 8
		}
	}}.reserve(m, r)
	// The table is read at random, so a run touches most of its pages.
	tab := m.Region(tabBase, p.TableLen*8)
	for i := 0; i < p.TableLen; i++ {
		binary.LittleEndian.PutUint64(tab[i*8:], drawValue(r, pool, p.DominantPct, p.ReusePct, false))
	}
	shift := int64(64)
	for 1<<(64-shift) < p.TableLen {
		shift--
	}

	b := asm.New(g.name)
	initFiller(b)
	b.Li(isa.R4, p.Iters)
	b.Liu(isa.R8, tabBase)
	b.Label("outer")
	b.Liu(isa.R1, inBase)
	b.Li(isa.R5, int64(p.InputLen))
	b.Label("inner")
	b.Ld(isa.R2, isa.R1, 0) // input: sequential
	b.Muli(isa.R3, isa.R2, -0x61c8864680b583eb)
	b.Srli(isa.R3, isa.R3, shift)
	b.Slli(isa.R3, isa.R3, 3)
	b.Add(isa.R3, isa.R3, isa.R8)
	b.Ld(isa.R7, isa.R3, 0) // table: pseudo-random, miss level by size
	b.Add(isa.R6, isa.R6, isa.R7)
	if p.Update {
		b.Xor(isa.R7, isa.R7, isa.R2)
		b.Sd(isa.R7, isa.R3, 0)
	}
	b.Andi(isa.R10, isa.R7, 1)
	b.Beq(isa.R10, isa.R0, "noadd")
	b.Addi(isa.R6, isa.R6, 3)
	b.Label("noadd")
	emitFiller(b, p.BodyOps)
	b.Addi(isa.R1, isa.R1, 8)
	b.Addi(isa.R5, isa.R5, -1)
	b.Bne(isa.R5, isa.R0, "inner")
	b.Addi(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "outer")
	b.Li(isa.R9, resultBase)
	b.Sd(isa.R6, isa.R9, 0)
	b.Halt()
	return b.MustBuild(), m
}

// BranchyParams configures the token-processing archetype (the gcc inputs,
// perlbmk): a byte stream classified through compare-and-branch chains with
// a tunable class skew, plus a side-table load keyed by accumulated state.
type BranchyParams struct {
	Tokens   int // token-stream length per pass
	Classes  int // token classes (2..5); more classes = more branch entropy
	BiasPct  int // percent of tokens in class 0 (predictability)
	TableLen int // side-table elements (working set beyond the stream)
	Iters    int64
}

// Branchy builds a token-processing benchmark.
func Branchy(name string, suite Suite, p BranchyParams) Benchmark {
	return Benchmark{Name: name, Suite: suite, Kind: "branchy", build: branchyBuilder{name, p}.build}
}

// branchyBuilder builds a branchy stand-in.
type branchyBuilder struct {
	name string
	p    BranchyParams
}

func (g branchyBuilder) build(seed uint64) (*isa.Program, *mem.Memory) {
	p := g.p
	r := mem.NewRand(seed)
	m := mem.New()
	tokBase := uint64(dataBase)
	tabBase := tokBase + uint64(p.Tokens) + 4096
	// The token stream is swept, but written now: the side table's draws
	// follow its draws, so the build draws every token anyway, and the
	// draws are branch-bound, so a fill drawing a page's 4,096 tokens again
	// would cost more than these writes.
	toks := m.Region(tokBase, p.Tokens)
	for i := range toks {
		if r.Intn(100) >= p.BiasPct {
			toks[i] = byte(1 + r.Intn(p.Classes-1))
		}
	}
	// The kernel indexes the side table by token address, so it too is
	// read in address order.
	sweep{base: tabBase, n: p.TableLen, stride: 8, draw: func(r *mem.Rand, v []uint64) {
		for i := range v {
			v[i] = uint64(r.Intn(1 << 10))
		}
	}}.reserve(m, r)
	mask := int64(p.TableLen - 1)

	b := asm.New(g.name)
	b.Li(isa.R4, p.Iters)
	b.Liu(isa.R8, tabBase)
	b.Label("outer")
	b.Liu(isa.R1, tokBase)
	b.Li(isa.R5, int64(p.Tokens))
	b.Label("inner")
	b.Lb(isa.R2, isa.R1, 0)
	b.Beq(isa.R2, isa.R0, "case0")
	b.Li(isa.R7, 1)
	b.Beq(isa.R2, isa.R7, "case1")
	b.Li(isa.R7, 2)
	b.Beq(isa.R2, isa.R7, "case2")
	b.Add(isa.R3, isa.R3, isa.R2) // default
	b.J("join")
	b.Label("case0")
	b.Addi(isa.R3, isa.R3, 1)
	b.J("join")
	b.Label("case1")
	b.Muli(isa.R3, isa.R3, 5)
	b.Addi(isa.R3, isa.R3, 11)
	b.J("join")
	b.Label("case2")
	b.Andi(isa.R6, isa.R1, mask)
	b.Slli(isa.R6, isa.R6, 3)
	b.Add(isa.R6, isa.R6, isa.R8)
	b.Ld(isa.R7, isa.R6, 0) // data-dependent side-table load
	b.Add(isa.R3, isa.R3, isa.R7)
	b.Label("join")
	b.Addi(isa.R1, isa.R1, 1)
	b.Addi(isa.R5, isa.R5, -1)
	b.Bne(isa.R5, isa.R0, "inner")
	b.Addi(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "outer")
	b.Li(isa.R9, resultBase)
	b.Sd(isa.R3, isa.R9, 0)
	b.Halt()
	return b.MustBuild(), m
}

// SortParams configures the block-sort archetype (the bzip2 inputs, twolf):
// a sequential sweep with data-dependent secondary accesses inside a large
// window, conditional swaps, and evolving data.
type SortParams struct {
	BufLen  int // buffer elements (8 bytes each)
	Window  int // power-of-two window for the dependent access
	BodyOps int // filler ALU ops per element (loop-body weight)
	Iters   int64
}

// BlockSort builds a block-sort benchmark.
func BlockSort(name string, suite Suite, p SortParams) Benchmark {
	return Benchmark{Name: name, Suite: suite, Kind: "sort", build: sortBuilder{name, p}.build}
}

// sortBuilder builds a sort stand-in.
type sortBuilder struct {
	name string
	p    SortParams
}

func (g sortBuilder) build(seed uint64) (*isa.Program, *mem.Memory) {
	p := g.p
	r := mem.NewRand(seed)
	m := mem.New()
	sweep{base: dataBase, n: p.BufLen, stride: 8, draw: func(r *mem.Rand, v []uint64) {
		for i := range v {
			v[i] = r.Next() >> 40
		}
	}}.reserve(m, r)
	mask := int64(p.Window - 1)

	b := asm.New(g.name)
	initFiller(b)
	b.Li(isa.R4, p.Iters)
	b.Liu(isa.R8, dataBase)
	b.Label("outer")
	b.Liu(isa.R1, dataBase)
	b.Li(isa.R5, int64(p.BufLen-p.Window))
	b.Label("inner")
	b.Ld(isa.R2, isa.R1, 0) // sequential element
	b.Andi(isa.R6, isa.R2, mask)
	b.Slli(isa.R6, isa.R6, 3)
	b.Add(isa.R6, isa.R1, isa.R6)
	b.Ld(isa.R7, isa.R6, 8) // data-dependent within the window
	b.Bltu(isa.R7, isa.R2, "noswap")
	b.Sd(isa.R2, isa.R6, 8) // conditional swap-down
	b.Label("noswap")
	b.Add(isa.R3, isa.R3, isa.R7)
	emitFiller(b, p.BodyOps)
	b.Addi(isa.R1, isa.R1, 8)
	b.Addi(isa.R5, isa.R5, -1)
	b.Bne(isa.R5, isa.R0, "inner")
	b.Addi(isa.R4, isa.R4, -1)
	b.Bne(isa.R4, isa.R0, "outer")
	b.Li(isa.R9, resultBase)
	b.Sd(isa.R3, isa.R9, 0)
	b.Halt()
	return b.MustBuild(), m
}

// emitFiller emits n register-only ALU operations spread over three
// independent chains. Real SPEC loop bodies run 50-200 instructions; the
// filler gives each kernel iteration a realistic footprint in the ROB and
// issue queues, which is what bounds how far a single thread can speculate
// past a stalled load.
func emitFiller(b *asm.Builder, n int) {
	regs := [3]isa.Reg{isa.R20, isa.R21, isa.R22}
	for i := 0; i < n; i++ {
		r := regs[i%3]
		switch i % 7 {
		case 3:
			b.Xori(r, r, 0x5a5a)
		case 6:
			b.Mul(r, r, regs[(i+1)%3])
		default:
			b.Addi(r, r, int64(i%13)+1)
		}
	}
}

// initFiller seeds the filler chains.
func initFiller(b *asm.Builder) {
	b.Li(isa.R20, 3)
	b.Li(isa.R21, 5)
	b.Li(isa.R22, 7)
}

// streamMark is a stream image's generator state before word k of array
// a, the first word that reaches some page: the Rand after the draw of the
// word's block, that draw v, and the words of the block left to write, the
// word itself included.
type streamMark struct {
	r    mem.Rand
	v    uint64
	left int
	a, k int
}

// putWord writes the bytes of the little-endian word v at addr that fall
// on the page at pageAddr.
func putWord(page *[mem.PageSize]byte, pageAddr, addr, v uint64) {
	if addr >= pageAddr && addr+8 <= pageAddr+mem.PageSize {
		binary.LittleEndian.PutUint64(page[addr-pageAddr:], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		if b := addr + i; b >= pageAddr && b < pageAddr+mem.PageSize {
			page[b-pageAddr] = byte(v >> (8 * i))
		}
	}
}

// sweep is a data area its kernel reads in address order, drawn in that
// order from one generator: element i, the little-endian word at
// base+i*stride, holds the ith draw, and the bytes between elements stay
// zero.
type sweep struct {
	base   uint64
	n      int
	stride int // 8 or more
	// draw draws the next len(v) elements into v. It may take any number
	// of values from r per element and must read nothing that changes
	// after the build. Drawing a run of elements per call keeps each
	// archetype's draw loop compiled with the generator inlined.
	draw func(r *mem.Rand, v []uint64)
}

// sweepChunk is the most elements one call of draw draws.
const sweepChunk = 64

// reserve reserves the area's n*stride bytes with m.Lazy. It runs r through
// every draw of the area, so r ends where writing the area eagerly would
// have left it, and keeps a copy of r before the first element that
// reaches each page (8 bytes a page). A page's fill replays the draws of
// the elements on it from that mark.
func (s sweep) reserve(m *mem.Memory, r *mem.Rand) {
	if s.n == 0 {
		return
	}
	first := s.base / mem.PageSize
	marks := make([]mem.Rand, (s.base+uint64(s.n*s.stride)-1)/mem.PageSize-first+1)
	buf := make([]uint64, sweepChunk)
	for pg := range marks {
		marks[pg] = *r
		at := (first + uint64(pg)) * mem.PageSize
		for i, end := s.firstOn(at), s.firstOn(at+mem.PageSize); i < end; i += sweepChunk {
			s.draw(r, buf[:min(sweepChunk, end-i)])
		}
	}
	m.Lazy(s.base, s.n*s.stride, func(pn uint64, page *[mem.PageSize]byte) {
		at := pn * mem.PageSize
		r := marks[pn-first]
		buf := make([]uint64, sweepChunk)
		// The elements that reach the page and start on it: an element
		// starts past the page exactly when its last byte is at or after
		// at+PageSize+7.
		for i, end := s.firstOn(at), s.firstOn(at+mem.PageSize+7); i < end; i += sweepChunk {
			v := buf[:min(sweepChunk, end-i)]
			s.draw(&r, v)
			for k, x := range v {
				putWord(page, at, s.base+uint64(i+k)*uint64(s.stride), x)
			}
		}
	})
}

// firstOn returns the first element with a byte at or after addr (n if
// none): the first element that reaches the page at addr.
func (s sweep) firstOn(addr uint64) int {
	if addr < s.base+8 {
		return 0
	}
	return min(s.n, int((addr-s.base-8)/uint64(s.stride))+1)
}
