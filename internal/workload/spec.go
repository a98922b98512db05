package workload

// This file instantiates the SPEC CPU2000 stand-ins. Parameters are chosen
// to place each benchmark where the paper's data places it along three
// axes: memory-boundedness (table/working-set size vs the 4MB L3),
// load-value locality (DominantPct/ReusePct — what fraction of loads a
// strict-confidence predictor can cover), and available ILP / branchiness.
//
// The long pass counts (iters) are effectively infinite: experiment runs
// stop on a committed-instruction budget, so every run samples the kernel's
// steady state, like the paper's SimPoint windows.

const iters = 1 << 20

func init() {
	// ---- SPEC INT ----------------------------------------------------

	// gzip: hash-table compression. Dictionary updates churn the table, so
	// value locality is moderate; the table spills the L2.
	register(Hash("gzip g", INT, HashParams{
		InputLen: 64 << 10, TableLen: 1 << 17, PoolSize: 24,
		DominantPct: 55, ReusePct: 25, Update: true, BodyOps: 40, Iters: iters,
	}))
	register(Hash("gzip r", INT, HashParams{
		InputLen: 64 << 10, TableLen: 1 << 18, PoolSize: 24,
		DominantPct: 40, ReusePct: 25, Update: true, BodyOps: 40, Iters: iters,
	}))

	// vpr: placement/routing — scattered reads of a large routing-resource
	// table with strongly repeated costs. The paper's realistic-predictor
	// standout (224%+).
	register(Gather("vpr r", INT, GatherParams{
		Items: 64 << 10, TableLen: 1 << 20, PoolSize: 12,
		DominantPct: 92, ReusePct: 5, StoreOut: true, BodyOps: 50, Iters: iters,
	}))

	// gcc inputs: branchy token processing over small tables; little
	// memory stall, so value prediction has little traction.
	register(Branchy("gcc 1", INT, BranchyParams{
		Tokens: 64 << 10, Classes: 4, BiasPct: 60, TableLen: 1 << 12, Iters: iters,
	}))
	register(Branchy("gcc 2", INT, BranchyParams{
		Tokens: 64 << 10, Classes: 5, BiasPct: 45, TableLen: 1 << 13, Iters: iters,
	}))
	register(Branchy("gcc e", INT, BranchyParams{
		Tokens: 48 << 10, Classes: 3, BiasPct: 70, TableLen: 1 << 12, Iters: iters,
	}))
	register(Branchy("gcc i", INT, BranchyParams{
		Tokens: 64 << 10, Classes: 4, BiasPct: 50, TableLen: 1 << 14, Iters: iters,
	}))

	// mcf: the canonical pointer chaser — a 16MB arc network walked in
	// randomised order, with mostly-zero cost fields. Misses to memory on
	// nearly every node; huge MTVP headroom.
	register(PointerChase("mcf", INT, ChaseParams{
		Nodes: 1 << 18, NodeBytes: 64, PoolSize: 8,
		DominantPct: 93, ReusePct: 4, SeqPct: 88, BodyOps: 70, Iters: iters,
	}))

	// crafty: bitboard chess — cache-resident, multiply-heavy.
	register(Blocked("crafty", INT, BlockedParams{
		WorkingSet: 32 << 10, MulChain: 3, Iters: iters,
	}))

	// parser: dictionary linked lists, mid-sized, moderately repeated
	// payloads.
	register(PointerChase("parser", INT, ChaseParams{
		Nodes: 1 << 16, NodeBytes: 64, PoolSize: 16,
		DominantPct: 88, ReusePct: 8, SeqPct: 60, BodyOps: 55, Iters: iters,
	}))

	// eon: C++ ray tracing — cache-resident FP-flavoured compute.
	register(Blocked("eon r", INT, BlockedParams{
		WorkingSet: 48 << 10, MulChain: 2, FP: true, Iters: iters,
	}))

	// perlbmk: hash-driven interpreter state, mostly L2-resident.
	register(Hash("perlbmk", INT, HashParams{
		InputLen: 32 << 10, TableLen: 1 << 14, PoolSize: 24,
		DominantPct: 70, ReusePct: 15, BodyOps: 35, Iters: iters,
	}))

	// gap: computer algebra over large integer vectors — streaming.
	register(Stream("gap", INT, StreamParams{
		Arrays: 2, Len: 128 << 10, BlockLen: 16, PoolSize: 16,
		DominantPct: 60, ReusePct: 20, Stride: 8, BodyOps: 25, Iters: iters,
	}))

	// vortex: object database — large lookup structures with highly
	// repeated fields.
	register(Hash("vortex", INT, HashParams{
		InputLen: 64 << 10, TableLen: 1 << 19, PoolSize: 12,
		DominantPct: 90, ReusePct: 6, BodyOps: 45, Iters: iters,
	}))

	// bzip2: block sorting with data-dependent secondary accesses.
	register(BlockSort("bzip g", INT, SortParams{
		BufLen: 1 << 19, Window: 1 << 10, BodyOps: 30, Iters: iters,
	}))
	register(BlockSort("bzip p", INT, SortParams{
		BufLen: 1 << 20, Window: 1 << 12, BodyOps: 30, Iters: iters,
	}))

	// twolf: annealing over a mid-sized cell grid; mostly cache-resident.
	register(Blocked("twolf", INT, BlockedParams{
		WorkingSet: 96 << 10, MulChain: 1, Iters: iters,
	}))

	// ---- SPEC FP -----------------------------------------------------

	// wupwise: lattice QCD — dense streams with smooth (run-repeated)
	// values.
	register(Stream("wupwise", FP, StreamParams{
		Arrays: 6, Len: 128 << 10, BlockLen: 32, PoolSize: 12,
		DominantPct: 55, ReusePct: 30, Stride: 8, BodyOps: 30, FP: true, Iters: iters,
	}))

	// swim: shallow water — large piecewise-smooth grids; the prefetcher
	// catches the strides but plane boundaries break it, and values are
	// highly run-repeated (131% in Figure 3).
	register(Stream("swim", FP, StreamParams{
		Arrays: 9, Len: 96 << 10, BlockLen: 64, PoolSize: 8,
		DominantPct: 80, ReusePct: 15, Stride: 8,
		JumpEvery: 512, JumpBytes: 4096, BodyOps: 35, FP: true, Iters: iters,
	}))

	// mgrid: multigrid — frequent plane jumps defeat the stride tables.
	register(Stream("mgrid", FP, StreamParams{
		Arrays: 3, Len: 128 << 10, BlockLen: 16, PoolSize: 12,
		DominantPct: 60, ReusePct: 25, Stride: 8,
		JumpEvery: 64, JumpBytes: 8192, BodyOps: 30, FP: true, Iters: iters,
	}))

	// applu: SSOR solver — wider-strided streams.
	register(Stream("applu", FP, StreamParams{
		Arrays: 5, Len: 96 << 10, BlockLen: 48, PoolSize: 12,
		DominantPct: 55, ReusePct: 25, Stride: 16, BodyOps: 35, FP: true, Iters: iters,
	}))

	// mesa: software rasteriser — cache-resident FP.
	register(Blocked("mesa", FP, BlockedParams{
		WorkingSet: 64 << 10, MulChain: 2, FP: true, Iters: iters,
	}))

	// galgel: fluid dynamics with gather-style sparse access.
	register(Gather("galgel", FP, GatherParams{
		Items: 64 << 10, TableLen: 1 << 19, PoolSize: 16,
		DominantPct: 75, ReusePct: 15, FPData: true, BodyOps: 40, Iters: iters,
	}))

	// art: neural network — huge gather tables of thresholded (massively
	// repeated) activations; the paper's biggest winner.
	register(Gather("art 1", FP, GatherParams{
		Items: 96 << 10, TableLen: 1 << 21, PoolSize: 6,
		DominantPct: 93, ReusePct: 5, FPData: true, StoreOut: true, BodyOps: 45, Iters: iters,
	}))
	register(Gather("art 4", FP, GatherParams{
		Items: 96 << 10, TableLen: 1 << 21, PoolSize: 6,
		DominantPct: 88, ReusePct: 8, FPData: true, StoreOut: true, BodyOps: 45, Iters: iters,
	}))

	// equake: sparse matrix-vector — indirect, moderate value reuse.
	register(Gather("equake", FP, GatherParams{
		Items: 64 << 10, TableLen: 1 << 20, PoolSize: 24,
		DominantPct: 60, ReusePct: 20, FPData: true, BodyOps: 50, Iters: iters,
	}))

	// facerec: image-graph matching — gathers over a mid-sized model.
	register(Gather("facerec", FP, GatherParams{
		Items: 64 << 10, TableLen: 1 << 19, PoolSize: 20,
		DominantPct: 70, ReusePct: 15, FPData: true, BodyOps: 40, Iters: iters,
	}))

	// ammp: molecular dynamics — pointer-linked atom lists with FP
	// payloads.
	register(PointerChase("ammp", FP, ChaseParams{
		Nodes: 1 << 17, NodeBytes: 64, PoolSize: 12,
		DominantPct: 85, ReusePct: 8, SeqPct: 72, BodyOps: 50, FPVal: true, Iters: iters,
	}))

	// lucas: Lucas-Lehmer FFT — large-stride sweeps (one element per
	// line), hard on the L1 but stride-learnable.
	register(Stream("lucas", FP, StreamParams{
		Arrays: 2, Len: 64 << 10, BlockLen: 32, PoolSize: 16,
		DominantPct: 50, ReusePct: 25, Stride: 64, BodyOps: 25, FP: true, Iters: iters,
	}))

	// fma3d: crash simulation — many medium streams.
	register(Stream("fma3d", FP, StreamParams{
		Arrays: 8, Len: 64 << 10, BlockLen: 48, PoolSize: 16,
		DominantPct: 50, ReusePct: 25, Stride: 24, BodyOps: 30, FP: true, Iters: iters,
	}))

	// sixtrack: particle tracking — long FP dependence chains, resident.
	register(Blocked("sixtrack", FP, BlockedParams{
		WorkingSet: 128 << 10, MulChain: 4, FP: true, Iters: iters,
	}))

	// apsi: pollution modelling — streams with occasional plane breaks.
	register(Stream("apsi", FP, StreamParams{
		Arrays: 4, Len: 96 << 10, BlockLen: 40, PoolSize: 16,
		DominantPct: 60, ReusePct: 20, Stride: 8,
		JumpEvery: 256, JumpBytes: 2048, BodyOps: 30, FP: true, Iters: iters,
	}))
}

// ResidentMiss is the §5.3 store-buffer kernel: long cache-resident
// stretches (many stores) between predictable long-latency loads, where
// the per-context store buffer genuinely binds. It is not a SPEC stand-in,
// so All does not list it; ByName finds it, so a remote worker can run the
// store-buffer sweep's cells on it.
var ResidentMiss = Blocked("resident+miss", INT, BlockedParams{
	WorkingSet: 16 << 10, MulChain: 1,
	SideTableLen: 1 << 20, SideEvery: 96, SideDominant: 96,
	Iters: 1 << 20,
})
