package core_test

import (
	"flag"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/isa"
	"mtvp/internal/mem"
	"mtvp/internal/workload"
)

// perCycle moves the package's simulations from the event calendar onto
// the per-cycle reference engine, so the oracle sweeps and golden numbers
// can be re-run there:
//
//	go test ./internal/core -run TestGoldenDeterminism -args -percycle
var perCycle = flag.Bool("percycle", false, "run simulations on the per-cycle reference engine (Config.PerCycle)")

// runCore is core.Run under the -percycle selection.
func runCore(cfg config.Config, prog *isa.Program, image *mem.Memory) (*core.Result, error) {
	if *perCycle {
		cfg.PerCycle = true
	}
	return core.Run(cfg, prog, image)
}

// smallBenchmarks returns one small instance per archetype, sized so runs
// reach HALT quickly but still leave the caches.
func smallBenchmarks() []workload.Benchmark {
	return []workload.Benchmark{
		workload.PointerChase("t-chase", workload.INT, workload.ChaseParams{
			Nodes: 512, NodeBytes: 64, PoolSize: 8, DominantPct: 90, ReusePct: 5, Iters: 4,
		}),
		workload.PointerChase("t-chase-fp", workload.FP, workload.ChaseParams{
			Nodes: 256, NodeBytes: 64, PoolSize: 8, DominantPct: 85, ReusePct: 5, FPVal: true, Iters: 3,
		}),
		workload.Stream("t-stream", workload.FP, workload.StreamParams{
			Arrays: 3, Len: 1024, BlockLen: 16, PoolSize: 8, DominantPct: 70, ReusePct: 20,
			Stride: 8, JumpEvery: 64, JumpBytes: 512, FP: true, Iters: 3,
		}),
		workload.Gather("t-gather", workload.FP, workload.GatherParams{
			Items: 1024, TableLen: 4096, PoolSize: 8, DominantPct: 90, ReusePct: 5,
			FPData: true, StoreOut: true, Iters: 3,
		}),
		workload.Blocked("t-blocked", workload.INT, workload.BlockedParams{
			WorkingSet: 8 << 10, MulChain: 2, Iters: 4,
		}),
		workload.Blocked("t-blocked-side", workload.INT, workload.BlockedParams{
			WorkingSet: 4 << 10, MulChain: 1,
			SideTableLen: 1 << 12, SideEvery: 24, SideDominant: 92, Iters: 4,
		}),
		workload.Blocked("t-blocked-fp", workload.FP, workload.BlockedParams{
			WorkingSet: 4 << 10, MulChain: 2, FP: true, Iters: 3,
		}),
		workload.Hash("t-hash", workload.INT, workload.HashParams{
			InputLen: 1024, TableLen: 1 << 12, PoolSize: 8, DominantPct: 60, ReusePct: 20,
			Update: true, Iters: 3,
		}),
		workload.Branchy("t-branchy", workload.INT, workload.BranchyParams{
			Tokens: 2048, Classes: 4, BiasPct: 55, TableLen: 1 << 10, Iters: 3,
		}),
		workload.BlockSort("t-sort", workload.INT, workload.SortParams{
			BufLen: 4096, Window: 256, Iters: 3,
		}),
	}
}

// machines returns every machine configuration the paper evaluates, with
// run limits suitable for running small kernels to completion.
func machines() map[string]config.Config {
	limit := func(c config.Config) config.Config {
		c.MaxInsts = 50_000_000
		c.MaxCycles = 200_000_000
		return c
	}
	return map[string]config.Config{
		"baseline":     limit(core.Baseline()),
		"stvp-oracle":  limit(core.STVPOracleLimit()),
		"stvp-wf":      limit(core.STVP(config.PredWangFranklin, config.SelILPPred)),
		"stvp-dfcm":    limit(core.STVP(config.PredDFCM, config.SelILPPred)),
		"mtvp2-oracle": limit(core.MTVPOracleLimit(2)),
		"mtvp4-oracle": limit(core.MTVPOracleLimit(4)),
		"mtvp8-oracle": limit(core.MTVPOracleLimit(8)),
		"mtvp4-wf":     limit(core.MTVP(4, config.PredWangFranklin, config.SelILPPred)),
		"mtvp4-wf-l3":  limit(core.MTVP(4, config.PredWangFranklin, config.SelL3Oracle)),
		"mtvp4-always": limit(core.MTVP(4, config.PredWangFranklin, config.SelAlways)),
		"mtvp4-nostall": limit(core.MTVPNoStall(4,
			config.PredWangFranklin, config.SelILPPred)),
		"mtvp4-multival": limit(core.MTVPMultiValue(4, 3, 6)),
		"spawn-only":     limit(core.SpawnOnly(4)),
		"wide-window":    limit(core.WideWindow()),
	}
}

// TestArchitecturalEquivalence is the load-bearing invariant of the whole
// simulator: no machine configuration — no matter how aggressively it
// speculates — may change the program's architectural results. Every small
// kernel must halt with exactly the memory image and register file the
// pure functional interpreter produces.
func TestArchitecturalEquivalence(t *testing.T) {
	for _, bench := range smallBenchmarks() {
		bench := bench
		t.Run(bench.Name, func(t *testing.T) {
			// Reference: pure functional execution.
			refProg, refMem := bench.Build(7)
			refCtx := isa.NewContext(refProg, refMem)
			refN := refCtx.Run(1 << 40)
			if !refCtx.Halted {
				t.Fatalf("reference run did not halt after %d insts", refN)
			}

			for name, cfg := range machines() {
				prog, image := bench.Build(7)
				res, err := runCore(cfg, prog, image)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !res.Halted {
					t.Fatalf("%s: did not halt (committed %d, cycles %d)",
						name, res.Stats.Committed, res.Stats.Cycles)
				}
				if res.Stats.Committed != refN {
					t.Errorf("%s: committed %d useful insts, reference executed %d",
						name, res.Stats.Committed, refN)
				}
				if addr, diff := image.Diff(refMem); diff {
					t.Errorf("%s: memory differs at %#x: got %#x want %#x",
						name, addr, image.Load(addr, 8), refMem.Load(addr, 8))
				}
			}
		})
	}
}

// TestRegisterEquivalence checks the surviving thread's register file
// matches functional execution across machines.
func TestRegisterEquivalence(t *testing.T) {
	bench := smallBenchmarks()[0]
	refProg, refMem := bench.Build(3)
	refCtx := isa.NewContext(refProg, refMem)
	refCtx.Run(1 << 40)

	for _, name := range []string{"baseline", "mtvp4-oracle", "mtvp4-wf", "spawn-only", "wide-window"} {
		cfg := machines()[name]
		prog, image := bench.Build(3)
		res, err := runCore(cfg, prog, image)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Halted {
			t.Fatalf("%s: did not halt", name)
		}
		if !res.RegsOK {
			t.Fatalf("%s: no surviving architectural thread", name)
		}
		for r := 0; r < isa.NumRegs; r++ {
			if res.Regs[r] != refCtx.R[r] {
				t.Errorf("%s: reg %d = %#x, want %#x", name, r, res.Regs[r], refCtx.R[r])
			}
		}
	}
}
