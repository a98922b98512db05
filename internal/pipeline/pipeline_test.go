package pipeline

import (
	"runtime"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/isa"
	"mtvp/internal/stats"
	"mtvp/internal/workload"
)

// chaseBench builds a small pointer-chase kernel: serially dependent,
// memory-missing, value-predictable — the workload MTVP is made for.
func chaseBench(nodes int, iters int64) workload.Benchmark {
	return workload.PointerChase("pl-chase", workload.INT, workload.ChaseParams{
		Nodes: nodes, NodeBytes: 64, PoolSize: 4,
		DominantPct: 95, ReusePct: 3, SeqPct: 90, BodyOps: 24, Iters: iters,
	})
}

func runBench(t *testing.T, b workload.Benchmark, cfg config.Config) (*Engine, *stats.Stats) {
	t.Helper()
	cfg.MaxInsts = 40_000_000
	cfg.MaxCycles = 100_000_000
	prog, image := b.Build(5)
	st := &stats.Stats{}
	eng, err := New(&cfg, prog, image, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng, st
}

func TestBaselineCommitsMatchFunctional(t *testing.T) {
	b := chaseBench(128, 3)
	prog, image := b.Build(5)
	ref := isa.NewContext(prog, image.Clone())
	refN := ref.Run(1 << 40)

	_, st := runBench(t, b, config.Baseline())
	if st.Committed != refN {
		t.Errorf("committed %d, functional %d", st.Committed, refN)
	}
}

func TestResourceAccountingReturnsToZero(t *testing.T) {
	for _, contexts := range []int{1, 4, 8} {
		cfg := config.Baseline()
		if contexts > 1 {
			cfg = cfg.WithMTVP(contexts, config.PredWangFranklin, config.SelILPPred)
		}
		eng, _ := runBench(t, chaseBench(256, 3), cfg)
		if !eng.Halted() {
			t.Fatalf("contexts=%d: did not halt", contexts)
		}
		if eng.robUsed != 0 || eng.renameUsed != 0 {
			t.Errorf("contexts=%d: rob=%d rename=%d after drain",
				contexts, eng.robUsed, eng.renameUsed)
		}
		for q := queueKind(0); q < numQueues; q++ {
			if eng.qUsed[q] != 0 {
				t.Errorf("contexts=%d: queue %d occupancy %d after drain",
					contexts, q, eng.qUsed[q])
			}
		}
		live := eng.liveByOrder()
		if len(live) != 1 {
			t.Errorf("contexts=%d: %d live threads at end", contexts, len(live))
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := config.Baseline().WithMTVP(4, config.PredWangFranklin, config.SelILPPred)
	_, s1 := runBench(t, chaseBench(256, 3), cfg)
	_, s2 := runBench(t, chaseBench(256, 3), cfg)
	if *s1 != *s2 {
		t.Errorf("two identical runs diverged:\n%v\n%v", s1, s2)
	}
}

func TestMTVPBeatsBaselineOnChase(t *testing.T) {
	b := chaseBench(2048, 2)
	_, base := runBench(t, b, config.Baseline())
	_, mtvp := runBench(t, b, mtvpOracleCfg(4))
	if mtvp.UsefulIPC() <= base.UsefulIPC()*1.2 {
		t.Errorf("mtvp4-oracle IPC %.4f vs baseline %.4f: expected a clear win",
			mtvp.UsefulIPC(), base.UsefulIPC())
	}
	if mtvp.Spawns == 0 || mtvp.Confirms == 0 {
		t.Errorf("no threading activity: %+v", mtvp)
	}
}

func TestMoreContextsHelp(t *testing.T) {
	// A memory-resident chase (16MB >> L3) under an instruction budget:
	// deeper speculation must overlap more of the serial miss chain.
	b := workload.PointerChase("pl-scale", workload.INT, workload.ChaseParams{
		Nodes: 1 << 18, NodeBytes: 64, PoolSize: 4,
		DominantPct: 95, ReusePct: 3, SeqPct: 90, BodyOps: 48, Iters: 1 << 20,
	})
	run := func(contexts int) float64 {
		cfg := mtvpOracleCfg(contexts)
		cfg.MaxInsts = 120_000
		prog, image := b.Build(5)
		st := &stats.Stats{}
		eng, err := New(&cfg, prog, image, st)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return st.UsefulIPC()
	}
	two, eight := run(2), run(8)
	if eight <= two {
		t.Errorf("mtvp8 %.4f <= mtvp2 %.4f", eight, two)
	}
}

func TestSpawnLatencyCosts(t *testing.T) {
	b := chaseBench(2048, 2)
	mk := func(lat int) config.Config {
		cfg := mtvpOracleCfg(4)
		cfg.VP.SpawnLatency = lat
		return cfg
	}
	_, fast := runBench(t, b, mk(1))
	_, slow := runBench(t, b, mk(64))
	if slow.Cycles < fast.Cycles {
		t.Errorf("64-cycle spawns ran faster (%d) than 1-cycle (%d)",
			slow.Cycles, fast.Cycles)
	}
}

func TestStoreBufferBoundsSpeculation(t *testing.T) {
	b := chaseBench(2048, 2)
	mk := func(entries int) config.Config {
		cfg := mtvpOracleCfg(4)
		cfg.VP.StoreBufEntries = entries
		return cfg
	}
	_, tiny := runBench(t, b, mk(2))
	_, big := runBench(t, b, mk(0)) // unbounded
	if big.UsefulIPC() <= tiny.UsefulIPC() {
		t.Errorf("unbounded store buffer IPC %.4f <= 2-entry %.4f",
			big.UsefulIPC(), tiny.UsefulIPC())
	}
}

func TestSTVPSelectiveReissueOnMispredict(t *testing.T) {
	// Low-dominance payloads: the DFCM predictor stays marginal and
	// mispredicts regularly, exercising selective reissue.
	b := workload.PointerChase("pl-misp", workload.INT, workload.ChaseParams{
		Nodes: 512, NodeBytes: 64, PoolSize: 2,
		DominantPct: 88, ReusePct: 12, SeqPct: 95, BodyOps: 8, Iters: 3,
	})
	cfg := config.Baseline().WithSTVP(config.PredDFCM, config.SelAlways)
	_, st := runBench(t, b, cfg)
	if st.VPWrong == 0 {
		t.Fatal("no mispredictions produced; the reissue path went untested")
	}
	if st.Reissues == 0 {
		t.Errorf("mispredictions (%d) without reissues", st.VPWrong)
	}
}

func TestMTVPKillRecovery(t *testing.T) {
	// Same marginal data under MTVP: wrong predictions must kill children
	// and the machine must still produce the exact functional result
	// (checked globally by the core equivalence tests; here we check the
	// kill path is actually exercised and the run completes).
	b := workload.PointerChase("pl-kill", workload.INT, workload.ChaseParams{
		Nodes: 512, NodeBytes: 64, PoolSize: 2,
		DominantPct: 85, ReusePct: 15, SeqPct: 95, BodyOps: 8, Iters: 3,
	})
	cfg := config.Baseline().WithMTVP(4, config.PredDFCM, config.SelAlways)
	eng, st := runBench(t, b, cfg)
	if !eng.Halted() {
		t.Fatal("did not halt")
	}
	if st.Kills == 0 {
		t.Fatal("no kills produced; the kill path went untested")
	}
	if st.Squashed == 0 {
		t.Error("kills without squashed instructions")
	}
}

func TestSpawnOnlySplitWindow(t *testing.T) {
	// Independent gather misses: spawn-only cannot predict values but can
	// commit independent work past the stalled load.
	b := workload.Gather("pl-gather", workload.FP, workload.GatherParams{
		Items: 4096, TableLen: 1 << 17, PoolSize: 4,
		DominantPct: 0, ReusePct: 0, FPData: true, BodyOps: 40, Iters: 2,
	})
	_, base := runBench(t, b, config.Baseline())
	_, so := runBench(t, b, config.Baseline().SpawnOnly(4))
	if so.UsefulIPC() <= base.UsefulIPC() {
		t.Errorf("spawn-only IPC %.4f <= baseline %.4f", so.UsefulIPC(), base.UsefulIPC())
	}
	if so.VPPredicted != 0 {
		t.Errorf("spawn-only made %d value predictions", so.VPPredicted)
	}
}

func TestWideWindowHelpsIndependentMisses(t *testing.T) {
	b := workload.Gather("pl-ww", workload.FP, workload.GatherParams{
		Items: 4096, TableLen: 1 << 17, PoolSize: 4,
		DominantPct: 0, ReusePct: 0, FPData: true, BodyOps: 40, Iters: 2,
	})
	_, base := runBench(t, b, config.Baseline())
	_, ww := runBench(t, b, config.Baseline().WideWindow())
	if ww.UsefulIPC() <= base.UsefulIPC() {
		t.Errorf("wide window IPC %.4f <= baseline %.4f", ww.UsefulIPC(), base.UsefulIPC())
	}
}

func TestBranchMispredictsHurt(t *testing.T) {
	mk := func(bias int) workload.Benchmark {
		return workload.Branchy("pl-br", workload.INT, workload.BranchyParams{
			Tokens: 8192, Classes: 2, BiasPct: bias, TableLen: 256, Iters: 3,
		})
	}
	_, predictable := runBench(t, mk(98), config.Baseline())
	_, random := runBench(t, mk(50), config.Baseline())
	if random.BranchAccuracy() >= predictable.BranchAccuracy() {
		t.Errorf("accuracy: random %.3f >= biased %.3f",
			random.BranchAccuracy(), predictable.BranchAccuracy())
	}
	if random.UsefulIPC() >= predictable.UsefulIPC() {
		t.Errorf("IPC: random %.4f >= biased %.4f",
			random.UsefulIPC(), predictable.UsefulIPC())
	}
}

func TestBudgetStop(t *testing.T) {
	cfg := config.Baseline()
	cfg.MaxInsts = 5000
	prog, image := chaseBench(1<<14, 1<<20).Build(5)
	st := &stats.Stats{}
	eng, err := New(&cfg, prog, image, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if eng.Halted() {
		t.Error("halted on an effectively infinite kernel")
	}
	if st.Committed < 5000 || st.Committed > 5000+64 {
		t.Errorf("committed %d, budget 5000", st.Committed)
	}
}

func TestCycleCapStop(t *testing.T) {
	cfg := config.Baseline()
	cfg.MaxInsts = 1 << 40
	cfg.MaxCycles = 10_000
	prog, image := chaseBench(1<<14, 1<<20).Build(5)
	st := &stats.Stats{}
	eng, err := New(&cfg, prog, image, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if st.Cycles < 10_000 || st.Cycles > 11_000 {
		t.Errorf("cycles %d, cap 10000", st.Cycles)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.Baseline()
	cfg.Contexts = 0
	prog, image := chaseBench(64, 1).Build(1)
	if _, err := New(&cfg, prog, image, &stats.Stats{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestStoreBufferForwarding(t *testing.T) {
	// The block-sort kernel stores into locations it soon reloads: the
	// timing model must forward from the store queue.
	b := workload.BlockSort("pl-fwd", workload.INT, workload.SortParams{
		BufLen: 2048, Window: 16, BodyOps: 2, Iters: 2,
	})
	_, st := runBench(t, b, config.Baseline())
	if st.StoreBufHits == 0 {
		t.Error("no store-buffer forwarding on a read-after-write kernel")
	}
}

func TestUnifiedStoreBufferSharedCapacity(t *testing.T) {
	b := chaseBench(2048, 2)
	mk := func(entries int) config.Config {
		cfg := mtvpOracleCfg(4)
		cfg.VP.SharedStoreBufEntries = entries
		return cfg
	}
	engTiny, tiny := runBench(t, b, mk(4))
	engBig, big := runBench(t, b, mk(512))
	if !engTiny.Halted() || !engBig.Halted() {
		t.Fatal("did not halt")
	}
	if engTiny.sharedStoreUsed != 0 || engBig.sharedStoreUsed != 0 {
		t.Errorf("shared store pool not empty after drain: %d, %d",
			engTiny.sharedStoreUsed, engBig.sharedStoreUsed)
	}
	if big.UsefulIPC() <= tiny.UsefulIPC() {
		t.Errorf("512-entry unified buffer IPC %.4f <= 4-entry %.4f",
			big.UsefulIPC(), tiny.UsefulIPC())
	}
}

func TestMultiValueSpawnsAndSaves(t *testing.T) {
	// Bimodal table values: the primary prediction is often wrong but the
	// alternate carries the right value.
	b := workload.Gather("pl-mv", workload.FP, workload.GatherParams{
		Items: 8192, TableLen: 1 << 16, PoolSize: 2,
		DominantPct: 55, ReusePct: 45, FPData: true, BodyOps: 30, Iters: 3,
	})
	cfg := config.Baseline().WithMTVP(8, config.PredWangFranklin, config.SelL3Oracle)
	cfg.VP.MaxValuesPerLoad = 3
	cfg.VP.LiberalThreshold = 4
	eng, st := runBench(t, b, cfg)
	if !eng.Halted() {
		t.Fatal("did not halt")
	}
	if st.MultiValueSaves == 0 {
		t.Error("no multi-value saves on a bimodal workload")
	}
}

// TestNewAllocatesLittle guards engine construction cost: the Table 1
// caches and predictor tables are paged on first write (internal/table),
// so building an engine must not zero megabytes of structures a short run
// never touches. Eagerly allocated, Baseline and MTVP8 cost about 3.8 MB
// each.
func TestNewAllocatesLittle(t *testing.T) {
	const limit = 512 << 10
	prog, image := chaseBench(64, 1).Build(1)
	for _, tc := range []struct {
		name string
		cfg  config.Config
	}{
		{"baseline", config.Baseline()},
		{"mtvp8", config.Baseline().WithMTVP(8, config.PredWangFranklin, config.SelILPPred)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The minimum over a few builds keeps stray allocations by
			// the runtime out of the figure.
			least := uint64(1 << 62)
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := New(&tc.cfg, prog, image, &stats.Stats{}); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			if least >= limit {
				t.Errorf("pipeline.New allocates %d KB, want < %d KB", least>>10, limit>>10)
			}
			t.Logf("pipeline.New allocates %d KB", least>>10)
		})
	}
}
