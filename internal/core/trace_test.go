package core_test

import (
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/trace"
	"mtvp/internal/workload"
)

// TestTracingIsObservational: an attached tracer must capture the MTVP
// lifecycle without changing any result.
func TestTracingIsObservational(t *testing.T) {
	bench := workload.PointerChase("trace-chase", workload.INT, workload.ChaseParams{
		Nodes: 512, NodeBytes: 64, PoolSize: 4,
		DominantPct: 92, ReusePct: 5, SeqPct: 85, BodyOps: 16, Iters: 3,
	})
	cfg := core.MTVP(4, config.PredWangFranklin, config.SelILPPred)
	cfg.MaxInsts = 1 << 40
	cfg.MaxCycles = 100_000_000

	prog1, img1 := bench.Build(2)
	plain, err := core.Run(cfg, prog1, img1)
	if err != nil {
		t.Fatal(err)
	}

	col := &trace.Collector{}
	prog2, img2 := bench.Build(2)
	traced, err := core.RunInstrumented(cfg, prog2, img2, core.Instruments{Tracer: col})
	if err != nil {
		t.Fatal(err)
	}

	if plain.Stats != traced.Stats {
		t.Errorf("tracing changed results:\n%v\n%v", plain.Stats, traced.Stats)
	}
	if len(col.Events) == 0 {
		t.Fatal("no events collected")
	}
	if spawns := col.ByKind(trace.KSpawn); uint64(len(spawns)) != traced.Stats.Spawns {
		t.Errorf("spawn events %d, stat %d", len(spawns), traced.Stats.Spawns)
	}
	if kills := col.ByKind(trace.KKill); uint64(len(kills)) != traced.Stats.Kills {
		t.Errorf("kill events %d, stat %d", len(kills), traced.Stats.Kills)
	}
	if confirms := col.ByKind(trace.KConfirm); uint64(len(confirms)) != traced.Stats.Confirms {
		t.Errorf("confirm events %d, stat %d", len(confirms), traced.Stats.Confirms)
	}
	// Commit events cover every useful commit (plus killed threads'
	// later-discounted commits).
	if commits := col.ByKind(trace.KCommit); uint64(len(commits)) < traced.Stats.Committed {
		t.Errorf("commit events %d < useful commits %d", len(commits), traced.Stats.Committed)
	}
}
