package core_test

import (
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/workload"
)

// TestGoldenDeterminism pins exact cycle counts for a few (benchmark,
// machine) pairs. The simulator is a pure integer state machine, so these
// are identical on every platform; a diff here means simulated behaviour
// changed, which must be a deliberate, understood decision (update the
// numbers in the same change that alters the model).
func TestGoldenDeterminism(t *testing.T) {
	type golden struct {
		name string
		cfg  config.Config
	}
	bench := workload.PointerChase("golden-chase", workload.INT, workload.ChaseParams{
		Nodes: 1024, NodeBytes: 64, PoolSize: 4,
		DominantPct: 92, ReusePct: 5, SeqPct: 85, BodyOps: 32, Iters: 2,
	})
	cases := []golden{
		{"baseline", core.Baseline()},
		{"stvp-wf", core.STVP(config.PredWangFranklin, config.SelILPPred)},
		{"mtvp4-wf", core.MTVP(4, config.PredWangFranklin, config.SelILPPred)},
	}
	var prev []uint64
	for round := 0; round < 2; round++ {
		var got []uint64
		for _, c := range cases {
			cfg := c.cfg
			cfg.MaxInsts = 1 << 40
			cfg.MaxCycles = 50_000_000
			prog, image := bench.Build(9)
			res, err := runCore(cfg, prog, image)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !res.Halted {
				t.Fatalf("%s: did not halt", c.name)
			}
			got = append(got, res.Stats.Cycles, res.Stats.Committed)
		}
		if round == 1 {
			for i := range got {
				if got[i] != prev[i] {
					t.Fatalf("run-to-run nondeterminism at index %d: %d vs %d",
						i, prev[i], got[i])
				}
			}
		}
		prev = got
	}
	t.Logf("golden cycles/committed: %v", prev)
}

// TestGoldenExampleTraces pins the committed-instruction streams of the two
// shipped examples (examples/quickstart and examples/pointerchase) without
// hardcoded expectations: the lockstep oracle is the golden trace. Each
// example configuration runs with checking enabled — every useful commit is
// verified against the functional reference as it retires — and the
// run-to-run numbers (cycles, useful commits, verified commits) must be
// exactly reproducible. The examples stop on an instruction budget rather
// than a HALT, so the verified stream is a prefix: still-speculative tail
// commits are legitimately unverified at the cut.
func TestGoldenExampleTraces(t *testing.T) {
	mcf, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	demo := workload.PointerChase("demo-chase", workload.INT, workload.ChaseParams{
		Nodes: 1 << 18, NodeBytes: 64, PoolSize: 8,
		DominantPct: 92, ReusePct: 5, SeqPct: 85, BodyOps: 64, Iters: 1 << 20,
	})

	cases := []struct {
		name  string
		bench workload.Benchmark
		cfg   config.Config
	}{
		// examples/quickstart: mcf on baseline and mtvp4-wf.
		{"quickstart-baseline", mcf, core.Baseline()},
		{"quickstart-mtvp4", mcf, core.MTVP(4, config.PredWangFranklin, config.SelILPPred)},
		// examples/pointerchase: demo-chase across the swept machines.
		{"pointerchase-stvp", demo, core.STVP(config.PredWangFranklin, config.SelILPPred)},
		{"pointerchase-mtvp8", demo, core.MTVP(8, config.PredWangFranklin, config.SelILPPred)},
	}

	var prev []uint64
	for round := 0; round < 2; round++ {
		var got []uint64
		for _, c := range cases {
			cfg := c.cfg
			cfg.MaxInsts = 150_000 // the examples' budget
			cfg.Check = true
			prog, image := c.bench.Build(1)
			res, err := runCore(cfg, prog, image)
			if err != nil {
				t.Fatalf("%s: oracle divergence on example trace: %v", c.name, err)
			}
			if res.Checked == 0 {
				t.Fatalf("%s: checker verified nothing", c.name)
			}
			if res.Checked > res.Stats.Committed {
				t.Fatalf("%s: verified %d commits but only %d were useful",
					c.name, res.Checked, res.Stats.Committed)
			}
			got = append(got, res.Stats.Cycles, res.Stats.Committed, res.Checked)
		}
		if round == 1 {
			for i := range got {
				if got[i] != prev[i] {
					t.Fatalf("example trace nondeterminism at index %d: %d vs %d",
						i, prev[i], got[i])
				}
			}
		}
		prev = got
	}
	t.Logf("example cycles/committed/checked: %v", prev)
}
