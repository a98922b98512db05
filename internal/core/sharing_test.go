package core_test

import (
	"fmt"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/workload"
)

// TestSharingMatrixOracleClean runs the realistic table predictors on the
// one table set every context shares through the lockstep oracle checker.
// Whatever the shared tables predict, and however one context's training
// steers another's lookups, every commit must still verify against the
// in-order oracle.
func TestSharingMatrixOracleClean(t *testing.T) {
	preds := []config.PredictorKind{config.PredWangFranklin, config.PredEqualityLCV}
	benches := smallBenchmarks()
	// The full 10-benchmark sweep is TestDifferentialOracle's job; here a
	// load-heavy subset per cell keeps the matrix affordable.
	benches = []workload.Benchmark{benches[0], benches[3], benches[7]}
	if testing.Short() {
		benches = benches[:1]
	}

	for _, pred := range preds {
		pred := pred
		t.Run(fmt.Sprintf("%s/shared", pred), func(t *testing.T) {
			cfg := core.MTVP(4, pred, config.SelILPPred)
			cfg.Check = true
			cfg.MaxInsts = 50_000_000
			cfg.MaxCycles = 200_000_000
			for _, bench := range benches {
				prog, image := bench.Build(7)
				res, err := runCore(cfg, prog, image)
				if err != nil {
					t.Fatalf("%s: %v", bench.Name, err)
				}
				if !res.Halted {
					t.Fatalf("%s: did not halt (committed %d, cycles %d)",
						bench.Name, res.Stats.Committed, res.Stats.Cycles)
				}
				if res.Checked != res.Stats.Committed {
					t.Errorf("%s: verified %d commits, engine counted %d useful",
						bench.Name, res.Checked, res.Stats.Committed)
				}
			}
		})
	}
}
