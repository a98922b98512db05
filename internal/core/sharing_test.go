package core_test

import (
	"fmt"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/workload"
)

// TestSharingMatrixOracleClean runs the full predictor-zoo sharing matrix —
// both new predictors plus the paper's Wang-Franklin table, under every
// table-sharing mode — through the lockstep oracle checker. Sharing is a
// timing/accuracy organisation only: whatever the tables predict, every
// commit must still verify against the in-order oracle, including the
// cross-context interference paths the shared mode introduces.
func TestSharingMatrixOracleClean(t *testing.T) {
	preds := []config.PredictorKind{
		config.PredWangFranklin, config.PredVPQStride, config.PredEqualityLCV,
	}
	modes := []config.SharingMode{
		config.ShareShared, config.SharePrivate, config.SharePartitioned,
	}
	benches := smallBenchmarks()
	// The full 10-benchmark sweep is TestDifferentialOracle's job; here a
	// load-heavy subset per cell keeps the 9-cell matrix affordable.
	benches = []workload.Benchmark{benches[0], benches[3], benches[7]}
	if testing.Short() {
		benches = benches[:1]
	}

	for _, pred := range preds {
		for _, mode := range modes {
			pred, mode := pred, mode
			t.Run(fmt.Sprintf("%s/%s", pred, mode), func(t *testing.T) {
				cfg := core.MTVPSharing(4, pred, mode)
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
}
