package core_test

import (
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/core"
)

// differentialPresets are the machine configurations the differential oracle
// sweeps: the in-order-equivalent baseline, single-threaded value prediction,
// and both MTVP fetch policies (SFP stalls the parent, MFP keeps fetching).
func differentialPresets() []struct {
	name string
	cfg  config.Config
} {
	limit := func(c config.Config) config.Config {
		c.Check = true
		c.MaxInsts = 50_000_000
		c.MaxCycles = 200_000_000
		return c
	}
	return []struct {
		name string
		cfg  config.Config
	}{
		{"baseline", limit(core.Baseline())},
		{"stvp-wf", limit(core.STVP(config.PredWangFranklin, config.SelILPPred))},
		{"mtvp4-sfp", limit(core.MTVP(4, config.PredWangFranklin, config.SelILPPred))},
		{"mtvp4-mfp", limit(core.MTVPNoStall(4, config.PredWangFranklin, config.SelILPPred))},
	}
}

// TestDifferentialOracle runs every workload archetype on every preset with
// the lockstep oracle checker and the invariant auditor enabled: zero
// divergences, zero violations, and every useful commit verified. The
// aggregate across the sweep must clear the 200k-instruction acceptance bar
// so the checker is exercised well past warm-up transients.
func TestDifferentialOracle(t *testing.T) {
	benches := smallBenchmarks()
	if testing.Short() {
		benches = benches[:3]
	}
	var totalChecked uint64
	for _, bench := range benches {
		bench := bench
		t.Run(bench.Name, func(t *testing.T) {
			for _, p := range differentialPresets() {
				prog, image := bench.Build(7)
				res, err := runCore(p.cfg, prog, image)
				if err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				if !res.Halted {
					t.Fatalf("%s: did not halt (committed %d, cycles %d)",
						p.name, res.Stats.Committed, res.Stats.Cycles)
				}
				if res.Checked != res.Stats.Committed {
					t.Errorf("%s: verified %d commits, engine counted %d useful",
						p.name, res.Checked, res.Stats.Committed)
				}
				totalChecked += res.Checked
			}
		})
	}
	if !testing.Short() && totalChecked < 200_000 {
		t.Errorf("sweep verified only %d useful instructions, want >= 200000", totalChecked)
	}
	t.Logf("verified %d useful instructions against the oracle", totalChecked)
}

// FuzzDifferentialOracle feeds random terminating programs (the
// randomProgram generator from the equivalence fuzz) through a checked run
// on a fuzzer-chosen preset. Any oracle divergence or invariant violation
// fails the run.
func FuzzDifferentialOracle(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		for preset := uint8(0); preset < 4; preset++ {
			f.Add(seed, preset)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, preset uint8) {
		if seed == 0 {
			seed = 1
		}
		p := differentialPresets()[int(preset)%4]
		cfg := p.cfg
		cfg.MaxCycles = 50_000_000

		prog, image := randomProgram(seed, 20+int(seed%50))
		res, err := runCore(cfg, prog, image)
		if err != nil {
			t.Fatalf("seed %d preset %s: %v", seed, p.name, err)
		}
		if res.Halted && res.Checked != res.Stats.Committed {
			t.Fatalf("seed %d preset %s: verified %d commits, engine counted %d useful",
				seed, p.name, res.Checked, res.Stats.Committed)
		}
	})
}
