package experiments

import (
	"fmt"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/fabric"
	"mtvp/internal/fault"
	"mtvp/internal/stats"
	"mtvp/internal/workload"
)

// campaignBenches picks a small, representative workload pair for the fault
// campaign: one pointer-chasing INT program (the MTVP sweet spot, so the
// speculation machinery is actually exercised) and one FP stream program.
// Checked runs are ~2x slower than bare ones, so the campaign does not sweep
// the full suite.
func campaignBenches(o Options) []workload.Benchmark {
	if o.Benchmarks != nil {
		return o.Benchmarks
	}
	var out []workload.Benchmark
	for _, name := range []string{"mcf", "swim"} {
		if b, err := workload.ByName(name); err == nil {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = workload.All()[:1]
	}
	return out
}

// campaignMachines are the machines every fault profile is thrown at: the
// degradation ladder's three rungs, so profiles are validated against the
// configuration they degrade *to* as well as the one they start from.
func campaignMachines(contexts int) []struct {
	name string
	cfg  config.Config
} {
	return []struct {
		name string
		cfg  config.Config
	}{
		{"baseline", core.Baseline()},
		{"stvp", core.STVP(config.PredWangFranklin, config.SelILPPred)},
		{"mtvp", core.MTVP(contexts, config.PredWangFranklin, config.SelILPPred)},
	}
}

// FaultCampaign runs every built-in fault profile against the baseline,
// STVP, and MTVP machines with the lockstep oracle checker armed, as one
// supervised campaign, and reports the robustness contract's observables:
// faults injected, recovery interventions (deadlock breaks, queue
// unsticks, degradations, restorations, quarantine actions), and whether
// each run finished oracle-clean or aborted with a structured fault
// report. Any other outcome — a divergence (wrong committed value), a hang
// (the harness deadline and stall watchdog guard those), or an
// unstructured error — fails its cell (runCell holds the rule).
func FaultCampaign(o Options) ([]*stats.Table, error) {
	profiles := fault.Profiles()
	benches := campaignBenches(o)
	machines := campaignMachines(4)

	var specs []fabric.JobSpec
	for _, p := range profiles {
		for _, m := range machines {
			for bi, b := range benches {
				s := o.spec(fmt.Sprintf("%s/%s/%s/%s", faultCampaign, p.Name, m.name, b.Name), b, m.name, m.cfg)
				s.Config = core.Hardened(core.WithFaults(s.Config, p.Name, o.FaultSeed+uint64(bi)+1))
				s.Config.Check = true
				specs = append(specs, s)
			}
		}
	}
	res, err := o.runCampaign(faultCampaign, benches, specs)
	if err != nil {
		return nil, err
	}

	t := &stats.Table{
		Title: fmt.Sprintf("Fault campaign — %d profiles x {baseline, stvp, mtvp4} x %d benches, oracle-checked",
			len(profiles), len(benches)),
		Columns: []string{"injected", "breaks", "unstick", "degrade", "restore",
			"qclamp", "qdisable", "clean", "abort"},
	}
	// Rows aggregate per profile in job-key order, never completion order.
	per := len(machines) * len(benches)
	for pi, p := range profiles {
		var a stats.Stats
		var clean, aborts float64
		for _, c := range res[pi*per : (pi+1)*per] {
			a.FaultsInjected += c.Stats.FaultsInjected
			a.DeadlockBreaks += c.Stats.DeadlockBreaks
			a.RecoveryUnsticks += c.Stats.RecoveryUnsticks
			a.Degradations += c.Stats.Degradations
			a.Restorations += c.Stats.Restorations
			a.QuarantineClamps += c.Stats.QuarantineClamps
			a.QuarantineDisables += c.Stats.QuarantineDisables
			if c.Abort {
				aborts++
			} else {
				clean++
			}
		}
		t.Add(p.Name,
			float64(a.FaultsInjected), float64(a.DeadlockBreaks), float64(a.RecoveryUnsticks),
			float64(a.Degradations), float64(a.Restorations),
			float64(a.QuarantineClamps), float64(a.QuarantineDisables),
			clean, aborts)
	}
	t.SortRows()
	return []*stats.Table{t}, nil
}
