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

// robustBenches picks a small, representative workload pair for the fault
// campaign: one pointer-chasing INT program (the MTVP sweet spot, so the
// speculation machinery is actually exercised) and one FP stream program.
// Checked runs are ~2x slower than bare ones, so the campaign does not sweep
// the full suite.
func robustBenches(o Options) []workload.Benchmark {
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

// robustMachines are the machines every fault profile is thrown at: the
// degradation ladder's three rungs, so profiles are validated against the
// configuration they degrade *to* as well as the one they start from.
var robustMachines = []struct {
	name string
	cfg  config.Config
}{
	{"baseline", core.Baseline()},
	{"stvp", stvpWF()},
	{"mtvp", mtvpWF(4)},
}

func robustKey(profile, machine string, b workload.Benchmark) string {
	return "robust/" + profile + "/" + machine + "/" + b.Name
}

// robust is the fault campaign: every built-in fault profile against the
// baseline, STVP, and MTVP4 machines with the lockstep oracle checker
// armed. Its table reports the robustness contract's observables: faults
// injected, recovery interventions (deadlock breaks, queue unsticks,
// degradations, restorations, quarantine actions), and whether each run
// finished oracle-clean or aborted with a structured fault report. Its
// cells declare an abort a result (AbortIsResult); any other outcome — a
// divergence (wrong committed value), a hang (the harness deadline and
// stall watchdog guard those), or an unstructured error — fails its cell.
var robust = Experiment{
	Name: "robust",
	cells: func(o Options) []fabric.JobSpec {
		var specs []fabric.JobSpec
		for _, p := range fault.Profiles() {
			for _, m := range robustMachines {
				for bi, b := range robustBenches(o) {
					s := o.spec(robustKey(p.Name, m.name, b), b, m.name, m.cfg)
					s.Config = core.Hardened(core.WithFaults(s.Config, p.Name, o.FaultSeed+uint64(bi)+1))
					s.Config.Check = true
					s.AbortIsResult = true
					specs = append(specs, s)
				}
			}
		}
		return specs
	},
	tables: func(o Options, r results) []*stats.Table {
		profiles, benches := fault.Profiles(), robustBenches(o)
		t := &stats.Table{
			Title: fmt.Sprintf("Fault campaign — %d profiles x {baseline, stvp, mtvp4} x %d benches, oracle-checked",
				len(profiles), len(benches)),
			Columns: []string{"injected", "breaks", "unstick", "degrade", "restore",
				"qclamp", "qdisable", "clean", "abort"},
		}
		for _, p := range profiles {
			var a stats.Stats
			var clean, aborts float64
			for _, m := range robustMachines {
				for _, b := range benches {
					c := r[robustKey(p.Name, m.name, b)]
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
			}
			t.Add(p.Name,
				float64(a.FaultsInjected), float64(a.DeadlockBreaks), float64(a.RecoveryUnsticks),
				float64(a.Degradations), float64(a.Restorations),
				float64(a.QuarantineClamps), float64(a.QuarantineDisables),
				clean, aborts)
		}
		t.SortRows()
		return []*stats.Table{t}
	},
	intro: "## Robustness — fault-injection campaign\n\n" +
		"Beyond the paper: every built-in fault profile (internal/fault) run\n" +
		"against the baseline, STVP, and MTVP4 machines with the lockstep\n" +
		"oracle checker armed. The contract is that each run either finishes\n" +
		"oracle-clean (recovery absorbed the faults) or aborts with a\n" +
		"structured fault report — never hangs, never commits a wrong value.\n" +
		"Columns: faults injected, recovery-controller deadlock breaks and\n" +
		"queue unsticks, degradation-ladder steps down and restorations,\n" +
		"predictor quarantine clamps/disables, and the clean-vs-abort tally.\n\nMeasured:\n\n",
	outro: func([]*stats.Table) string {
		return "Verdict: all campaign runs recovered or aborted with a structured\n" +
			"report (the generator fails outright on a divergence or hang):\n" +
			verdict(true) + ".\n\n"
	},
}
