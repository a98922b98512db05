package core_test

import (
	"testing"

	"mtvp/internal/core"
)

// TestEventEngineSweep is the core-level half of the event-scheduler
// equivalence guarantee (internal/pipeline owns the fault/recovery,
// telemetry and per-cycle lockstep axes): for every workload archetype ×
// machine preset, a run on the event-driven calendar, which fast-forwards
// ("ff") over idle spans, must be bit-identical to a run on the per-cycle
// reference — same statistics, same architectural registers, same halt
// status — with the lockstep oracle checking every useful commit on both
// sides. The presets carry Check=true, so any divergence inside either
// engine (not just between them) fails the run on its own.
func TestEventEngineSweep(t *testing.T) {
	benches := smallBenchmarks()[:4]
	if testing.Short() {
		benches = benches[:2]
	}
	t.Run("ff", func(t *testing.T) {
		for _, bench := range benches {
			bench := bench
			t.Run(bench.Name, func(t *testing.T) {
				for _, p := range differentialPresets() {
					run := func(perCycle bool) *core.Result {
						c := p.cfg
						c.PerCycle = perCycle
						prog, image := bench.Build(7)
						res, err := core.Run(c, prog, image)
						if err != nil {
							t.Fatalf("%s perCycle=%v: %v", p.name, perCycle, err)
						}
						return res
					}
					ev := run(false)
					ref := run(true)

					if !ev.Halted || !ref.Halted {
						t.Fatalf("%s: halted diverges or false: event=%v per-cycle=%v",
							p.name, ev.Halted, ref.Halted)
					}
					if ev.Stats != ref.Stats {
						t.Errorf("%s: stats diverge:\nevent:     %+v\nper-cycle: %+v",
							p.name, ev.Stats, ref.Stats)
					}
					if ev.RegsOK != ref.RegsOK || ev.Regs != ref.Regs {
						t.Errorf("%s: architectural registers diverge", p.name)
					}
					if ev.Checked != ev.Stats.Committed || ref.Checked != ref.Stats.Committed {
						t.Errorf("%s: oracle verified event=%d/%d per-cycle=%d/%d commits",
							p.name, ev.Checked, ev.Stats.Committed,
							ref.Checked, ref.Stats.Committed)
					}
				}
			})
		}
	})
}
