package pipeline

import (
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/stats"
	"mtvp/internal/workload"
)

// Steady-state engine micro-benchmarks. Each case runs a fixed number of
// simulated cycles, so host time per op tracks simulator throughput
// directly and same-host benchstat comparisons (the BENCH_*.json
// snapshots) are meaningful. ReportMetric publishes the simulated-cycle and
// committed-instruction rates alongside ns/op.

type steadyCase struct {
	name   string
	cycles uint64
	cfg    func() config.Config
	bench  workload.Benchmark
}

func steadyCases() []steadyCase {
	return []steadyCase{
		{
			// DL1-resident chase: commits nearly every cycle; stresses the
			// per-cycle stage walk and uop recycling, never the idle path.
			name:   "hit-heavy",
			cycles: 300_000,
			cfg:    config.Baseline,
			bench: workload.PointerChase("steady-hit", workload.INT, workload.ChaseParams{
				Nodes: 256, NodeBytes: 64, PoolSize: 8,
				DominantPct: 60, ReusePct: 30, SeqPct: 90, BodyOps: 12, Iters: 1 << 40,
			}),
		},
		{
			// 16 MB chase, far over the 4 MB L3: almost every next-pointer
			// load is a ~1000-cycle miss — the regime the paper cares about
			// and the one the event calendar's idle-span jump targets.
			name:   "miss-heavy",
			cycles: 1_000_000,
			cfg:    config.Baseline,
			bench: workload.PointerChase("steady-miss", workload.INT, workload.ChaseParams{
				Nodes: 1 << 18, NodeBytes: 64, PoolSize: 8,
				DominantPct: 60, ReusePct: 30, SeqPct: 10, BodyOps: 4, Iters: 1 << 40,
			}),
		},
		{
			// MTVP8 with the oracle predictor over an L3-busting chase:
			// continuous spawn/confirm churn exercises thread bookkeeping,
			// overlay forks, and ordered-list maintenance.
			name:   "deep-speculation",
			cycles: 300_000,
			cfg:    func() config.Config { return mtvpOracleCfg(8) },
			bench: workload.PointerChase("steady-spec", workload.INT, workload.ChaseParams{
				Nodes: 1 << 16, NodeBytes: 64, PoolSize: 8,
				DominantPct: 60, ReusePct: 30, SeqPct: 30, BodyOps: 8, Iters: 1 << 40,
			}),
		},
		{
			// The TestWideWindowHelpsIndependentMisses gather on the §5.7
			// checkpoint machine: 8192-entry queues hold thousands of
			// uops waiting on misses, so any per-cycle cost that grows
			// with the window shows here.
			name:   "wide-window",
			cycles: 100_000,
			cfg:    func() config.Config { return config.Baseline().WideWindow() },
			bench: workload.Gather("steady-wide", workload.FP, workload.GatherParams{
				Items: 4096, TableLen: 1 << 17, PoolSize: 4,
				DominantPct: 0, ReusePct: 0, FPData: true, BodyOps: 40, Iters: 1 << 40,
			}),
		},
	}
}

func BenchmarkEngineSteadyState(b *testing.B) {
	for _, c := range steadyCases() {
		b.Run(c.name, func(b *testing.B) {
			var simCycles, simInsts uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := c.cfg()
				cfg.MaxInsts = 1 << 62
				cfg.MaxCycles = c.cycles
				prog, image := c.bench.Build(1)
				st := &stats.Stats{}
				eng, err := New(&cfg, prog, image, st)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				simCycles += st.Cycles
				simInsts += st.Committed
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(simCycles)/sec/1e6, "Mcycles/s")
				b.ReportMetric(float64(simInsts)/sec/1e6, "Minsts/s")
			}
		})
	}
}
