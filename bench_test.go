// Package mtvp's benchmark harness regenerates every table and figure of
// the paper's evaluation as Go benchmarks: BenchmarkExperiments runs each
// experiment of the registry (internal/experiments) on the full SPEC
// stand-in suite, at a reduced per-run instruction budget so the whole
// harness stays tractable, and reports the suite averages as custom
// metrics. Use cmd/mtvpbench for full-fidelity regeneration with printed
// tables.
package mtvp_test

import (
	"strings"
	"testing"

	"mtvp/internal/bpred"
	"mtvp/internal/cache"
	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/experiments"
	"mtvp/internal/mem"
	"mtvp/internal/stats"
	"mtvp/internal/storebuf"
	"mtvp/internal/vpred"
	"mtvp/internal/workload"
)

// benchOpts returns experiment options scaled for the benchmark harness.
func benchOpts() experiments.Options {
	o := experiments.DefaultOptions()
	o.Insts = 40_000
	return o
}

// reportAverages reports each average row's last-column value (the most
// aggressive machine) as a custom metric.
func reportAverages(b *testing.B, tables []*stats.Table) {
	b.Helper()
	for _, tab := range tables {
		for _, r := range tab.Rows {
			if r.Name != "average" && r.Name != "AVG INT" && r.Name != "AVG FP" {
				continue
			}
			suite := "int"
			if r.Name == "AVG FP" || strings.Contains(tab.Title, "FP") {
				suite = "fp"
			}
			b.ReportMetric(r.Values[len(r.Values)-1], "avgpct-"+suite)
		}
	}
}

// BenchmarkTable1Baseline runs every benchmark on the Table 1 baseline and
// reports the suite's mean IPC (the denominator of every figure).
func BenchmarkTable1Baseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sum float64
		benches := workload.All()
		for _, w := range benches {
			cfg := core.Baseline()
			cfg.MaxInsts = 40_000
			prog, image := w.Build(1)
			res, err := core.Run(cfg, prog, image)
			if err != nil {
				b.Fatal(err)
			}
			sum += res.IPC()
		}
		b.ReportMetric(sum/float64(len(benches)), "mean-ipc")
	}
}

// BenchmarkExperiments regenerates each experiment of the registry, one
// sub-benchmark per name (BenchmarkExperiments/fig1, ...), each as its
// own campaign.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tables, err := experiments.Run(benchOpts(), e.Name, []experiments.Experiment{e})
				if err != nil {
					b.Fatal(err)
				}
				reportAverages(b, tables[0])
			}
		})
	}
}

// --- microbenchmarks of the substrates --------------------------------------

// BenchmarkEngineCyclesPerSecond measures raw simulation speed on the mcf
// stand-in under MTVP8 with the realistic predictor.
func BenchmarkEngineCyclesPerSecond(b *testing.B) {
	w, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cfg := core.MTVP(8, config.PredWangFranklin, config.SelILPPred)
		cfg.MaxInsts = 50_000
		prog, image := w.Build(1)
		res, err := core.Run(cfg, prog, image)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Cycles), "cycles/op")
		b.ReportMetric(float64(res.Stats.Committed), "insts/op")
	}
}

func BenchmarkWangFranklinLookupTrain(b *testing.B) {
	p := vpred.NewWangFranklin(config.DefaultWF(), 0)
	r := mem.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(i%256) * 4
		p.Lookup(pc, 0)
		p.Train(pc, r.Next()>>48)
	}
}

func BenchmarkDFCMLookupTrain(b *testing.B) {
	p := vpred.NewDFCM(config.DefaultDFCM())
	r := mem.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(i%256) * 4
		p.Lookup(pc, 0)
		p.Train(pc, r.Next()>>48)
	}
}

func Benchmark2bcgskew(b *testing.B) {
	p := bpred.New2bcgskew(core.Baseline().Branch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(i%512) * 4
		taken := i%3 != 0
		p.Predict(pc)
		p.Update(pc, taken)
	}
}

func BenchmarkCacheHierarchyLoad(b *testing.B) {
	cfg := core.Baseline()
	st := &stats.Stats{}
	h := cache.NewHierarchy(&cfg, st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0x44, uint64(i%100_000)*64, int64(i))
	}
}

func BenchmarkOverlayChainLoad(b *testing.B) {
	m := mem.New()
	top := storebuf.New(m)
	for d := 0; d < 8; d++ {
		for a := uint64(0); a < 64; a++ {
			top.Store(a*8, 8, uint64(d))
		}
		tops := top.Fork(nil, 2)
		tops[1].Release()
		top = tops[0]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top.Load(uint64(i%64)*8, 8)
	}
}
