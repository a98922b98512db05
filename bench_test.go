// Package mtvp's benchmark harness regenerates every table and figure of
// the paper's evaluation as Go benchmarks: each BenchmarkFigN/BenchmarkTable
// runs the corresponding experiment on the full SPEC stand-in suite (at a
// reduced per-run instruction budget so the whole harness stays tractable)
// and reports the paper's headline numbers as custom metrics. Use
// cmd/mtvpbench for full-fidelity regeneration with printed tables.
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

// avgRow extracts the named row's last-column value (the most aggressive
// machine) from a table, for ReportMetric.
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

// BenchmarkFig1OracleMTVP regenerates Figure 1 (oracle value prediction,
// STVP vs MTVP 2/4/8).
func BenchmarkFig1OracleMTVP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, tables)
	}
}

// BenchmarkFig2SpawnLatency regenerates Figure 2 (spawn latency 1/8/16).
func BenchmarkFig2SpawnLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, tables)
	}
}

// BenchmarkStoreBufferSweep regenerates the §5.3 store-buffer size sweep.
func BenchmarkStoreBufferSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.StoreBufferSweep(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, []*stats.Table{tab})
	}
}

// BenchmarkFig3RealisticWF regenerates Figure 3 (Wang–Franklin predictor).
func BenchmarkFig3RealisticWF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, tables)
	}
}

// BenchmarkDFCMvsWF regenerates the §5.4 DFCM comparison.
func BenchmarkDFCMvsWF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := experiments.DFCMCompare(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, tables)
	}
}

// BenchmarkFig4FetchPolicy regenerates Figure 4 (no-stall vs single fetch
// path).
func BenchmarkFig4FetchPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, tables)
	}
}

// BenchmarkFig5MultiValuePotential regenerates Figure 5 (wrong primary,
// correct value present and over threshold).
func BenchmarkFig5MultiValuePotential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		var n int
		for _, tab := range tables {
			for _, r := range tab.Rows {
				sum += r.Values[0]
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), "mean-fraction")
		}
	}
}

// BenchmarkMultiValueMTVP regenerates the §5.6 multiple-value experiment.
func BenchmarkMultiValueMTVP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := experiments.MultiValue(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, tables)
	}
}

// BenchmarkFig6WideWindow regenerates Figure 6 (wide window vs best MTVP vs
// spawn-only).
func BenchmarkFig6WideWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, tables)
	}
}

// BenchmarkAblationPrefetchOff runs the no-prefetcher ablation (the paper
// notes MTVP gains are larger without the stride prefetcher).
func BenchmarkAblationPrefetchOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := experiments.PrefetchAblation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, tables)
	}
}

// BenchmarkAblationSelectors compares ILP-pred, L3-oracle, and unconditional
// load selection (§5.1).
func BenchmarkAblationSelectors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := experiments.SelectorCompare(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportAverages(b, tables)
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
