package experiments

import (
	"fmt"
	"io"
	"time"

	"mtvp/internal/stats"
)

// avgRow returns the named column values of a table's average row.
func avgRow(t *stats.Table) []float64 {
	for _, r := range t.Rows {
		if r.Name == "average" || r.Name == "AVG INT" || r.Name == "AVG FP" {
			return r.Values
		}
	}
	return nil
}

// rowOf returns a benchmark row's values, or nil.
func rowOf(t *stats.Table, name string) []float64 {
	for _, r := range t.Rows {
		if r.Name == name {
			return r.Values
		}
	}
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "REPRODUCED"
	}
	return "NOT REPRODUCED"
}

func last(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return v[len(v)-1]
}

// GenerateReport runs every experiment of Registry as one campaign and
// writes an EXPERIMENTS.md-style paper-vs-measured report: for each table
// and figure, the paper's reported result, the measured tables, and a
// shape verdict computed from the measurements (orderings and signs, not
// absolute magnitudes — the workloads are synthetic stand-ins).
func GenerateReport(o Options, w io.Writer) error {
	start := time.Now()
	tables, err := Run(o, "report", Registry)
	if err != nil {
		return err
	}
	pf := func(format string, args ...interface{}) { fmt.Fprintf(w, format, args...) }
	pf("# EXPERIMENTS — paper vs. measured\n\n")
	pf("Reproduction of the evaluation of Tuck & Tullsen, *Multithreaded Value\n")
	pf("Prediction* (HPCA-11, 2005). Generated by `cmd/mtvpreport` (or\n")
	pf("`experiments.GenerateReport`) with %d useful instructions per run,\n", o.Insts)
	pf("seed %d, over %d benchmarks. Speedups are percent change in useful IPC\n",
		o.Seed, len(o.benches()))
	pf("over the Table 1 baseline. Absolute magnitudes are not expected to\n")
	pf("match the paper (synthetic SPEC stand-ins, see DESIGN.md §2); each\n")
	pf("experiment's verdict checks the paper's qualitative claim.\n\n")

	pf("## Table 1 — simulator architectural parameters\n\n")
	pf("Paper: the machine of Table 1 (30-stage pipe, 8-wide, 256-entry ROB,\n")
	pf("64KB L1s, 512KB L2, 4MB L3, 1000-cycle memory, 2bcgskew, stride\n")
	pf("prefetcher with 8 stream buffers).\n\nMeasured (configuration dump):\n\n")
	pf("```\n%s```\n\n", Table1())

	for i, e := range Registry {
		pf("%s", e.intro)
		for _, t := range tables[i] {
			pf("```\n%s```\n\n", t)
		}
		if e.outro != nil {
			pf("%s", e.outro(tables[i]))
		}
	}
	pf("---\nGenerated in %s.\n", time.Since(start).Round(time.Second))
	return nil
}
