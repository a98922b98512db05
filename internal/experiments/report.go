package experiments

import (
	"bytes"
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

// WriteSections runs exps as one campaign named name and writes each
// experiment's EXPERIMENTS.md section to w: the heading and the paper's
// result, the measured tables, and the notes and verdicts computed from
// them (shape verdicts: orderings and signs, not absolute magnitudes — the
// workloads are synthetic stand-ins). Nothing is written unless the
// campaign succeeds.
func WriteSections(w io.Writer, o Options, name string, exps []Experiment) error {
	tables, err := Run(o, name, exps)
	if err != nil {
		return err
	}
	for i, e := range exps {
		fmt.Fprint(w, e.intro)
		for _, t := range tables[i] {
			fmt.Fprintf(w, "```\n%s```\n\n", t)
		}
		if e.outro != nil {
			fmt.Fprint(w, e.outro(tables[i]))
		}
	}
	return nil
}

// GenerateReport runs every experiment of Registry as one campaign and
// writes the paper-vs-measured report EXPERIMENTS.md: a header naming the
// run's options, every experiment's section (WriteSections) and the wall
// time it took. Nothing is written unless the campaign succeeds.
func GenerateReport(o Options, w io.Writer) error {
	start := time.Now()
	var sections bytes.Buffer
	if err := WriteSections(&sections, o, "report", Registry); err != nil {
		return err
	}
	pf := func(format string, args ...interface{}) { fmt.Fprintf(w, format, args...) }
	pf("# EXPERIMENTS — paper vs. measured\n\n")
	pf("Reproduction of the evaluation of Tuck & Tullsen, *Multithreaded Value\n")
	pf("Prediction* (HPCA-11, 2005). Generated by `mtvpbench -exp all` (or\n")
	pf("`experiments.GenerateReport`) with %d useful instructions per run,\n", o.Insts)
	pf("seed %d, over %d benchmarks. Speedups are percent change in useful IPC\n",
		o.Seed, len(o.benches()))
	pf("over the Table 1 baseline. Absolute magnitudes are not expected to\n")
	pf("match the paper (synthetic SPEC stand-ins, see DESIGN.md §2); each\n")
	pf("experiment's verdict checks the paper's qualitative claim.\n\n")
	sections.WriteTo(w)
	pf("---\nGenerated in %s.\n", time.Since(start).Round(time.Second))
	return nil
}
