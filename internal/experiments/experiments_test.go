package experiments

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/fabric"
	"mtvp/internal/harness"
	"mtvp/internal/stats"
	"mtvp/internal/workload"
)

// runExp runs the named registry experiment alone and returns its tables.
func runExp(o Options, name string) ([]*stats.Table, error) {
	for _, e := range Registry {
		if e.Name == name {
			tables, err := Run(o, name, []Experiment{e})
			if err != nil {
				return nil, err
			}
			return tables[0], nil
		}
	}
	return nil, fmt.Errorf("no experiment %q", name)
}

// render prints tables one after another, for comparing two runs.
func render(tables []*stats.Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// tinyOpts runs experiments on two small custom kernels with a short budget
// so the whole harness is exercised quickly.
func tinyOpts() Options {
	o := DefaultOptions()
	o.Insts = 4000
	o.Benchmarks = []workload.Benchmark{
		workload.PointerChase("x-int", workload.INT, workload.ChaseParams{
			Nodes: 1024, NodeBytes: 64, PoolSize: 4,
			DominantPct: 92, ReusePct: 5, SeqPct: 85, BodyOps: 24, Iters: 1 << 20,
		}),
		workload.Gather("x-fp", workload.FP, workload.GatherParams{
			Items: 4096, TableLen: 1 << 14, PoolSize: 4,
			DominantPct: 90, ReusePct: 5, FPData: true, BodyOps: 24, Iters: 1 << 20,
		}),
	}
	return o
}

func TestTable1Renders(t *testing.T) {
	out := Table1()
	for _, want := range []string{
		"30 stages", "16 total instructions from 2 cachelines",
		"2bcgskew: 64K meta and gshare, 16K bimodal",
		"256 entries", "1000 cycles", "4MB 16-way",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func checkTables(t *testing.T, tables []*stats.Table, wantCols int) {
	t.Helper()
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	for _, tab := range tables {
		if len(tab.Columns) != wantCols {
			t.Errorf("%q: %d columns, want %d", tab.Title, len(tab.Columns), wantCols)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%q: no rows", tab.Title)
		}
		for _, r := range tab.Rows {
			if len(r.Values) != len(tab.Columns) {
				t.Errorf("%q/%s: %d values for %d columns",
					tab.Title, r.Name, len(r.Values), len(tab.Columns))
			}
		}
	}
}

func TestFig1(t *testing.T) {
	tables, err := runExp(tinyOpts(), "fig1")
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 4)
	if len(tables) != 2 {
		t.Errorf("%d suite tables, want 2 (INT, FP)", len(tables))
	}
}

func TestFig3(t *testing.T) {
	tables, err := runExp(tinyOpts(), "fig3")
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 4)
}

func TestFig2(t *testing.T) {
	tables, err := runExp(tinyOpts(), "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("%d latency tables, want 3", len(tables))
	}
	checkTables(t, tables, 4)
}

func TestStoreBufferSweep(t *testing.T) {
	tables, err := runExp(tinyOpts(), "sb")
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 7)
}

func TestFig4(t *testing.T) {
	tables, err := runExp(tinyOpts(), "fig4")
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 5)
}

func TestFig5(t *testing.T) {
	tables, err := runExp(tinyOpts(), "fig5")
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		for _, r := range tab.Rows {
			if r.Values[0] < 0 || r.Values[0] > 1 {
				t.Errorf("fraction %v out of range", r.Values[0])
			}
		}
	}
}

func TestFig6(t *testing.T) {
	tables, err := runExp(tinyOpts(), "fig6")
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 3)
}

func TestMultiValue(t *testing.T) {
	tables, err := runExp(tinyOpts(), "multival")
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 3)
}

func TestDFCMCompare(t *testing.T) {
	tables, err := runExp(tinyOpts(), "dfcm")
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, tables, 4)
}

func TestAblations(t *testing.T) {
	for name, cols := range map[string]int{"prefetch": 2, "selector": 3, "sborg": 3} {
		tables, err := runExp(tinyOpts(), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkTables(t, tables, cols)
	}
}

func TestSweepParallelDeterminism(t *testing.T) {
	// The parallel sweep must give identical results regardless of worker
	// count (runs are independent; placement must not matter).
	o := tinyOpts()
	o.Parallel = 1
	t1, err := runExp(o, "fig3")
	if err != nil {
		t.Fatal(err)
	}
	o.Parallel = 8
	t8, err := runExp(o, "fig3")
	if err != nil {
		t.Fatal(err)
	}
	for i := range t1 {
		for j, r := range t1[i].Rows {
			for k, v := range r.Values {
				if t8[i].Rows[j].Values[k] != v {
					t.Fatalf("parallelism changed results: %v vs %v",
						v, t8[i].Rows[j].Values[k])
				}
			}
		}
	}
}

// normalizeReport strips the trailing wall-time footer, the only line of a
// report allowed to differ between two runs of the same experiments.
func normalizeReport(t *testing.T, s string) string {
	t.Helper()
	i := strings.LastIndex(s, "---\nGenerated in ")
	if i < 0 {
		t.Fatalf("report missing its footer:\n%s", s)
	}
	return s[:i]
}

func TestReportByteIdenticalAcrossParallelRuns(t *testing.T) {
	// Two parallel runs of the full report must be byte-identical: rows are
	// assembled in job-key order, never completion order.
	o := tinyOpts()
	o.Parallel = 8
	var a, b strings.Builder
	if err := GenerateReport(o, &a); err != nil {
		t.Fatal(err)
	}
	if err := GenerateReport(o, &b); err != nil {
		t.Fatal(err)
	}
	ra, rb := normalizeReport(t, a.String()), normalizeReport(t, b.String())
	if ra != rb {
		t.Errorf("two parallel report runs differ:\n--- first\n%s\n--- second\n%s", ra, rb)
	}
}

func TestSweepJournalAndResume(t *testing.T) {
	// A journaled sweep resumed from its own journal skips every cell and
	// reproduces the identical tables.
	journal := filepath.Join(t.TempDir(), "fig3.jsonl")
	o := tinyOpts()
	o.Journal = journal
	o.Summary = &harness.Summary{}
	t1, err := runExp(o, "fig3")
	if err != nil {
		t.Fatal(err)
	}
	ran := o.Summary.Completed

	o.Resume = true
	o.Summary = &harness.Summary{}
	t2, err := runExp(o, "fig3")
	if err != nil {
		t.Fatal(err)
	}
	if o.Summary.Skipped != ran || o.Summary.Completed != 0 {
		t.Errorf("resume re-ran cells: first run completed %d, resume skipped %d / completed %d",
			ran, o.Summary.Skipped, o.Summary.Completed)
	}
	for i := range t1 {
		if t1[i].String() != t2[i].String() {
			t.Errorf("resumed table %d differs:\n--- fresh\n%s\n--- resumed\n%s",
				i, t1[i], t2[i])
		}
	}

	// A journal written at different options must be refused, not mixed in.
	o.Insts = o.Insts * 2
	if _, err := runExp(o, "fig3"); err == nil {
		t.Error("resume accepted a journal written at different options")
	}
}

func TestGenerateReportTiny(t *testing.T) {
	var buf strings.Builder
	if err := GenerateReport(tinyOpts(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# EXPERIMENTS — paper vs. measured", "## Table 1",
		"## Figure 1", "## Figure 2", "## Section 5.3", "## Figure 3",
		"## Section 5.4", "## Figure 4", "## Figure 5", "## Section 5.6",
		"## Figure 6", "## Ablations", "Verdict:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestFaultSweepAbortFailsItsCell pins the executor's outcome rule: only
// a cell that declares AbortIsResult (the fault campaign's) counts a
// structured fault report as a result. The same aborting cell in a
// -faults sweep fails its campaign with a *harness.FailedError naming that
// cell, while declared as a fault-campaign cell it is an abort row
// carrying the report's counters.
func TestFaultSweepAbortFailsItsCell(t *testing.T) {
	o := fabricOpts()
	o.Benchmarks = o.Benchmarks[:1] // mcf
	o.Insts = 20_000
	o.Retries = 0
	o.FaultProfile, o.FaultSeed = "stuck-iq-storm", 1
	mtvp := core.Hardened(mtvpWF(4))

	s := sweep{name: "faultsweep", labels: []string{"base", "mtvp4"},
		cfgs: []config.Config{core.Hardened(core.Baseline()), mtvp}}
	_, err := Run(o, "faultsweep", []Experiment{{Name: "faultsweep", cells: s.cells, tables: s.speedups("")}})
	var failed *harness.FailedError
	if !errors.As(err, &failed) {
		t.Fatalf("sweep error = %v, want a *harness.FailedError", err)
	}
	var named bool
	for _, f := range failed.Failures {
		if f.Key == "faultsweep/mcf/mtvp4" && strings.Contains(f.Err, "fault report") {
			named = true
		}
	}
	if !named {
		t.Fatalf("no failure names faultsweep/mcf/mtvp4 with its fault report: %v", failed.Failures)
	}

	spec := o.spec("robust/stuck-iq-storm/mtvp/mcf", o.Benchmarks[0], "mtvp", mtvp)
	spec.AbortIsResult = true
	res, err := runCell(context.Background(), o.Benchmarks[0], spec, nil)
	if err != nil {
		t.Fatalf("fault-campaign cell: %v, want an abort result", err)
	}
	if !res.Abort || res.Stats.FaultsInjected == 0 {
		t.Errorf("fault-campaign cell = abort %v, injected %d; want an abort with its injected count",
			res.Abort, res.Stats.FaultsInjected)
	}
}

// TestOutcomeRuleSplitsCells: a fault-campaign cell and a sweep cell with
// the same benchmark, seed and config are two cells, not one. Run in one
// campaign on a machine that aborts, the sweep cell fails while the
// fault-campaign cell completes as an abort row.
func TestOutcomeRuleSplitsCells(t *testing.T) {
	o := fabricOpts()
	o.Benchmarks = o.Benchmarks[:1] // mcf
	o.Insts = 20_000
	o.Retries = 0
	o.FaultProfile, o.FaultSeed = "stuck-iq-storm", 1
	o.Summary = &harness.Summary{}
	mtvp := core.Hardened(mtvpWF(4))
	declare := func(key string, abortIsResult bool) func(Options) []fabric.JobSpec {
		return func(o Options) []fabric.JobSpec {
			s := o.spec(key, o.Benchmarks[0], "mtvp4", mtvp)
			s.AbortIsResult = abortIsResult
			return []fabric.JobSpec{s}
		}
	}
	none := func(Options, results) []*stats.Table { return nil }
	_, err := Run(o, "split", []Experiment{
		{Name: "sweep", cells: declare("sweep/mcf/mtvp4", false), tables: none},
		{Name: "robust", cells: declare("robust/mcf/mtvp4", true), tables: none},
	})
	var failed *harness.FailedError
	if !errors.As(err, &failed) || len(failed.Failures) != 1 || failed.Failures[0].Key != "sweep/mcf/mtvp4" {
		t.Fatalf("err = %v, want exactly the sweep cell failed", err)
	}
	if o.Summary.Total != 2 || o.Summary.Completed != 1 {
		t.Errorf("campaign ran %d cells (%d completed), want 2 (1 completed)", o.Summary.Total, o.Summary.Completed)
	}
}

// TestSharedCellsRunOnce: cells that several experiments declare run once
// per campaign. Figure 1 is Figure 2's 1-cycle sweep, and Figure 2's
// baseline and STVP columns do not depend on the spawn latency, so both
// together run Figure 2's 11 distinct cells per benchmark; each renders
// the same tables as when run alone.
func TestSharedCellsRunOnce(t *testing.T) {
	o := tinyOpts()
	o.Summary = &harness.Summary{}
	both, err := Run(o, "fig1+fig2", Registry[1:3])
	if err != nil {
		t.Fatal(err)
	}
	if want := 11 * len(o.Benchmarks); o.Summary.Total != want {
		t.Errorf("fig1+fig2 ran %d cells, want %d", o.Summary.Total, want)
	}
	for i, name := range []string{"fig1", "fig2"} {
		alone, err := runExp(o, name)
		if err != nil {
			t.Fatal(err)
		}
		if render(alone) != render(both[i]) {
			t.Errorf("%s differs run alone and with fig1+fig2:\n%s\n---\n%s", name, render(alone), render(both[i]))
		}
	}
}

// TestRunRefusesRepeatedBenchmark: a benchmark named twice would count
// twice in every average, so Run refuses it and names it.
func TestRunRefusesRepeatedBenchmark(t *testing.T) {
	o := tinyOpts()
	o.Benchmarks = append(o.Benchmarks, o.Benchmarks[0])
	o.Summary = &harness.Summary{}
	_, err := runExp(o, "fig3")
	if err == nil || !strings.Contains(err.Error(), `"x-int"`) {
		t.Fatalf("x-int named twice: err = %v, want a refusal naming it", err)
	}
	if o.Summary.Total != 0 {
		t.Errorf("refused selection ran a campaign of %d cells", o.Summary.Total)
	}
}

// TestAverageRowsNameTheirSuite: an average row is labelled with its
// table's suite, also when only one suite ran.
func TestAverageRowsNameTheirSuite(t *testing.T) {
	for _, bi := range []int{0, 1} {
		o := tinyOpts()
		b := o.Benchmarks[bi]
		o.Benchmarks = o.Benchmarks[bi : bi+1]
		want := "AVG " + strings.TrimPrefix(b.Suite.String(), "SPEC ")
		tables, err := runExp(o, "dfcm")
		if err != nil {
			t.Fatal(err)
		}
		if rows := tables[0].Rows; len(rows) != 1 || rows[0].Name != want {
			t.Errorf("%s alone: average rows %+v, want one named %q", b.Name, rows, want)
		}
	}
}
