package experiments

import (
	"fmt"
	"strings"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/core"
)

// sharingGoldenSweep runs one small oracle-checked campaign per (new
// predictor × sharing mode) and returns the IPC matrix. Check=true makes
// every cell a differential run: any oracle divergence fails the sweep.
// perCycle runs every cell on the per-cycle reference engine.
func sharingGoldenSweep(t *testing.T, o Options, perCycle bool) [][]float64 {
	t.Helper()
	var cols []string
	var machines []config.Config
	for _, p := range []config.PredictorKind{config.PredVPQStride, config.PredEqualityLCV} {
		for _, m := range sharingModes {
			cfg := core.MTVPSharing(4, p, m)
			cfg.Check = true
			cfg.PerCycle = perCycle
			cols = append(cols, fmt.Sprintf("%s-%s", p, sharingModeTag(m)))
			machines = append(machines, cfg)
		}
	}
	base := core.Baseline()
	base.Check = true
	base.PerCycle = perCycle
	ipc, err := o.sweepAgainst("sharinggold", cols, base, o.benches(), machines)
	if err != nil {
		t.Fatal(err)
	}
	return ipc
}

// TestSharingStudyGolden pins the new predictor × sharing-mode campaign:
// every cell runs under the lockstep oracle checker, and the resulting IPC
// matrix must be bit-identical across harness parallelism and on the
// per-cycle reference engine — the sharing axis must not introduce
// placement- or scheduler-dependent behaviour.
func TestSharingStudyGolden(t *testing.T) {
	o := tinyOpts()

	o.Parallel = 1
	serial := sharingGoldenSweep(t, o, false)
	o.Parallel = 8
	parallel := sharingGoldenSweep(t, o, false)
	perCycle := sharingGoldenSweep(t, o, true)

	for bi := range serial {
		for ci := range serial[bi] {
			if parallel[bi][ci] != serial[bi][ci] {
				t.Errorf("cell [%d][%d]: parallelism changed IPC %v -> %v",
					bi, ci, serial[bi][ci], parallel[bi][ci])
			}
			if perCycle[bi][ci] != serial[bi][ci] {
				t.Errorf("cell [%d][%d]: the per-cycle engine changed IPC %v -> %v",
					bi, ci, serial[bi][ci], perCycle[bi][ci])
			}
		}
	}
}

// TestSharingStudyTables smoke-runs the full published study at tiny scale
// and checks its table contract: one speedup table per zoo predictor (six
// organisation columns each) plus the interference table, whose shared-mode
// rows must actually record cross-context traffic.
func TestSharingStudyTables(t *testing.T) {
	tables, err := SharingStudy(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(sharingPreds) + 1; len(tables) != want {
		t.Fatalf("%d tables, want %d (one per predictor + interference)", len(tables), want)
	}
	for _, tab := range tables[:len(sharingPreds)] {
		if len(tab.Columns) != len(sharingModes)*len(sharingCtxs) {
			t.Errorf("%q: %d columns, want %d", tab.Title, len(tab.Columns),
				len(sharingModes)*len(sharingCtxs))
		}
	}
	interf := tables[len(tables)-1]
	if !strings.Contains(interf.Title, "interference") {
		t.Fatalf("last table is %q, want the interference table", interf.Title)
	}
	var cross float64
	for _, r := range interf.Rows {
		if len(r.Values) == 0 {
			t.Fatalf("%q: row %s has no values", interf.Title, r.Name)
		}
		cross += r.Values[0]
	}
	if cross == 0 {
		t.Error("shared-table cells recorded zero cross-context lookups")
	}
}
