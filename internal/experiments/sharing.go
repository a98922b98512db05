package experiments

import (
	"fmt"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/stats"
)

// Sharing-study axes: the predictor zoo crossed with every table
// organisation at two context counts. Wang–Franklin anchors the zoo to the
// paper's default predictor; VPQ stride and equality/LCV are the ported
// exemplar designs.
var (
	sharingPreds = []config.PredictorKind{
		config.PredWangFranklin,
		config.PredVPQStride,
		config.PredEqualityLCV,
	}
	sharingModes = []config.SharingMode{
		config.ShareShared,
		config.SharePrivate,
		config.SharePartitioned,
	}
	sharingCtxs = []int{2, 8}
)

// sharingModeTag abbreviates a mode for column labels: sh/pr/pt.
func sharingModeTag(m config.SharingMode) string {
	switch m {
	case config.SharePrivate:
		return "pr"
	case config.SharePartitioned:
		return "pt"
	default:
		return "sh"
	}
}

// SharingStudy runs the Durbhakula-style predictor-table organisation
// study: every zoo predictor × {shared, private, partitioned} tables ×
// {2, 8} hardware contexts on the MTVP machine. It returns one percent-
// speedup summary table per predictor (suite averages over the no-VP
// baseline) plus the cross-context interference counters the shared-table
// probe collects (vpred.Bank): constructive vs destructive sharing hits and
// cross-context evictions, summed over the benchmark suite.
func SharingStudy(o Options) ([]*stats.Table, error) {
	benches := o.benches()

	labels := []string{"base"}
	cfgs := []config.Config{core.Baseline()}
	for _, p := range sharingPreds {
		for _, m := range sharingModes {
			for _, c := range sharingCtxs {
				labels = append(labels, fmt.Sprintf("%s-%s%d", p, sharingModeTag(m), c))
				cfgs = append(cfgs, core.MTVPSharing(c, p, m))
			}
		}
	}
	cells, err := o.grid("sharing", labels, benches, cfgs)
	if err != nil {
		return nil, err
	}

	// ipc[bench][cell] plus per-cell interference sums across the suite.
	ipc := make([][]float64, len(benches))
	agg := make([]stats.Stats, len(cfgs))
	for bi, row := range cells {
		ipc[bi] = make([]float64, len(row))
		for ci, r := range row {
			ipc[bi][ci] = r.IPC
			a := &agg[ci]
			a.VPCrossLookups += r.Stats.VPCrossLookups
			a.VPShareHelpful += r.Stats.VPShareHelpful
			a.VPShareHarmful += r.Stats.VPShareHarmful
			a.VPCrossTrains += r.Stats.VPCrossTrains
			a.VPCrossEvictions += r.Stats.VPCrossEvictions
		}
	}
	// Cell index of (pred pi, mode mi, ctx ci); cell 0 is the baseline.
	cellAt := func(pi, mi, ci int) int {
		return 1 + pi*len(sharingModes)*len(sharingCtxs) + mi*len(sharingCtxs) + ci
	}

	var out []*stats.Table
	for pi, p := range sharingPreds {
		cols := make([]string, 0, len(sharingModes)*len(sharingCtxs))
		mat := make([][]float64, len(benches))
		for bi := range benches {
			mat[bi] = append(mat[bi], ipc[bi][0])
		}
		for mi, m := range sharingModes {
			for ci, c := range sharingCtxs {
				cols = append(cols, fmt.Sprintf("%s%d", sharingModeTag(m), c))
				for bi := range benches {
					mat[bi] = append(mat[bi], ipc[bi][cellAt(pi, mi, ci)])
				}
			}
		}
		title := fmt.Sprintf("Sharing study — %s (mtvp, %% speedup)", p)
		out = append(out, averagesOnly(title, cols, speedupTables(title, cols, benches, mat)))
	}

	it := &stats.Table{
		Title:   "Sharing interference — shared tables (counts summed over the suite)",
		Columns: []string{"crossLk", "helpful", "harmful", "crossTr", "evicts"},
	}
	for pi, p := range sharingPreds {
		for ci, c := range sharingCtxs {
			a := agg[cellAt(pi, 0, ci)] // sharingModes[0] is ShareShared
			it.Add(fmt.Sprintf("%s x%d", p, c),
				float64(a.VPCrossLookups), float64(a.VPShareHelpful),
				float64(a.VPShareHarmful), float64(a.VPCrossTrains),
				float64(a.VPCrossEvictions))
		}
	}
	out = append(out, it)
	return out, nil
}
