// Package stats collects the counters the simulator reports and provides
// the derived metrics the paper's figures use: useful IPC, percent speedup,
// and geometric means over benchmark groups.
package stats

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
)

// Stats accumulates event counts for one simulation run. "Useful" committed
// instructions are those committed by threads that ultimately survive —
// instructions squashed with a killed speculative thread never count.
type Stats struct {
	Cycles    uint64
	Fetched   uint64
	Issued    uint64
	Committed uint64 // useful committed instructions
	Squashed  uint64 // instructions discarded by kills or mispredicts

	// Branch prediction.
	Branches     uint64
	BranchWrong  uint64
	FetchBlocked uint64 // cycles no thread could fetch

	// Memory system.
	Loads        uint64
	Stores       uint64
	DL1Miss      uint64
	L2Miss       uint64
	L3Miss       uint64
	PrefIssued   uint64 // prefetches launched
	PrefHits     uint64 // demand hits in stream buffers
	StoreBufHits uint64 // loads forwarded from a store buffer

	// Value prediction.
	VPLookups   uint64 // predictor consulted
	VPConfident uint64 // predictor was over threshold
	VPPredicted uint64 // a prediction was followed (STVP or MTVP)
	VPCorrect   uint64
	VPWrong     uint64
	// Multi-value potential (Figure 5): followed predictions whose primary
	// value was wrong but the correct value was present and over threshold.
	VPWrongButPresent uint64

	// Threading.
	Spawns          uint64 // speculative threads created
	Confirms        uint64 // predictions confirmed (child survives)
	Kills           uint64 // children killed on misprediction
	SpawnDenied     uint64 // spawn wanted but no context free
	STVPUsed        uint64 // single-thread predictions made (incl. fallback)
	Reissues        uint64 // instructions re-executed by selective reissue
	MultiValueSaves uint64 // events where a non-primary value was the right one
	DeadlockBreaks  uint64 // recovery-controller deadlock breaks (unstick or subtree kill)

	// Fault injection (internal/fault campaigns).
	FaultsInjected    uint64 // total injected faults, all classes
	FaultPredBitFlip  uint64 // predicted-value bit flips
	FaultPredAlias    uint64 // predictor index aliasing storms
	FaultStoreDrop    uint64 // dropped store-buffer entries
	FaultStoreCorrupt uint64 // corrupted store-buffer address tags
	FaultSpawnLost    uint64 // lost spawn events
	FaultSpawnDup     uint64 // duplicated spawn events
	FaultMemDelay     uint64 // delayed memory completions
	FaultIQStick      uint64 // stuck issue-queue slots

	// Recovery controller.
	RecoveryUnsticks     uint64 // stuck issue-queue slots force-cleared
	QuarantineClamps     uint64 // contexts entering confidence-clamp quarantine
	QuarantineDisables   uint64 // contexts entering full predictor disable
	QuarantineSuppressed uint64 // predictions suppressed by an active quarantine
	Degradations         uint64 // ladder steps down (MTVP->STVP->none)
	Restorations         uint64 // ladder steps back up after cool-down
}

// UsefulIPC returns committed useful instructions per cycle.
func (s *Stats) UsefulIPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// BranchAccuracy returns the fraction of branches predicted correctly.
func (s *Stats) BranchAccuracy() float64 {
	if s.Branches == 0 {
		return 1
	}
	return 1 - float64(s.BranchWrong)/float64(s.Branches)
}

// VPAccuracy returns the fraction of followed predictions that were correct.
func (s *Stats) VPAccuracy() float64 {
	n := s.VPCorrect + s.VPWrong
	if n == 0 {
		return 0
	}
	return float64(s.VPCorrect) / float64(n)
}

// NamedCounter pairs one exported Stats counter field with its value.
type NamedCounter struct {
	Name  string
	Value uint64
}

// Counters enumerates every exported uint64 counter field of Stats by
// reflection, in declaration order. Renderers built on it (String, the
// telemetry exporters) can never silently drop a newly added counter.
func (s *Stats) Counters() []NamedCounter {
	v := reflect.ValueOf(*s)
	t := v.Type()
	out := make([]NamedCounter, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Uint64 {
			continue
		}
		out = append(out, NamedCounter{Name: f.Name, Value: v.Field(i).Uint()})
	}
	return out
}

// String summarises the run: the derived rates first, then every nonzero
// counter as FieldName=value. The counter list comes from Counters(), so a
// counter added to the struct shows up here without any formatting change
// (the round-trip test enforces it).
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ipc=%.4f brAcc=%.3f", s.UsefulIPC(), s.BranchAccuracy())
	if s.VPCorrect+s.VPWrong > 0 {
		fmt.Fprintf(&b, " vpAcc=%.3f", s.VPAccuracy())
	}
	for _, c := range s.Counters() {
		if c.Value != 0 {
			fmt.Fprintf(&b, " %s=%d", c.Name, c.Value)
		}
	}
	return b.String()
}

// SpeedupPct returns the percent speedup of ipc over base, the metric of
// Figures 1–4 and 6 ("Percent Speedup" in useful IPC).
func SpeedupPct(base, ipc float64) float64 {
	if base == 0 {
		return 0
	}
	return (ipc/base - 1) * 100
}

// GeoMeanSpeedupPct combines per-benchmark percent speedups the way the
// paper reports averages: the geometric mean of the IPC ratios, expressed
// as a percent gain. Ratios must be > 0 (i.e., speedups > −100%).
func GeoMeanSpeedupPct(pcts []float64) float64 {
	if len(pcts) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range pcts {
		r := 1 + p/100
		if r <= 0 {
			r = 1e-6
		}
		sum += math.Log(r)
	}
	return (math.Exp(sum/float64(len(pcts))) - 1) * 100
}

// Row is one line of a result table: a benchmark and one value per column.
type Row struct {
	Name   string
	Values []float64
}

// Table formats experiment results the way the figure harness prints them.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// Add appends a row.
func (t *Table) Add(name string, values ...float64) {
	t.Rows = append(t.Rows, Row{Name: name, Values: values})
}

// AddGeoMean appends an "average" row holding the geometric-mean percent
// speedup of each column across the existing rows.
func (t *Table) AddGeoMean(label string) {
	if len(t.Rows) == 0 {
		return
	}
	n := len(t.Rows[0].Values)
	avg := make([]float64, n)
	for c := 0; c < n; c++ {
		col := make([]float64, 0, len(t.Rows))
		for _, r := range t.Rows {
			if c < len(r.Values) {
				col = append(col, r.Values[c])
			}
		}
		avg[c] = GeoMeanSpeedupPct(col)
	}
	t.Add(label, avg...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	nameW := 12
	for _, r := range t.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s", nameW+2, "benchmark")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", nameW+2, r.Name)
		for _, v := range r.Values {
			fmt.Fprintf(&b, "%14.2f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SortRows orders rows by name, keeping any row whose name starts with
// "average" last. Deterministic output for goldens and logs.
func (t *Table) SortRows() {
	sort.SliceStable(t.Rows, func(i, j int) bool {
		ai := strings.HasPrefix(t.Rows[i].Name, "average")
		aj := strings.HasPrefix(t.Rows[j].Name, "average")
		if ai != aj {
			return aj
		}
		return t.Rows[i].Name < t.Rows[j].Name
	})
}
