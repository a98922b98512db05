// Package telemetry is the simulator's observability layer: the
// cycle-bucketed time-series Sampler the pipeline engine feeds directly,
// and machine-readable trace sinks (JSONL and Chrome trace-event /
// Perfetto).
//
// Everything here is strictly observational: an attached sampler or sink
// must never change simulation results (test-enforced in internal/core).
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mtvp/internal/stats"
)

// Gauges is the instantaneous machine state at a bucket edge: window and
// queue occupancy, thread population, and store-buffer pressure.
type Gauges struct {
	ROBUsed      int
	RenameUsed   int
	IQUsed       int
	StoreBufUsed int
	LiveThreads  int
	SpecThreads  int
}

// Sampler accumulates cycle-bucketed time series. Bucket edges are the
// multiples of Every; at each edge the engine hands it the run's Stats and
// the occupancy gauges, and it closes a bucket, converting the counter
// deltas since the previous edge into rates (useful IPC, VP accuracy) and
// recording the gauges.
type Sampler struct {
	// Every is the bucket width in cycles; <=0 selects 1024.
	Every int64

	points    []Point
	lastCycle int64
	last      stats.Stats
}

// DefaultSampleEvery is the default time-series bucket width in cycles.
const DefaultSampleEvery = 1024

// NewSampler returns a sampler with the given bucket width (<=0 selects
// DefaultSampleEvery).
func NewSampler(every int64) *Sampler {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	return &Sampler{Every: every}
}

// Point is one closed time-series bucket.
type Point struct {
	Cycle int64 `json:"cycle"` // cycle the bucket closed at

	// Rates over the bucket.
	IPC        float64 `json:"ipc"`    // useful commits per cycle
	VPAccuracy float64 `json:"vp_acc"` // resolved-prediction accuracy (0 when none resolved)

	// Deltas over the bucket, of the stats.Stats fields of the same names.
	Committed uint64 `json:"committed"`
	Squashed  uint64 `json:"squashed"`
	Loads     uint64 `json:"loads"`
	DL1Miss   uint64 `json:"dl1_miss"`
	Spawns    uint64 `json:"spawns"`
	Confirms  uint64 `json:"confirms"`
	Kills     uint64 `json:"kills"`

	// Instantaneous occupancy at bucket close.
	Occupancy    int `json:"occupancy"` // reorder buffer entries in use
	RenameUsed   int `json:"rename_used"`
	IQUsed       int `json:"iq_used"`
	StoreBufUsed int `json:"storebuf_used"`
	LiveThreads  int `json:"live_threads"`
	SpecThreads  int `json:"spec_threads"`
}

// Points returns the closed buckets, oldest first.
func (s *Sampler) Points() []Point { return s.points }

// NextEdge returns the first bucket edge after cycle.
func (s *Sampler) NextEdge(cycle int64) int64 {
	every := s.Every
	if every <= 0 {
		every = DefaultSampleEvery
	}
	return cycle - cycle%every + every
}

// Finish closes the final partial bucket (call once, when the run ends;
// later calls with no progress add nothing).
func (s *Sampler) Finish(cycle int64, st *stats.Stats, g Gauges) {
	if cycle <= s.lastCycle {
		return
	}
	s.Sample(cycle, st, g)
}

// Sample closes the bucket that ends at cycle, a bucket edge, from the
// run's counters and gauges as they stand at the end of that cycle. The
// engine calls it once per edge.
func (s *Sampler) Sample(cycle int64, st *stats.Stats, g Gauges) {
	width := cycle - s.lastCycle
	p := Point{
		Cycle:     cycle,
		Committed: st.Committed - s.last.Committed,
		Squashed:  st.Squashed - s.last.Squashed,
		Loads:     st.Loads - s.last.Loads,
		DL1Miss:   st.DL1Miss - s.last.DL1Miss,
		Spawns:    st.Spawns - s.last.Spawns,
		Confirms:  st.Confirms - s.last.Confirms,
		Kills:     st.Kills - s.last.Kills,

		Occupancy:    g.ROBUsed,
		RenameUsed:   g.RenameUsed,
		IQUsed:       g.IQUsed,
		StoreBufUsed: g.StoreBufUsed,
		LiveThreads:  g.LiveThreads,
		SpecThreads:  g.SpecThreads,
	}
	if width > 0 {
		// Killed threads' commits are discounted retroactively, so a
		// bucket dominated by kills can go net-negative; clamp to zero
		// rather than report a negative rate.
		if st.Committed >= s.last.Committed {
			p.IPC = float64(p.Committed) / float64(width)
		} else {
			p.Committed = 0
		}
	}
	dc := st.VPCorrect - s.last.VPCorrect
	dw := st.VPWrong - s.last.VPWrong
	if st.VPCorrect >= s.last.VPCorrect && st.VPWrong >= s.last.VPWrong && dc+dw > 0 {
		p.VPAccuracy = float64(dc) / float64(dc+dw)
	}
	s.points = append(s.points, p)
	s.lastCycle = cycle
	s.last = *st
}

// seriesColumns names the CSV columns, in Point field order.
var seriesColumns = []string{
	"cycle", "ipc", "vp_acc",
	"committed", "squashed", "loads", "dl1_miss", "spawns", "confirms", "kills",
	"occupancy", "rename_used", "iq_used", "storebuf_used", "live_threads", "spec_threads",
}

// WriteCSV renders the series as CSV with a header row.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(seriesColumns, ",")); err != nil {
		return err
	}
	for _, p := range s.points {
		_, err := fmt.Fprintf(w, "%d,%.6f,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			p.Cycle, p.IPC, p.VPAccuracy,
			p.Committed, p.Squashed, p.Loads, p.DL1Miss, p.Spawns, p.Confirms, p.Kills,
			p.Occupancy, p.RenameUsed, p.IQUsed, p.StoreBufUsed, p.LiveThreads, p.SpecThreads)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL renders the series as one JSON object per line.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, p := range s.points {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	return nil
}
