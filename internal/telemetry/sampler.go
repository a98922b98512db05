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
)

// CycleCounters is the cumulative counter snapshot the pipeline engine
// hands the sampler every cycle. Plain uint64s passed by value: the
// per-cycle feed allocates nothing.
type CycleCounters struct {
	Committed uint64
	Squashed  uint64
	Loads     uint64
	DL1Miss   uint64
	VPCorrect uint64
	VPWrong   uint64
	Spawns    uint64
	Confirms  uint64
	Kills     uint64

	// Predictor-table sharing interference (vpred.Bank, shared mode only;
	// zero otherwise).
	VPCrossLookups uint64 // lookups hitting state last trained by another context
	VPCrossEvicts  uint64 // trains displacing another context's state
}

// CycleGauges is the instantaneous machine state at a cycle: window and
// queue occupancy, thread population, and store-buffer pressure.
type CycleGauges struct {
	ROBUsed      int
	RenameUsed   int
	IQUsed       int
	StoreBufUsed int
	LiveThreads  int
	SpecThreads  int
}

// Sampler accumulates cycle-bucketed time series: every Every cycles it
// closes a bucket, converting the counter deltas since the previous bucket
// into rates (useful IPC, VP accuracy) and recording the instantaneous
// occupancy gauges.
type Sampler struct {
	// Every is the bucket width in cycles; <=0 selects 1024.
	Every int64

	points    []Point
	started   bool
	lastCycle int64
	last      CycleCounters
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

	// Deltas over the bucket.
	Committed uint64 `json:"committed"`
	Squashed  uint64 `json:"squashed"`
	Loads     uint64 `json:"loads"`
	DL1Miss   uint64 `json:"dl1_miss"`
	Spawns    uint64 `json:"spawns"`
	Confirms  uint64 `json:"confirms"`
	Kills     uint64 `json:"kills"`
	// Predictor-table sharing interference deltas (shared mode only).
	VPCross      uint64 `json:"vp_cross"`
	VPCrossEvict uint64 `json:"vp_cross_evict"`

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

func (s *Sampler) every() int64 {
	if s.Every <= 0 {
		return DefaultSampleEvery
	}
	return s.Every
}

// Tick feeds one simulated cycle: the engine calls it once per executed
// cycle with the instantaneous gauges and the cumulative counters.
// Allocation-free except when a sample bucket closes.
func (s *Sampler) Tick(cycle int64, g CycleGauges, c CycleCounters) {
	if !s.started {
		s.started = true
		s.lastCycle = cycle - 1
	}
	if cycle-s.lastCycle < s.every() {
		return
	}
	s.close(cycle, g, c)
}

// TickIdleRange feeds a skipped idle cycle span [from, to] in one call. The
// caller guarantees the machine was frozen across the span: the gauges and
// cumulative counters it passes held at every cycle in it. It closes exactly
// the buckets per-cycle Ticks would have closed, at the same cycles, with the
// same data, so the points are byte-identical.
func (s *Sampler) TickIdleRange(from, to int64, g CycleGauges, c CycleCounters) {
	if !s.started {
		s.started = true
		s.lastCycle = from - 1
	}
	for s.lastCycle+s.every() <= to {
		s.close(s.lastCycle+s.every(), g, c)
	}
}

// Finish closes the final partial bucket (call once, when the run ends;
// later calls with no progress add nothing).
func (s *Sampler) Finish(cycle int64, g CycleGauges, c CycleCounters) {
	if !s.started || cycle <= s.lastCycle {
		return
	}
	s.close(cycle, g, c)
}

func (s *Sampler) close(cycle int64, g CycleGauges, c CycleCounters) {
	width := cycle - s.lastCycle
	p := Point{
		Cycle:     cycle,
		Committed: c.Committed - s.last.Committed,
		Squashed:  c.Squashed - s.last.Squashed,
		Loads:     c.Loads - s.last.Loads,
		DL1Miss:   c.DL1Miss - s.last.DL1Miss,
		Spawns:    c.Spawns - s.last.Spawns,
		Confirms:  c.Confirms - s.last.Confirms,
		Kills:     c.Kills - s.last.Kills,

		VPCross:      c.VPCrossLookups - s.last.VPCrossLookups,
		VPCrossEvict: c.VPCrossEvicts - s.last.VPCrossEvicts,

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
		if c.Committed >= s.last.Committed {
			p.IPC = float64(p.Committed) / float64(width)
		} else {
			p.Committed = 0
		}
	}
	dc := c.VPCorrect - s.last.VPCorrect
	dw := c.VPWrong - s.last.VPWrong
	if c.VPCorrect >= s.last.VPCorrect && c.VPWrong >= s.last.VPWrong && dc+dw > 0 {
		p.VPAccuracy = float64(dc) / float64(dc+dw)
	}
	s.points = append(s.points, p)
	s.lastCycle = cycle
	s.last = c
}

// seriesColumns names the CSV columns, in Point field order.
var seriesColumns = []string{
	"cycle", "ipc", "vp_acc",
	"committed", "squashed", "loads", "dl1_miss", "spawns", "confirms", "kills",
	"vp_cross", "vp_cross_evict",
	"occupancy", "rename_used", "iq_used", "storebuf_used", "live_threads", "spec_threads",
}

// WriteCSV renders the series as CSV with a header row.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(seriesColumns, ",")); err != nil {
		return err
	}
	for _, p := range s.points {
		_, err := fmt.Fprintf(w, "%d,%.6f,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			p.Cycle, p.IPC, p.VPAccuracy,
			p.Committed, p.Squashed, p.Loads, p.DL1Miss, p.Spawns, p.Confirms, p.Kills,
			p.VPCross, p.VPCrossEvict,
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
