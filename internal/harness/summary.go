package harness

import (
	"fmt"
	"io"
	"time"

	"mtvp/internal/stats"
)

// Summary aggregates one campaign's health: how many cells completed, were
// skipped on resume, retried, failed, or were never run (drained by a
// shutdown), plus attempt-level counters and wall time.
type Summary struct {
	Name string

	Total     int // cells submitted
	Completed int // cells that finished and were journaled
	Skipped   int // cells resumed from the journal
	Retried   int // cells that needed at least one retry
	Failed    int // cells that exhausted their retry budget
	Unrun     int // cells never dispatched (shutdown drain)

	Attempts int // total attempts, first tries included
	Retries  int // attempts beyond each cell's first
	Timeouts int // attempts canceled by the wall-clock deadline
	Stalls   int // attempts canceled by the progress watchdog
	Panics   int // attempts that panicked (captured)

	Wall time.Duration

	// Simulated work aggregated from per-cell stats snapshots (sweeps fill
	// these from each cell's stats.Stats): total machine cycles simulated
	// and useful instructions committed across every completed cell.
	SimCycles uint64
	SimInsts  uint64

	// Failures holds the structured records of failed cells, sorted by key.
	Failures []JobFailure
}

// Table renders the summary as the campaign health table the CLIs print.
func (s *Summary) Table() *stats.Table {
	title := "Campaign summary"
	if s.Name != "" {
		title += " — " + s.Name
	}
	title += " (wall " + s.Wall.Round(time.Millisecond).String() + ")"
	t := &stats.Table{
		Title: title,
		Columns: []string{"completed", "retried", "failed", "skipped", "unrun",
			"attempts", "timeouts", "stalls", "panics", "Mcycles", "Minsts"},
	}
	t.Add("cells",
		float64(s.Completed), float64(s.Retried), float64(s.Failed),
		float64(s.Skipped), float64(s.Unrun),
		float64(s.Attempts), float64(s.Timeouts), float64(s.Stalls), float64(s.Panics),
		float64(s.SimCycles)/1e6, float64(s.SimInsts)/1e6)
	return t
}

// Render writes the health table (the form the CLIs print).
func (s *Summary) Render(w io.Writer) {
	fmt.Fprintln(w, s.Table())
}
