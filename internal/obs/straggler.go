package obs

import (
	"sort"
	"time"
)

// WorkerStats is one worker's straggler profile over the spans it executed.
type WorkerStats struct {
	Name   string  `json:"name"`
	Cells  int     `json:"cells"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
	// Slowdown is the worker's mean lease duration relative to the fleet
	// mean (1.0 = average, 2.0 = twice as slow). 0 when the fleet mean is
	// unknown.
	Slowdown float64 `json:"slowdown"`
}

// TailCell is one of the K slowest cells with its span breakdown.
type TailCell struct {
	Key    string `json:"key"`
	Worker string `json:"worker,omitempty"`
	// TotalMS is the cell's end-to-end wall time (cell span duration, or
	// the winning lease duration if the root is still open).
	TotalMS  float64 `json:"total_ms"`
	QueueMS  float64 `json:"queue_ms"`
	LeaseMS  float64 `json:"lease_ms"`
	ExecMS   float64 `json:"exec_ms"`
	ReportMS float64 `json:"report_ms"`
	Attempts int     `json:"attempts"`
	Requeues int     `json:"requeues"`
}

// Report is the straggler analytics over one campaign's spans.
type Report struct {
	Cells       int           `json:"cells"`
	FleetP50MS  float64       `json:"fleet_p50_ms"`
	FleetP99MS  float64       `json:"fleet_p99_ms"`
	FleetMeanMS float64       `json:"fleet_mean_ms"`
	Workers     []WorkerStats `json:"workers,omitempty"`
	Tail        []TailCell    `json:"tail,omitempty"`
}

// Slowest returns the worker with the highest Slowdown ("" when unknown).
func (r *Report) Slowest() string {
	name, worst := "", 0.0
	for _, w := range r.Workers {
		if w.Slowdown > worst {
			worst, name = w.Slowdown, w.Name
		}
	}
	return name
}

// Analyze computes the straggler report over a campaign's spans: per-cell
// duration digests from final lease spans, per-worker p50/p99 and relative
// slowdown, and the k slowest cells with their span breakdowns. Open spans
// are measured up to now so a live campaign's laggards surface mid-run.
func Analyze(spans []Span, k int, now time.Time) Report {
	if k <= 0 {
		k = 10
	}
	dur := func(s *Span) float64 {
		if s.End.IsZero() {
			if now.IsZero() || now.Before(s.Start) {
				return 0
			}
			return float64(now.Sub(s.Start)) / 1e6
		}
		return s.DurationMS()
	}

	type cellAgg struct {
		TailCell
		winner float64 // the lease duration that produced the result
	}
	cells := map[string]*cellAgg{}
	fleet := NewDigest(4096)
	workers := map[string]*Digest{}
	workerCells := map[string]int{}

	for i := range spans {
		s := &spans[i]
		c := cells[s.Key]
		if c == nil {
			c = &cellAgg{TailCell: TailCell{Key: s.Key}}
			cells[s.Key] = c
		}
		d := dur(s)
		switch s.Kind {
		case KindCell:
			c.TotalMS = d
		case KindQueue:
			c.QueueMS += d
		case KindLease:
			c.Attempts++
			if s.Attempt > 1 {
				c.Requeues++
			}
			c.LeaseMS += d
			// Only completed-or-final leases feed worker digests: an open
			// lease on a live campaign still counts (that's the straggler
			// being slow right now), but a zero-duration placeholder does
			// not.
			if d > 0 {
				if workers[s.Worker] == nil {
					workers[s.Worker] = NewDigest(1024)
				}
				workers[s.Worker].Add(d)
				workerCells[s.Worker]++
				fleet.Add(d)
			}
			if s.Final || s.Status == StatusOK {
				c.Worker = s.Worker
				c.winner = d
			}
		case KindExecute:
			c.ExecMS += d
		case KindReport:
			c.ReportMS += d
		}
	}

	rep := Report{
		Cells:       len(cells),
		FleetP50MS:  fleet.Quantile(0.50),
		FleetP99MS:  fleet.Quantile(0.99),
		FleetMeanMS: fleet.Mean(),
	}

	for name, dg := range workers {
		ws := WorkerStats{
			Name:   name,
			Cells:  workerCells[name],
			P50MS:  dg.Quantile(0.50),
			P99MS:  dg.Quantile(0.99),
			MeanMS: dg.Mean(),
		}
		if rep.FleetMeanMS > 0 {
			ws.Slowdown = ws.MeanMS / rep.FleetMeanMS
		}
		rep.Workers = append(rep.Workers, ws)
	}
	sort.Slice(rep.Workers, func(i, j int) bool {
		if rep.Workers[i].Slowdown != rep.Workers[j].Slowdown {
			return rep.Workers[i].Slowdown > rep.Workers[j].Slowdown
		}
		return rep.Workers[i].Name < rep.Workers[j].Name
	})

	tail := make([]*cellAgg, 0, len(cells))
	for _, c := range cells {
		if c.TotalMS == 0 {
			// Root still open (live campaign) or missing: fall back to the
			// winning lease, then to accumulated lease time.
			if c.winner > 0 {
				c.TotalMS = c.winner
			} else {
				c.TotalMS = c.LeaseMS
			}
		}
		tail = append(tail, c)
	}
	sort.Slice(tail, func(i, j int) bool {
		if tail[i].TotalMS != tail[j].TotalMS {
			return tail[i].TotalMS > tail[j].TotalMS
		}
		return tail[i].Key < tail[j].Key
	})
	if len(tail) > k {
		tail = tail[:k]
	}
	for _, c := range tail {
		rep.Tail = append(rep.Tail, c.TailCell)
	}
	return rep
}
