package obs

import (
	"io"
	"sort"
	"time"

	"mtvp/internal/telemetry"
)

// Track assignment for the campaign trace: the coordinator's own spans
// (cell roots, queues, journal writes) render on tid 0; each worker gets
// its own track, sorted by name, holding the lease/execute/report spans it
// owned. Flow arrows stitch the cross-track
// causality: queue→lease when a cell leaves the coordinator's queue for a
// worker, and report→journal when the result lands back.
const coordinatorTID = 0

// WriteTrace streams the campaign's spans as Chrome trace-event JSON to w,
// reusing the telemetry TraceWriter (same document shape as the pipeline
// Perfetto exporter). end anchors still-open spans; pass the current time
// for a live campaign. Span times are exported at microsecond resolution
// relative to the earliest span start, so traces from any wall-clock epoch
// load cleanly.
func WriteTrace(w io.Writer, name string, spans []Span, end time.Time) error {
	tw := telemetry.NewTraceWriter(w)

	spans = append([]Span(nil), spans...)
	SortCanonical(spans)

	// Earliest start anchors ts 0.
	var epoch time.Time
	for i := range spans {
		if epoch.IsZero() || spans[i].Start.Before(epoch) {
			epoch = spans[i].Start
		}
	}
	ts := func(t time.Time) int64 {
		if t.Before(epoch) {
			return 0
		}
		return t.Sub(epoch).Microseconds()
	}

	// Assign worker tracks in sorted-name order.
	workerSet := map[string]bool{}
	for i := range spans {
		if w := spans[i].Worker; w != "" {
			workerSet[w] = true
		}
	}
	workers := make([]string, 0, len(workerSet))
	for w := range workerSet {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	tidOf := map[string]int{"": coordinatorTID}
	for i, w := range workers {
		tidOf[w] = coordinatorTID + 1 + i
	}

	tw.Emit(telemetry.TraceEvent{Name: "process_name", Ph: "M", PID: 0,
		Args: map[string]any{"name": "campaign " + name}})
	tw.Emit(telemetry.TraceEvent{Name: "thread_name", Ph: "M", PID: 0, TID: coordinatorTID,
		Args: map[string]any{"name": "coordinator"}})
	tw.Emit(telemetry.TraceEvent{Name: "thread_sort_index", Ph: "M", PID: 0, TID: coordinatorTID,
		Args: map[string]any{"sort_index": 0}})
	for i, w := range workers {
		tid := coordinatorTID + 1 + i
		tw.Emit(telemetry.TraceEvent{Name: "thread_name", Ph: "M", PID: 0, TID: tid,
			Args: map[string]any{"name": "worker " + w}})
		tw.Emit(telemetry.TraceEvent{Name: "thread_sort_index", Ph: "M", PID: 0, TID: tid,
			Args: map[string]any{"sort_index": tid}})
	}

	// Flow arrow ids must be unique per flow; derive from span insertion
	// order so they are stable.
	flowID := int64(0)
	for i := range spans {
		s := &spans[i]
		tid := tidOf[s.Worker]
		if s.Kind == KindCell || s.Kind == KindQueue || s.Kind == KindJournal {
			tid = coordinatorTID // coordinator bookkeeping, regardless of attribution
		}
		args := map[string]any{
			"trace": s.Trace, "span": s.ID, "key": s.Key, "status": s.Status,
		}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		if s.Attempt > 0 {
			args["attempt"] = s.Attempt
		}
		if s.Worker != "" {
			args["worker"] = s.Worker
		}
		if s.Cycles > 0 {
			args["cycles"] = s.Cycles
		}
		if s.Commits > 0 {
			args["commits"] = s.Commits
		}
		if s.Note != "" {
			args["note"] = s.Note
		}
		if s.Final {
			args["final"] = true
		}

		label := string(s.Kind) + " " + s.Key
		cat := string(s.Kind)
		switch {
		case s.Start.Equal(s.End):
			tw.Emit(telemetry.TraceEvent{Name: label, Ph: "i", TS: ts(s.Start),
				PID: 0, TID: tid, Cat: cat, S: "t", Args: args})
		case s.End.IsZero():
			// Still open: a complete event up to the anchor so mid-run
			// scrapes remain one well-formed document.
			dur := int64(0)
			if !end.IsZero() {
				dur = ts(end) - ts(s.Start)
			}
			if dur < 0 {
				dur = 0
			}
			args["open"] = true
			tw.Emit(telemetry.TraceEvent{Name: label, Ph: "X", TS: ts(s.Start),
				Dur: dur, PID: 0, TID: tid, Cat: cat, Args: args})
		default:
			tw.Emit(telemetry.TraceEvent{Name: label, Ph: "X", TS: ts(s.Start),
				Dur: ts(s.End) - ts(s.Start), PID: 0, TID: tid, Cat: cat, Args: args})
		}

		// Flow arrows for the cross-track hops: queue→lease (cell leaves
		// the coordinator for a worker) and report→journal (result lands
		// back). Emitted as s/f pairs anchored at the handoff instants.
		if s.Kind == KindLease && s.Worker != "" {
			flowID++
			tw.Emit(telemetry.TraceEvent{Name: "dispatch", Ph: "s", TS: ts(s.Start),
				PID: 0, TID: coordinatorTID, Cat: "flow", ID: flowID})
			tw.Emit(telemetry.TraceEvent{Name: "dispatch", Ph: "f", BP: "e", TS: ts(s.Start),
				PID: 0, TID: tid, Cat: "flow", ID: flowID})
			if !s.End.IsZero() && s.Status == StatusOK {
				flowID++
				tw.Emit(telemetry.TraceEvent{Name: "result", Ph: "s", TS: ts(s.End),
					PID: 0, TID: tid, Cat: "flow", ID: flowID})
				tw.Emit(telemetry.TraceEvent{Name: "result", Ph: "f", BP: "e", TS: ts(s.End),
					PID: 0, TID: coordinatorTID, Cat: "flow", ID: flowID})
			}
		}
	}

	return tw.Close()
}
