package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"mtvp/internal/trace"
)

// PerfettoSink exports the pipeline event stream in the Chrome trace-event
// JSON format, loadable by Perfetto (ui.perfetto.dev) and chrome://tracing.
//
// Mapping:
//   - Each hardware context renders as one track (pid 0, tid = context id,
//     named "ctx N" via thread_name metadata). One simulated cycle is one
//     microsecond of trace time.
//   - A speculative thread's lifetime is a duration slice on its context's
//     track: opened at KSpawn, closed at KConfirm or KKill.
//   - Spawn→confirm/kill causality renders as flow arrows: a flow starts on
//     the parent's track at the spawn cycle and finishes on the child's
//     track where the speculation resolves (the flow id is the child's
//     unique speculation order).
//   - Every other event kind renders as a thread-scoped instant.
//
// The JSON is streamed: NewPerfettoSink writes the object prefix, Emit
// appends events (managing commas), Close writes the suffix and flushes. A
// sink that is never Closed is not valid JSON. Write errors are sticky: the
// first is kept and every later event is dropped, so Close (or Err) reports
// it once.
type PerfettoSink struct {
	w       *bufio.Writer
	n       int // events written, for comma placement
	err     error
	named   map[int]bool  // context tracks already given a thread_name
	open    map[int64]int // speculation order -> tid of an open spawn slice
	procSet bool
}

// traceEvent is one Chrome trace-event object. Field names follow the
// trace-event format spec.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// machineTID is the synthetic track for machine-level events that carry no
// context (trace events with Thread < 0, e.g. an observer cancellation).
const machineTID = 1 << 20

// NewPerfettoSink returns a sink streaming Chrome trace-event JSON to w.
func NewPerfettoSink(w io.Writer) *PerfettoSink {
	s := &PerfettoSink{
		w:     bufio.NewWriter(w),
		named: map[int]bool{},
		open:  map[int64]int{},
	}
	_, s.err = s.w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	return s
}

// write appends one trace event.
func (s *PerfettoSink) write(te traceEvent) {
	if s.err != nil {
		return
	}
	b, err := json.Marshal(te)
	if err != nil {
		s.err = err
		return
	}
	if s.n > 0 {
		if s.err = s.w.WriteByte(','); s.err != nil {
			return
		}
	}
	if _, s.err = s.w.Write(b); s.err != nil {
		return
	}
	s.n++
}

// nameTrack emits the one-time metadata events naming a context's track.
func (s *PerfettoSink) nameTrack(tid int) {
	if s.named[tid] {
		return
	}
	s.named[tid] = true
	if !s.procSet {
		s.procSet = true
		s.write(traceEvent{Name: "process_name", Ph: "M", PID: 0, TID: tid,
			Args: map[string]any{"name": "mtvp machine"}})
	}
	label := fmt.Sprintf("ctx %d", tid)
	if tid == machineTID {
		label = "machine"
	}
	s.write(traceEvent{Name: "thread_name", Ph: "M", PID: 0, TID: tid,
		Args: map[string]any{"name": label}})
	// Sort context tracks by id.
	s.write(traceEvent{Name: "thread_sort_index", Ph: "M", PID: 0, TID: tid,
		Args: map[string]any{"sort_index": tid}})
}

// Emit implements trace.Tracer.
func (s *PerfettoSink) Emit(ev trace.Event) {
	tid := ev.Thread
	if tid < 0 {
		tid = machineTID
	}
	s.nameTrack(tid)
	ts := ev.Cycle // 1 cycle = 1 us of trace time

	args := map[string]any{"order": ev.Order}
	if ev.Text != "" {
		args["text"] = ev.Text
	}
	if ev.Seq != 0 {
		args["seq"] = ev.Seq
	}
	if ev.PC >= 0 {
		args["pc"] = ev.PC
	}

	switch ev.Kind {
	case trace.KSpawn:
		// Lifetime slice on the child's track...
		s.write(traceEvent{Name: fmt.Sprintf("spec o%d", ev.Order), Ph: "B",
			TS: ts, PID: 0, TID: tid, Cat: "spec", Args: args})
		s.open[ev.Order] = tid
		// ...and a flow arrow from the spawning parent's track.
		if ev.HasPeer {
			ptid := ev.Peer
			s.nameTrack(ptid)
			s.write(traceEvent{Name: "spawn", Ph: "s", TS: ts, PID: 0, TID: ptid,
				Cat: "spawn", ID: ev.Order})
		} else {
			s.write(traceEvent{Name: "spawn", Ph: "s", TS: ts, PID: 0, TID: tid,
				Cat: "spawn", ID: ev.Order})
		}
	case trace.KConfirm, trace.KKill:
		s.write(traceEvent{Name: ev.Kind.String(), Ph: "i", TS: ts, PID: 0, TID: tid,
			Cat: "spec", S: "t", Args: args})
		if openTID, ok := s.open[ev.Order]; ok {
			delete(s.open, ev.Order)
			s.write(traceEvent{Name: fmt.Sprintf("spec o%d", ev.Order), Ph: "E",
				TS: ts, PID: 0, TID: openTID})
			s.write(traceEvent{Name: "spawn", Ph: "f", BP: "e", TS: ts, PID: 0,
				TID: tid, Cat: "spawn", ID: ev.Order})
		}
	default:
		s.write(traceEvent{Name: ev.Kind.String(), Ph: "i", TS: ts, PID: 0, TID: tid,
			Cat: "pipe", S: "t", Args: args})
	}
}

// Close ends the stream: open lifetime slices are deliberately left
// unclosed — Perfetto renders them as running to the end of the trace,
// which is exactly what an unresolved speculation at run end is. The sink
// must not be used afterwards.
func (s *PerfettoSink) Close() error {
	if s.err != nil {
		return s.err
	}
	if _, err := s.w.WriteString("]}"); err != nil {
		return err
	}
	return s.w.Flush()
}

// Err returns the first write or encoding error, if any.
func (s *PerfettoSink) Err() error { return s.err }
