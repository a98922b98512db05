package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Cell ties the
// spans of one cell together; Parent indexes the enclosing span (-1 for a
// root).
type span struct {
	Name       string
	Cell       int
	Parent     int
	Start, End time.Duration // since the recorder's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// cellTime is what one cell's calls took: the whole cell, its set-up
// (Build and pipeline.New) and Engine.Run, the Go heap bytes allocated
// while it ran and the peak resident set meanwhile.
type cellTime struct {
	Wall, Setup, Run time.Duration
	Alloc, PeakRSS   uint64
}

// recorder times the benchmark's calls into the simulator. It always keeps
// each cell's durations, which the end-to-end metrics need; with keep set
// it also stores every span for the traced run. Spans are kept in memory
// and read after the pass. It is safe for concurrent use: the fabric
// worker records from its own goroutine.
type recorder struct {
	epoch time.Time
	keep  bool
	rss   *rssSampler // nil: cells record no peak
	// isolate collects the heap and returns it to the system before every
	// cell; the time that takes is kept apart from the cells' and the
	// pass's.
	isolate bool

	mu      sync.Mutex
	spans   []span
	cells   []cellTime    // indexed by cell
	startup time.Duration // fabric start-up, counted as set-up
	isoTime time.Duration // spent isolating cells
}

func newRecorder(keep bool, cells int) *recorder {
	return &recorder{epoch: time.Now(), keep: keep, cells: make([]cellTime, cells)}
}

// begin opens a span and returns its index (-1 when spans are not kept)
// and start offset.
func (r *recorder) begin(name string, cell, parent int) (int, time.Duration) {
	start := time.Since(r.epoch)
	if !r.keep {
		return -1, start
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Cell: cell, Parent: parent, Start: start, End: -1})
	return len(r.spans) - 1, start
}

// end closes a span opened by begin and returns its duration.
func (r *recorder) end(id int, start time.Duration) time.Duration {
	now := time.Since(r.epoch)
	if id >= 0 {
		r.mu.Lock()
		r.spans[id].End = now
		r.mu.Unlock()
	}
	return now - start
}

func (r *recorder) cellDone(id int, t cellTime) {
	r.mu.Lock()
	r.cells[id] = t
	r.mu.Unlock()
}

func (r *recorder) addIsolation(d time.Duration) {
	r.mu.Lock()
	r.isoTime += d
	r.mu.Unlock()
}

func (r *recorder) addStartup(d time.Duration) {
	r.mu.Lock()
	r.startup += d
	r.mu.Unlock()
}

// results returns copies of the cell times, the start-up and isolation
// times and the spans recorded so far.
func (r *recorder) results() (cells []cellTime, startup, isolation time.Duration, spans []span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]cellTime(nil), r.cells...), r.startup, r.isoTime, append([]span(nil), r.spans...)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval covered by its direct children. Overlapping children are
// counted once and children are clipped to the parent's interval.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, kids[i])
	}
	return out
}

// covered returns the length of the union of the children's intervals
// within [lo, hi).
func covered(lo, hi time.Duration, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanTotals sums, per span name, the durations and the self times, and
// counts the spans.
func spanTotals(spans []span) (dur, self map[string]time.Duration, count map[string]int) {
	dur, self, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	st := selfTimes(spans)
	for i, s := range spans {
		dur[s.Name] += s.dur()
		self[s.Name] += st[i]
		count[s.Name]++
	}
	return dur, self, count
}
