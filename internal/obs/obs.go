// Package obs is the sweep fabric's causal observability layer: a span
// model for the life of one campaign cell as it crosses the process
// boundary (coordinator → worker → coordinator), a bounded in-memory span
// store, heartbeat-fed fleet time series, and the straggler analytics that
// turn raw spans into "which worker is dragging the p99".
//
// Identity is deterministic by construction. A cell's trace ID is derived
// from (campaign ID, job key) and a span's ID from (trace ID, kind,
// attempt) — no wall clock, no randomness — so the *logical* span DAG of a
// campaign is a pure function of its spec: the same campaign run on one
// worker, on a chaotic four-worker fleet, or reconstructed from a journal
// after a coordinator crash stitches into the same tree (only durations
// differ). That property is golden-tested alongside the fabric's
// byte-identical report tests.
//
// The span vocabulary follows the cell lifecycle:
//
//	cell (root, submit → terminal)
//	└── queue(a)          waiting for lease attempt a
//	    └── lease(a)      granted to one worker, heartbeat-extended
//	        ├── execute(a)  the worker's simulation run (worker-reported,
//	        │               clamped into the coordinator's lease window)
//	        └── report(a)   the result delivery
//	└── journal           the fsynced checkpoint write
//
// Spans of the attempt that won the cell are marked Final; the canonical
// DAG (dag.go) is defined over those.
package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Kind classifies a span within the cell lifecycle.
type Kind string

// Span kinds, in lifecycle order.
const (
	KindCell    Kind = "cell"    // root: submit → terminal state
	KindQueue   Kind = "queue"   // waiting for a lease
	KindLease   Kind = "lease"   // granted to a worker, heartbeat-extended
	KindExecute Kind = "execute" // the worker's simulation run
	KindReport  Kind = "report"  // result delivery back to the coordinator
	KindJournal Kind = "journal" // the fsynced checkpoint write
)

// Span statuses.
const (
	StatusOK        = "ok"
	StatusError     = "error"
	StatusExpired   = "expired"   // lease lost to heartbeat expiry
	StatusReleased  = "released"  // lease handed back by a draining worker
	StatusCorrupt   = "corrupt"   // result rejected by attestation
	StatusFailed    = "failed"    // cell exhausted its retry budget
	StatusCancelled = "cancelled" // campaign cancelled
)

// TraceID derives a cell's deterministic trace identity from its campaign
// ID and job key. No wall clock or randomness participates: resubmitting,
// resuming, or re-running the same campaign yields the same trace IDs.
func TraceID(campaign, key string) string {
	h := sha256.New()
	// Length-prefixed fields (like the fabric's attestation digest) so no
	// concatenation of adjacent fields can collide.
	fmt.Fprintf(h, "mtvp-trace:%d:%s:%d:%s", len(campaign), campaign, len(key), key)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// SpanID derives a span's deterministic identity within its trace from the
// span kind and attempt ordinal (0 for the singleton cell/journal spans,
// the lease attempt number otherwise).
func SpanID(trace string, kind Kind, attempt int) string {
	h := sha256.New()
	fmt.Fprintf(h, "mtvp-span:%d:%s:%d:%s:%d", len(trace), trace, len(kind), kind, attempt)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Span is one interval (or instant, Start == End) in a cell's timeline.
// Identity fields (Trace, ID, Parent, Kind, Key, Attempt) are deterministic
// functions of the campaign spec; times, worker attribution, and progress
// counters describe the particular run.
type Span struct {
	Trace  string `json:"trace"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Kind   Kind   `json:"kind"`
	Key    string `json:"key"`
	// Worker attributes worker-side spans (lease/execute/report) to a
	// fleet agent; coordinator-side spans leave it empty.
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`

	Start time.Time `json:"start"`
	// End is zero while the span is open (Perfetto renders open spans as
	// running to the end of the trace).
	End    time.Time `json:"end,omitzero"`
	Status string    `json:"status,omitempty"`

	// Cycles/Commits carry the simulated progress the span covered
	// (heartbeat-fed on lease spans, final counts on execute spans).
	Cycles  uint64 `json:"cycles,omitempty"`
	Commits uint64 `json:"commits,omitempty"`

	// Note carries human-readable context: requeue and revocation
	// reasons.
	Note string `json:"note,omitempty"`

	// Final marks the spans of the attempt that won the cell — the
	// canonical path the logical-DAG golden tests compare.
	Final bool `json:"final,omitempty"`
}

// DurationMS returns the span's wall duration in milliseconds (0 while
// open).
func (s *Span) DurationMS() float64 {
	if s.End.IsZero() || s.End.Before(s.Start) {
		return 0
	}
	return float64(s.End.Sub(s.Start)) / float64(time.Millisecond)
}

// Trace is one campaign's bounded in-memory span store. All methods are
// safe for concurrent use (the coordinator mutates under its own lock; the
// HTTP trace/timeline endpoints read concurrently). When the store is
// full, new spans are counted as dropped rather than evicting history —
// the journal keeps the durable copy, and the Dropped count makes the
// truncation visible instead of silent.
type Trace struct {
	mu       sync.Mutex
	campaign string
	limit    int
	order    []string
	byID     map[string]*Span
	dropped  int
}

// DefaultSpanLimit bounds a campaign's span store when no explicit limit is
// configured: 8 spans per cell covers the canonical 6-span path plus a
// couple of requeues, floored so small campaigns still absorb churn.
func DefaultSpanLimit(cells int) int {
	limit := 8 * cells
	if limit < 1024 {
		limit = 1024
	}
	return limit
}

// NewTrace returns an empty span store for one campaign holding at most
// limit spans (<=0 selects DefaultSpanLimit for 0 cells, i.e. 1024).
func NewTrace(campaign string, limit int) *Trace {
	if limit <= 0 {
		limit = DefaultSpanLimit(0)
	}
	return &Trace{campaign: campaign, limit: limit, byID: map[string]*Span{}}
}

// Campaign returns the campaign ID the store belongs to.
func (t *Trace) Campaign() string { return t.campaign }

// Start upserts a span: a new ID is inserted (dropped if the store is
// full), a known ID is overwritten in place (journal reload seeding an
// already-open span, or an attempt-number reuse after resume).
func (t *Trace) Start(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.byID[s.ID]; ok {
		*old = s
		return
	}
	if len(t.order) >= t.limit {
		t.dropped++
		return
	}
	cp := s
	t.byID[s.ID] = &cp
	t.order = append(t.order, s.ID)
}

// End closes an open span with its terminal status. Unknown or already
// closed spans are left untouched (the span may have been dropped at the
// store bound, or journal-reloaded closed).
func (t *Trace) End(id string, end time.Time, status string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.byID[id]; ok && s.End.IsZero() {
		s.End = end
		s.Status = status
	}
}

// Update applies f to the span with the given ID, if present.
func (t *Trace) Update(id string, f func(*Span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.byID[id]; ok {
		f(s)
	}
}

// Seed bulk-loads journaled spans (crash resume). Seeded spans upsert by
// ID, so reloading on top of a fresh install replaces the placeholder
// root/queue spans with the journaled truth.
func (t *Trace) Seed(spans []Span) {
	for _, s := range spans {
		t.Start(s)
	}
}

// Snapshot returns copies of every stored span in insertion order.
func (t *Trace) Snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, *t.byID[id])
	}
	return out
}

// CellSpans returns copies of the spans belonging to one cell key, in
// insertion order.
func (t *Trace) CellSpans(key string) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, id := range t.order {
		if s := t.byID[id]; s.Key == key {
			out = append(out, *s)
		}
	}
	return out
}

// EndOpen closes every still-open span with the given status (campaign
// cancellation).
func (t *Trace) EndOpen(end time.Time, status string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.order {
		if s := t.byID[id]; s.End.IsZero() {
			s.End = end
			s.Status = status
		}
	}
}

// Dropped returns how many spans were discarded at the store bound.
func (t *Trace) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the number of stored spans.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}

// kindOrder ranks span kinds in lifecycle order for deterministic sorting.
var kindOrder = map[Kind]int{
	KindCell: 0, KindQueue: 1, KindLease: 2, KindExecute: 3,
	KindReport: 4, KindJournal: 5,
}

// SortCanonical orders spans deterministically by (key, attempt, lifecycle
// kind, id) — the order exports and golden tests use, independent of
// insertion interleaving across workers.
func SortCanonical(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		if ka, kb := kindOrder[a.Kind], kindOrder[b.Kind]; ka != kb {
			return ka < kb
		}
		return a.ID < b.ID
	})
}
