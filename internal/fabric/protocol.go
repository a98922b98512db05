// Package fabric is the distributed sweep service: a campaign coordinator
// that shards sweep cells across remote worker agents over HTTP/JSON, and
// the worker/client sides of that protocol.
//
// The design puts a network under robustness machinery the repo already
// trusts. Cells keep the stable job keys the local harness uses
// ("fig1/mcf/mtvp4"), which double as the idempotency token: a cell
// completed twice (a worker presumed dead that finished anyway) is deduped
// on key, first result wins. Every completion is persisted through the
// harness's fsynced JSONL journal, so a coordinator crash resumes without
// re-running finished cells, and reports assembled from the results are
// byte-identical regardless of worker count, worker deaths, or requeue
// order (the simulator is deterministic; ordering is by job key, never by
// completion).
//
// Work distribution is pull-based leasing, modeled on agent/ingest
// architectures: workers poll for a lease, run the cell, stream periodic
// heartbeats, and report the result. A lease whose heartbeat stops expires
// and the cell is requeued through a bounded fault.Backoff retry budget —
// worker loss is just another fault class. Each cell holds at most one
// lease at a time; campaigns are served in submission order.
//
// The fleet is trusted; what the fabric checks is input from outside its
// process. Every result carries an attestation digest (attest.go) that the
// coordinator recomputes, so a payload damaged on the wire or in a journal
// is rejected instead of reaching a report. Every request is size-capped,
// and the API is bearer-token authenticated.
package fabric

import (
	"encoding/json"
	"time"

	"mtvp/internal/config"
	"mtvp/internal/harness"
	"mtvp/internal/obs"
)

// API routes (all under the coordinator's listener; every /api/v1 route
// requires the bearer token when one is configured).
const (
	PathCampaigns = "/api/v1/campaigns" // POST submit, GET list; /{id} GET status, DELETE cancel; /{id}/results, /{id}/timeline, /{id}/trace GET
	PathLease     = "/api/v1/lease"     // POST: worker pulls a job lease
	PathHeartbeat = "/api/v1/heartbeat" // POST: worker extends a lease
	PathResult    = "/api/v1/result"    // POST: worker reports a terminal outcome
	PathFleet     = "/api/v1/fleet"     // GET: live per-worker fleet view + straggler analytics
)

// JobSpec is one sweep cell in wire form: everything a remote worker needs
// to reproduce the cell exactly. Config is the fully-resolved machine
// configuration (instruction budget, seed, faults included), so workers
// never re-derive experiment presets and version skew cannot change what a
// key means.
type JobSpec struct {
	// Key is the cell's stable identity ("fig1/mcf/mtvp4"): the journal
	// key, the dedup token, and the report ordering key.
	Key string `json:"key"`
	// Bench names the workload (resolved via workload.ByName on the worker).
	Bench string `json:"bench"`
	// Preset labels the machine column for error messages ("mtvp4").
	Preset string `json:"preset"`
	// Seed is the workload build seed.
	Seed uint64 `json:"seed"`
	// Config is the complete machine configuration for this cell.
	Config config.Config `json:"config"`
}

// CampaignSpec is a submit request: a named batch of cells plus the
// fingerprint that guards resume and idempotent resubmission.
type CampaignSpec struct {
	// Name identifies the campaign ("fig1") in journals and summaries.
	Name string `json:"name"`
	// Fingerprint encodes the options the cells were generated under
	// (instruction budget, seeds, fault profile). Campaigns with the same
	// identity (name, fingerprint, job keys) dedupe onto one campaign ID:
	// resubmitting after a client or coordinator restart attaches to the
	// existing run instead of duplicating it.
	Fingerprint string `json:"fingerprint"`
	// Jobs are the cells, in submission order (= report order).
	Jobs []JobSpec `json:"jobs"`
}

// SubmitResponse acknowledges a submit with the campaign's ID (derived
// deterministically from the spec identity) and whether the spec attached
// to an already-known campaign.
type SubmitResponse struct {
	ID       string `json:"id"`
	Attached bool   `json:"attached"` // true: campaign already existed (dedup or resume)
}

// CampaignState is the lifecycle of a campaign.
type CampaignState string

// Campaign states.
const (
	StateRunning   CampaignState = "running"   // cells queued or leased
	StateComplete  CampaignState = "complete"  // every cell done
	StateFailed    CampaignState = "failed"    // finished, but cells exhausted retries
	StateCancelled CampaignState = "cancelled" // cancelled by the client
)

// CampaignStatus is the live view of one campaign.
type CampaignStatus struct {
	ID          string        `json:"id"`
	Name        string        `json:"name"`
	Fingerprint string        `json:"fingerprint"`
	State       CampaignState `json:"state"`
	Total       int           `json:"total"`
	Queued      int           `json:"queued"`
	Leased      int           `json:"leased"`
	Done        int           `json:"done"`
	Failed      int           `json:"failed"`
	// Requeues counts leases lost to expiry or reported failures that were
	// put back on the queue (the graceful-degradation path working).
	Requeues int `json:"requeues"`
	// Corrupt counts results rejected for a missing or mismatching
	// attestation digest (requeued without spending retry budget).
	Corrupt int `json:"corrupt,omitempty"`
}

// CampaignResults is the terminal payload: per-key raw results (the
// worker's JSON, passed through untouched) plus structured failures for
// cells that exhausted their retry budgets.
type CampaignResults struct {
	ID       string                     `json:"id"`
	State    CampaignState              `json:"state"`
	Results  map[string]json.RawMessage `json:"results"`
	Failures []harness.JobFailure       `json:"failures,omitempty"`
}

// LeaseRequest is a worker's pull for work.
type LeaseRequest struct {
	// Worker is the agent's stable self-chosen name ("host:pid" by
	// default); the fleet view and journals attribute work to it.
	Worker string `json:"worker"`
}

// Lease is one granted cell. The worker must heartbeat at least every
// HeartbeatEvery (TTL/3) or the lease expires and the cell is requeued.
type Lease struct {
	Campaign       string        `json:"campaign"`
	Spec           JobSpec       `json:"spec"`
	TTL            time.Duration `json:"ttl"`
	HeartbeatEvery time.Duration `json:"heartbeat_every"`

	// Trace/Span propagate the cell's deterministic observability identity
	// (obs.TraceID of the cell, obs.SpanID of this lease attempt) so the
	// worker's execution span stitches into the coordinator's timeline.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
	// Attempt is this lease's 1-based attempt ordinal for the cell.
	Attempt int `json:"attempt,omitempty"`
}

// HeartbeatRequest extends a lease and reports simulated progress.
type HeartbeatRequest struct {
	Worker   string `json:"worker"`
	Campaign string `json:"campaign"`
	Key      string `json:"key"`
	// Cycles is the cell's current simulated-cycle count (an absolute
	// counter; it clamps overlapping deltas after a lost ack).
	Cycles uint64 `json:"cycles"`
	// Commits is the cell's useful committed instruction count (absolute).
	Commits uint64 `json:"commits"`

	// Seq numbers this lease's heartbeats from 1. The coordinator folds the
	// delta fields of a given Seq at most once, so a duplicated request (a
	// retry, a chaotic proxy) cannot double-count simulated progress. A
	// heartbeat without a Seq only extends the lease.
	Seq uint64 `json:"seq,omitempty"`
	// DCycles/DCommits are the simulated cycles/commits accumulated since
	// the last heartbeat the coordinator acknowledged — deltas, so fleet
	// aggregation is a plain sum regardless of retries, requeues, or
	// re-leases.
	DCycles  uint64 `json:"dcycles,omitempty"`
	DCommits uint64 `json:"dcommits,omitempty"`
	// HeapMB is the worker process's live heap, piggybacked for the fleet
	// memory view.
	HeapMB float64 `json:"heap_mb,omitempty"`
}

// HeartbeatResponse tells the worker whether it still owns the lease. Lost
// leases (expired and requeued, campaign cancelled, coordinator restarted)
// mean the worker should abandon the cell; if it finishes anyway, the
// result report is deduped idempotently.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// ResultRequest reports a cell's terminal outcome from one attempt.
type ResultRequest struct {
	Worker   string `json:"worker"`
	Campaign string `json:"campaign"`
	Key      string `json:"key"`
	// OK: Result carries the cell's JSON result. Not OK: Error/FailKind
	// describe the failure and the coordinator decides requeue vs exhaust.
	OK       bool             `json:"ok"`
	Result   json.RawMessage  `json:"result,omitempty"`
	Error    string           `json:"error,omitempty"`
	FailKind harness.FailKind `json:"fail_kind,omitempty"`
	// Digest attests the result: ResultDigest(Campaign, spec, Result)
	// computed worker-side over the exact bytes sent. The coordinator
	// recomputes it; a missing or mismatching digest is a corrupt result —
	// rejected, never journaled, and requeued without spending budget.
	Digest string `json:"digest,omitempty"`
	// Released hands the lease back voluntarily (a draining worker shutting
	// down on SIGTERM): the cell requeues immediately WITHOUT spending its
	// retry budget — an orderly departure is not a fault.
	Released bool `json:"released,omitempty"`

	// Exec describes the worker's execution span for a successful result so
	// it stitches into the coordinator's timeline. It is observational and
	// NOT covered by the attestation digest: a forged Exec can at worst
	// distort a trace view, never a result.
	Exec *ExecReport `json:"exec,omitempty"`
}

// ExecReport is the worker-side execution span of one completed cell.
type ExecReport struct {
	// Trace/Span echo the lease's observability identity.
	Trace string `json:"trace"`
	Span  string `json:"span"`
	// DurMS is the wall time the simulation ran on the worker.
	DurMS float64 `json:"dur_ms"`
	// Cycles/Commits are the cell's final simulated counters.
	Cycles  uint64 `json:"cycles"`
	Commits uint64 `json:"commits"`
}

// ResultResponse acknowledges a result report. Accepted is false when the
// report was deduped (the cell was already done).
type ResultResponse struct {
	Accepted bool `json:"accepted"`
}

// WorkerStatus is one agent's row in the fleet view.
type WorkerStatus struct {
	Name string `json:"name"`
	// Leases is the number of cells currently leased to this worker.
	Leases int `json:"leases"`
	// HeartbeatAge is the time since the worker last contacted the
	// coordinator (lease, heartbeat, or result).
	HeartbeatAge time.Duration `json:"heartbeat_age"`
	Done         uint64        `json:"done"`
	Failed       uint64        `json:"failed"`
	// Lost counts leases this worker lost to expiry — its worker-loss score.
	Lost uint64 `json:"lost"`
	// CycleRate is the worker's recent simulated-cycle throughput
	// (cycles/sec, EWMA over heartbeat deltas).
	CycleRate float64 `json:"cycle_rate"`

	// Straggler analytics over the worker's closed lease spans.
	P50MS  float64 `json:"p50_ms,omitempty"`
	P99MS  float64 `json:"p99_ms,omitempty"`
	MeanMS float64 `json:"mean_ms,omitempty"`
	// Slowdown is the worker's mean lease duration relative to the fleet
	// mean (1.0 = average; 2.0 = twice as slow; 0 = unknown).
	Slowdown float64 `json:"slowdown,omitempty"`
	// HeapMB is the worker's last heartbeat-reported live heap.
	HeapMB float64 `json:"heap_mb,omitempty"`
}

// CampaignTimeline is the machine-readable campaign observability view:
// every stored span, the straggler analytics over them, and the
// heartbeat-fed fleet cycle-rate series.
type CampaignTimeline struct {
	ID    string        `json:"id"`
	Name  string        `json:"name"`
	State CampaignState `json:"state"`
	// Spans is the bounded span store's snapshot in canonical order;
	// Dropped counts spans discarded at the store bound (the journal keeps
	// the durable copy).
	Spans   []obs.Span `json:"spans"`
	Dropped int        `json:"dropped,omitempty"`
	// Report is the straggler analytics: fleet quantiles, per-worker
	// slowdown, tail cells.
	Report obs.Report `json:"report"`
	// CycleRate is the campaign's aggregate simulated-cycle rate
	// (cycles/sec, EWMA over heartbeat deltas across all workers).
	CycleRate float64 `json:"cycle_rate"`
	// SimCycles/SimCommits accumulate heartbeat deltas campaign-wide.
	SimCycles  uint64 `json:"sim_cycles"`
	SimCommits uint64 `json:"sim_commits"`
	// Series is the cycle-rate time series (bounded, decimating).
	Series []obs.Point `json:"series,omitempty"`
}
