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
// architectures: each worker slot runs a leased cell, streaming periodic
// heartbeats while its simulated cycles move. When the slot's last cell
// was short, a fetcher beside it holds the next cell's lease in reserve
// (renewed on every heartbeat tick), and the last cell's result is
// reported in the background. A heartbeat extends the lease, and a
// refused one tells the worker its lease is gone. A lease whose heartbeat
// stops (a lost worker, or a cell that no longer advances) expires and the
// cell is requeued — worker loss is just another fault class. Workers run each cell through harness.Attempt and
// the coordinator decides requeue or failure with harness.Retry, the same
// contract the local harness runs cells under: requeues are immediate, and
// a permanent failure is never requeued. Each cell holds at most one lease
// at a time; campaigns are served in submission order.
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
)

// API routes (all under the coordinator's listener; every /api/v1 route
// requires the bearer token when one is configured).
const (
	PathCampaigns = "/api/v1/campaigns" // POST submit, GET list; /{id} GET status; /{id}/results GET
	PathLease     = "/api/v1/lease"     // POST: worker pulls a job lease
	PathHeartbeat = "/api/v1/heartbeat" // POST: worker extends a lease
	PathResult    = "/api/v1/result"    // POST: worker reports a terminal outcome
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
	// AbortIsResult is the cell's outcome rule: when set, a run that ends
	// in a structured fault report is a result (the fault campaign's abort
	// row), not a failure.
	AbortIsResult bool `json:"abort_is_result,omitempty"`
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
	StateRunning  CampaignState = "running"  // cells queued or leased
	StateComplete CampaignState = "complete" // every cell done
	StateFailed   CampaignState = "failed"   // finished, but cells exhausted retries
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
	// default); leases and journals attribute work to it.
	Worker string `json:"worker"`
}

// Lease is one granted cell. The worker must heartbeat at least every
// HeartbeatEvery (TTL/3) or the lease expires and the cell is requeued.
type Lease struct {
	Campaign       string        `json:"campaign"`
	Spec           JobSpec       `json:"spec"`
	TTL            time.Duration `json:"ttl"`
	HeartbeatEvery time.Duration `json:"heartbeat_every"`
}

// HeartbeatRequest extends a lease.
type HeartbeatRequest struct {
	Worker   string `json:"worker"`
	Campaign string `json:"campaign"`
	Key      string `json:"key"`
}

// HeartbeatResponse tells the worker whether it still owns the lease. Lost
// leases (expired and requeued, coordinator restarted)
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
	// Permanent marks a failure that running the cell again would
	// reproduce (harness.Permanent): the coordinator fails the cell
	// without requeueing it.
	Permanent bool `json:"permanent,omitempty"`
	// Digest attests the result: ResultDigest(Campaign, spec, Result)
	// computed worker-side over the exact bytes sent. The coordinator
	// recomputes it; a missing or mismatching digest is a corrupt result —
	// rejected, never journaled, and requeued without spending budget.
	Digest string `json:"digest,omitempty"`
	// Released hands the lease back voluntarily (a draining worker shutting
	// down on SIGTERM, running or reserved leases alike): the cell requeues
	// immediately WITHOUT spending its retry budget, and the grant is not
	// counted as an attempt — an orderly departure is not a fault.
	Released bool `json:"released,omitempty"`
}

// ResultResponse acknowledges a result report. Accepted is false when the
// report was deduped (the cell was already done).
type ResultResponse struct {
	Accepted bool `json:"accepted"`
}
