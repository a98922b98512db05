package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mtvp/internal/fault"
	"mtvp/internal/harness"
)

// CoordinatorConfig tunes one coordinator. The zero value is usable for
// in-memory operation; set JournalDir for crash-resumable persistence.
type CoordinatorConfig struct {
	// LeaseTTL is how long a granted lease survives without a heartbeat
	// before its cell is requeued (0 selects 15s). Workers are told to
	// heartbeat every TTL/3.
	LeaseTTL time.Duration
	// Retries bounds how many times a cell is re-leased after a lost lease
	// or reported failure before it is marked failed (0 selects 3). The
	// budget reuses fault.Backoff — worker loss is paced by the same
	// machinery that paces the simulated machine's own recoveries.
	Retries int
	// JournalDir, when non-empty, persists every campaign: the spec as
	// <id>.spec.json (written atomically at submit) and completions through
	// the harness's fsynced JSONL journal as <id>.journal. A coordinator
	// restarted on the same directory resumes every campaign without
	// re-running completed cells.
	JournalDir string

	// Logf, when non-nil, receives coordinator progress lines.
	Logf func(format string, args ...any)
	// Now overrides the clock (tests drive lease expiry deterministically).
	Now func() time.Time
}

func (c CoordinatorConfig) leaseTTL() time.Duration {
	if c.LeaseTTL <= 0 {
		return 15 * time.Second
	}
	return c.LeaseTTL
}

func (c CoordinatorConfig) retries() int {
	if c.Retries <= 0 {
		return 3
	}
	return c.Retries
}

// FailLostWorker classifies a cell whose lease expired because its worker
// stopped heartbeating — the fabric's worker-loss fault class, beyond the
// harness's own set.
const FailLostWorker harness.FailKind = "lost-worker"

// jobState is one cell's position in the lease lifecycle.
type jobState int

const (
	// jobPending: queued for a lease or leased to one worker.
	jobPending jobState = iota
	jobDone
	jobFailed
)

// leaseInfo is the active lease on a cell, granted to one worker.
type leaseInfo struct {
	worker string
	expiry time.Time
}

// job is one cell's coordinator-side state. A cell holds at most one live
// lease; its first attested result completes it.
type job struct {
	spec     JobSpec
	state    jobState
	lease    *leaseInfo // nil while queued or terminal
	queued   bool       // currently listed in the campaign queue
	attempts int
	budget   *fault.Backoff // requeue budget (worker loss, failures)
	result   json.RawMessage
	digest   string
	failure  *harness.JobFailure
}

// campaign is one submitted batch of cells.
type campaign struct {
	id          string
	name        string
	fingerprint string
	jobs        map[string]*job
	order       []string // submission order = report order
	queue       []string // cells wanting a lease, FIFO; requeues go to the back
	jnl         *harness.Journal
	cancelled   bool
	done        int
	failed      int
	requeues    int
	corrupt     int
}

func (c *campaign) state() CampaignState {
	switch {
	case c.cancelled:
		return StateCancelled
	case c.done == len(c.order):
		return StateComplete
	case c.done+c.failed == len(c.order):
		return StateFailed
	default:
		return StateRunning
	}
}

// Coordinator owns the lease state machine. All methods are safe for
// concurrent use; the HTTP server (server.go) is a thin layer over them.
type Coordinator struct {
	cfg CoordinatorConfig

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string // campaign submission order = lease order
}

// NewCoordinator builds a coordinator and, when JournalDir is set, reloads
// every persisted campaign from it (completed cells keep their journaled
// results after their attestation digests re-verify; queued and
// previously-leased cells are requeued; failed cells re-run with a fresh
// budget, mirroring local journal-resume semantics).
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	co := &Coordinator{
		cfg:       cfg,
		campaigns: map[string]*campaign{},
	}
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			return nil, fmt.Errorf("fabric: journal dir: %w", err)
		}
		if err := co.reload(); err != nil {
			return nil, err
		}
	}
	return co, nil
}

func (co *Coordinator) now() time.Time {
	if co.cfg.Now != nil {
		return co.cfg.Now()
	}
	return time.Now()
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Logf != nil {
		co.cfg.Logf(format, args...)
	}
}

// CampaignID derives the deterministic campaign identity from a spec:
// resubmitting the same (name, fingerprint, job keys) — after a client
// retry or a coordinator restart — attaches to the existing campaign.
func CampaignID(spec CampaignSpec) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", spec.Name, spec.Fingerprint)
	for _, j := range spec.Jobs {
		fmt.Fprintf(h, "%s\x00", j.Key)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Submit registers a campaign (idempotently: a spec with a known identity
// attaches to the existing campaign) and persists it when a journal
// directory is configured.
func (co *Coordinator) Submit(spec CampaignSpec) (SubmitResponse, error) {
	if spec.Name == "" || len(spec.Jobs) == 0 {
		return SubmitResponse{}, fmt.Errorf("fabric: campaign needs a name and at least one job")
	}
	seen := map[string]bool{}
	for _, j := range spec.Jobs {
		if j.Key == "" {
			return SubmitResponse{}, fmt.Errorf("fabric: campaign %q has a job with an empty key", spec.Name)
		}
		if seen[j.Key] {
			return SubmitResponse{}, fmt.Errorf("fabric: campaign %q has duplicate job key %q", spec.Name, j.Key)
		}
		seen[j.Key] = true
	}
	id := CampaignID(spec)

	co.mu.Lock()
	defer co.mu.Unlock()
	if _, ok := co.campaigns[id]; ok {
		return SubmitResponse{ID: id, Attached: true}, nil
	}
	c, err := co.installLocked(id, spec, nil)
	if err != nil {
		return SubmitResponse{}, err
	}
	if co.cfg.JournalDir != "" {
		if err := co.persistSpec(id, spec); err != nil {
			c.jnl.Close()
			os.Remove(co.journalPath(id))
			delete(co.campaigns, id)
			co.order = co.order[:len(co.order)-1]
			return SubmitResponse{}, err
		}
	}
	co.logf("campaign %s (%s): %d cells submitted", id, c.name, len(c.order))
	return SubmitResponse{ID: id}, nil
}

// installLocked builds the campaign state from a spec plus (on reload) the
// journaled records, opens its journal, and queues the unfinished cells.
func (co *Coordinator) installLocked(id string, spec CampaignSpec, prior map[string]*harness.Record) (*campaign, error) {
	c := &campaign{
		id:          id,
		name:        spec.Name,
		fingerprint: spec.Fingerprint,
		jobs:        map[string]*job{},
	}
	for _, s := range spec.Jobs {
		j := &job{
			spec:   s,
			budget: fault.NewBackoff(co.cfg.retries(), 64),
		}
		if rec := prior[s.Key]; rec != nil && rec.Status == harness.StatusDone && len(rec.Result) > 0 &&
			co.reverifyLocked(id, s, rec) {
			j.state = jobDone
			j.attempts = rec.Attempts
			j.result = append(json.RawMessage(nil), rec.Result...)
			j.digest = rec.Digest
			c.done++
		} else {
			c.queue = append(c.queue, s.Key)
			j.queued = true
		}
		c.jobs[s.Key] = j
		c.order = append(c.order, s.Key)
	}
	if co.cfg.JournalDir != "" {
		jnl, err := harness.OpenJournal(co.journalPath(id), spec.Name, spec.Fingerprint)
		if err != nil {
			return nil, err
		}
		c.jnl = jnl
	}
	co.campaigns[id] = c
	co.order = append(co.order, id)
	return c, nil
}

// reverifyLocked re-checks a journaled record's attestation digest on
// reload. Records without a digest (pre-attestation journals, local
// campaigns) are accepted as-is; a record whose digest no longer matches
// its payload was corrupted at rest and its cell re-runs.
func (co *Coordinator) reverifyLocked(id string, spec JobSpec, rec *harness.Record) bool {
	if rec.Digest == "" {
		return true
	}
	if rec.Digest == ResultDigest(id, spec, rec.Result) {
		return true
	}
	co.logf("campaign %s: journaled result for %s fails attestation re-verification; cell will re-run", id, spec.Key)
	return false
}

func (co *Coordinator) specPath(id string) string {
	return filepath.Join(co.cfg.JournalDir, id+".spec.json")
}

func (co *Coordinator) journalPath(id string) string {
	return filepath.Join(co.cfg.JournalDir, id+".journal")
}

// persistSpec writes the campaign spec atomically (tmp + rename): a crash
// mid-submit leaves either a complete spec or none.
func (co *Coordinator) persistSpec(id string, spec CampaignSpec) error {
	b, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("fabric: marshal spec: %w", err)
	}
	tmp := co.specPath(id) + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("fabric: persist spec: %w", err)
	}
	return os.Rename(tmp, co.specPath(id))
}

// reload restores every persisted campaign from the journal directory.
func (co *Coordinator) reload() error {
	ents, err := os.ReadDir(co.cfg.JournalDir)
	if err != nil {
		return fmt.Errorf("fabric: reload: %w", err)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	var names []string
	for _, e := range ents {
		if n := e.Name(); strings.HasSuffix(n, ".spec.json") {
			names = append(names, n)
		}
	}
	sort.Strings(names) // deterministic reload order
	for _, n := range names {
		id := strings.TrimSuffix(n, ".spec.json")
		b, err := os.ReadFile(filepath.Join(co.cfg.JournalDir, n))
		if err != nil {
			return fmt.Errorf("fabric: reload %s: %w", n, err)
		}
		var spec CampaignSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("fabric: reload %s: corrupt spec: %w", n, err)
		}
		prior, warns, err := harness.LoadJournal(co.journalPath(id), spec.Fingerprint)
		if err != nil {
			return fmt.Errorf("fabric: reload %s: %w", n, err)
		}
		for _, w := range warns {
			co.logf("%s", w)
		}
		c, err := co.installLocked(id, spec, prior)
		if err != nil {
			return err
		}
		co.logf("campaign %s (%s): reloaded, %d/%d cells already done",
			id, c.name, c.done, len(c.order))
	}
	return nil
}

// enqueueLocked lists a pending, unleased cell in its campaign queue if it
// is not already listed.
func (co *Coordinator) enqueueLocked(c *campaign, j *job, key string) {
	if j.state != jobPending || j.queued || j.lease != nil {
		return
	}
	c.queue = append(c.queue, key)
	j.queued = true
}

// dequeueLocked delists a cell from its campaign queue.
func (co *Coordinator) dequeueLocked(c *campaign, j *job, key string) {
	if !j.queued {
		return
	}
	for i, k := range c.queue {
		if k == key {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	j.queued = false
}

// Lease grants the next queued cell to worker. Campaigns are served in
// submission order and cells in queue order. ok is false when nothing is
// queued.
func (co *Coordinator) Lease(worker string) (Lease, bool) {
	if worker == "" {
		return Lease{}, false
	}
	now := co.now()
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, id := range co.order {
		c := co.campaigns[id]
		if c.cancelled || len(c.queue) == 0 {
			continue
		}
		key := c.queue[0]
		c.queue = c.queue[1:]
		j := c.jobs[key]
		j.queued = false
		j.attempts++
		j.lease = &leaseInfo{worker: worker, expiry: now.Add(co.cfg.leaseTTL())}
		return Lease{
			Campaign:       c.id,
			Spec:           j.spec,
			TTL:            co.cfg.leaseTTL(),
			HeartbeatEvery: co.cfg.leaseTTL() / 3,
		}, true
	}
	return Lease{}, false
}

// heldLease returns j's lease if worker holds it, nil otherwise.
func (j *job) heldLease(worker string) *leaseInfo {
	if j.lease != nil && j.lease.worker == worker {
		return j.lease
	}
	return nil
}

// Heartbeat extends a lease. ok is false when the worker no longer owns
// the lease (expired and requeued, already completed by someone else,
// campaign cancelled): the worker should abandon the cell.
func (co *Coordinator) Heartbeat(req HeartbeatRequest) bool {
	now := co.now()
	co.mu.Lock()
	defer co.mu.Unlock()
	c := co.campaigns[req.Campaign]
	if c == nil || c.cancelled {
		return false
	}
	j := c.jobs[req.Key]
	if j == nil || j.state != jobPending {
		return false
	}
	li := j.heldLease(req.Worker)
	if li == nil {
		return false
	}
	li.expiry = now.Add(co.cfg.leaseTTL())
	return true
}

// dropLeaseLocked clears j's lease (the job's next state is the caller's
// business). It reports whether a lease was held.
func (co *Coordinator) dropLeaseLocked(j *job) bool {
	if j.lease == nil {
		return false
	}
	j.lease = nil
	return true
}

// revokeLeaseLocked drops j's lease if worker holds it.
func (co *Coordinator) revokeLeaseLocked(j *job, worker string) bool {
	return j.heldLease(worker) != nil && co.dropLeaseLocked(j)
}

// Result records a cell's terminal outcome. Successful results must carry
// a valid attestation digest; the first one completes the cell. Corrupt
// results are rejected without reaching the journal and without charging
// the cell's retry budget. Failures spend the cell's requeue budget.
func (co *Coordinator) Result(req ResultRequest) (ResultResponse, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c := co.campaigns[req.Campaign]
	if c == nil {
		return ResultResponse{}, fmt.Errorf("fabric: unknown campaign %q", req.Campaign)
	}
	j := c.jobs[req.Key]
	if j == nil {
		return ResultResponse{}, fmt.Errorf("fabric: campaign %s has no job %q", req.Campaign, req.Key)
	}
	if c.cancelled {
		return ResultResponse{Accepted: false}, nil
	}
	if req.Released {
		// Voluntary handback (draining worker): requeue at no budget cost.
		if j.state == jobPending && co.revokeLeaseLocked(j, req.Worker) {
			co.requeueLocked(c, j, req.Key)
			co.logf("campaign %s: %s released by draining worker %s, requeued", c.id, req.Key, req.Worker)
			return ResultResponse{Accepted: true}, nil
		}
		return ResultResponse{Accepted: false}, nil
	}
	if req.OK {
		return co.acceptLocked(c, j, req), nil
	}

	// Failures are only accepted from a current lease holder: a stale
	// report from an expired lease must not spend the budget of — or
	// double-requeue — a cell another worker now owns.
	if j.state != jobPending || !co.revokeLeaseLocked(j, req.Worker) {
		return ResultResponse{Accepted: false}, nil
	}
	kind := req.FailKind
	if kind == "" {
		kind = harness.FailError
	}
	co.failOrRequeueLocked(c, j, req.Key, req.Worker, harness.JobFailure{
		Key: req.Key, Seed: j.spec.Seed, Kind: kind,
		Attempts: j.attempts, Err: req.Error,
	})
	return ResultResponse{Accepted: true}, nil
}

// requeueLocked puts a cell whose lease ended back on the queue and counts
// the requeue.
func (co *Coordinator) requeueLocked(c *campaign, j *job, key string) {
	co.enqueueLocked(c, j, key)
	c.requeues++
}

// acceptLocked processes one successful, digest-carrying result report.
func (co *Coordinator) acceptLocked(c *campaign, j *job, req ResultRequest) ResultResponse {
	if req.Worker == "" {
		return ResultResponse{Accepted: false} // anonymous results are never accepted
	}
	// Attestation: recompute the canonical digest over the bytes received
	// against the spec handed out. A mismatch (or a missing digest) means
	// the payload is not provably the simulator's output for this cell —
	// reject it before it can touch the journal and requeue the cell at no
	// budget cost.
	if want := ResultDigest(c.id, j.spec, req.Result); req.Digest != want {
		c.corrupt++
		co.logf("campaign %s: CORRUPT result for %s from %q (digest %.24q, want %.24q)",
			c.id, req.Key, req.Worker, req.Digest, want)
		if co.revokeLeaseLocked(j, req.Worker) {
			co.requeueLocked(c, j, req.Key)
		}
		return ResultResponse{Accepted: false}
	}

	if j.state == jobDone {
		// Double completion: a worker we presumed dead finished anyway.
		co.logf("campaign %s: deduped double completion of %s from %s", c.id, req.Key, req.Worker)
		return ResultResponse{Accepted: false}
	}

	co.finalizeLocked(c, j, req.Key, req.Worker, req.Digest, req.Result)
	return ResultResponse{Accepted: true}
}

// finalizeLocked completes a cell with worker's attested result.
func (co *Coordinator) finalizeLocked(c *campaign, j *job, key, worker, digest string, result json.RawMessage) {
	// Drop the reporting worker's lease, or — for a late success — the lease
	// a requeue handed to another worker, whose own report will dedup.
	co.dropLeaseLocked(j)
	co.dequeueLocked(c, j, key)
	if j.state == jobFailed {
		// Budget exhausted earlier, but a result arrived anyway: revive the
		// cell (the journal's latest-record-wins reload agrees).
		c.failed--
		co.logf("campaign %s: late result revived failed cell %s", c.id, key)
	}
	j.state = jobDone
	j.result = append(json.RawMessage(nil), result...)
	j.digest = digest
	j.failure = nil
	c.done++
	c.jnl.Done(key, j.attempts, json.RawMessage(j.result), worker, digest)
}

// failOrRequeueLocked spends the cell's requeue budget: requeue while it
// lasts, mark failed once exhausted. worker is the agent the failure is
// attributed to in the journal.
func (co *Coordinator) failOrRequeueLocked(c *campaign, j *job, key, worker string, f harness.JobFailure) {
	if j.budget.Allow() {
		co.requeueLocked(c, j, key)
		co.logf("campaign %s: requeued %s after %s (%s), attempt %d", c.id, key, f.Kind, f.Err, f.Attempts)
		return
	}
	co.failLocked(c, j, key, f, worker)
}

// failLocked marks a cell permanently failed.
func (co *Coordinator) failLocked(c *campaign, j *job, key string, f harness.JobFailure, worker string) {
	co.dropLeaseLocked(j)
	co.dequeueLocked(c, j, key)
	j.state = jobFailed
	j.failure = &f
	c.failed++
	c.jnl.Failed(f, worker)
	co.logf("campaign %s: %s FAILED permanently: %s", c.id, key, f.Err)
}

// ExpireLeases requeues every lease whose heartbeat deadline has passed —
// the worker-loss detector. It returns how many leases expired. The server runs this on
// a ticker; tests call it directly with a fake clock.
func (co *Coordinator) ExpireLeases() int {
	now := co.now()
	co.mu.Lock()
	defer co.mu.Unlock()
	expired := 0
	for _, id := range co.order {
		c := co.campaigns[id]
		for _, key := range c.order {
			j := c.jobs[key]
			li := j.lease
			if j.state != jobPending || li == nil || now.Before(li.expiry) {
				continue
			}
			expired++
			co.dropLeaseLocked(j)
			co.failOrRequeueLocked(c, j, key, li.worker, harness.JobFailure{
				Key: key, Seed: j.spec.Seed, Kind: FailLostWorker,
				Attempts: j.attempts,
				Err:      fmt.Sprintf("lease on %s expired (no heartbeat from %q within %s)", key, li.worker, co.cfg.leaseTTL()),
			})
		}
	}
	return expired
}

// Status reports one campaign's live counters.
func (co *Coordinator) Status(id string) (CampaignStatus, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c := co.campaigns[id]
	if c == nil {
		return CampaignStatus{}, fmt.Errorf("fabric: unknown campaign %q", id)
	}
	return co.statusLocked(c), nil
}

func (co *Coordinator) statusLocked(c *campaign) CampaignStatus {
	leased := 0
	for _, j := range c.jobs {
		if j.lease != nil {
			leased++
		}
	}
	return CampaignStatus{
		ID:          c.id,
		Name:        c.name,
		Fingerprint: c.fingerprint,
		State:       c.state(),
		Total:       len(c.order),
		Queued:      len(c.queue),
		Leased:      leased,
		Done:        c.done,
		Failed:      c.failed,
		Requeues:    c.requeues,
		Corrupt:     c.corrupt,
	}
}

// List reports every campaign, in submission order.
func (co *Coordinator) List() []CampaignStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]CampaignStatus, 0, len(co.order))
	for _, id := range co.order {
		out = append(out, co.statusLocked(co.campaigns[id]))
	}
	return out
}

// Results returns a campaign's per-key results (raw worker JSON) and the
// structured failures of cells that exhausted their budgets. Available at
// any time; callers that need completeness should check State first.
func (co *Coordinator) Results(id string) (CampaignResults, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c := co.campaigns[id]
	if c == nil {
		return CampaignResults{}, fmt.Errorf("fabric: unknown campaign %q", id)
	}
	out := CampaignResults{
		ID:      c.id,
		State:   c.state(),
		Results: make(map[string]json.RawMessage, c.done),
	}
	for _, key := range c.order {
		j := c.jobs[key]
		switch j.state {
		case jobDone:
			out.Results[key] = append(json.RawMessage(nil), j.result...)
		case jobFailed:
			out.Failures = append(out.Failures, *j.failure)
		}
	}
	return out, nil
}

// Cancel stops a campaign: queued cells are dropped, running workers are
// told their leases are lost at the next heartbeat, and late results are
// ignored. Journaled completions are kept.
func (co *Coordinator) Cancel(id string) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	c := co.campaigns[id]
	if c == nil {
		return fmt.Errorf("fabric: unknown campaign %q", id)
	}
	if !c.cancelled {
		c.cancelled = true
		c.queue = nil
		for _, j := range c.jobs {
			j.queued = false
			co.dropLeaseLocked(j)
		}
		co.logf("campaign %s (%s): cancelled", c.id, c.name)
	}
	return nil
}

// Close flushes and closes every campaign journal.
func (co *Coordinator) Close() {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, c := range co.campaigns {
		c.jnl.Close()
		c.jnl = nil
	}
}
