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
	"mtvp/internal/obs"
	"mtvp/internal/telemetry"
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
	// PruneAfter retires a worker from the fleet view after this much
	// silence with no leases held (0 selects 10×LeaseTTL).
	PruneAfter time.Duration

	// Registry, when non-nil, exports the live fleet view: aggregate
	// counters plus per-worker labeled gauges (leases held, heartbeat age,
	// jobs done/failed, cycle rate, lease-duration quantiles).
	Registry *telemetry.Registry
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

func (c CoordinatorConfig) pruneAfter() time.Duration {
	if c.PruneAfter > 0 {
		return c.PruneAfter
	}
	return 10 * c.leaseTTL()
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
	worker     string
	expiry     time.Time
	lastBeatAt time.Time // last heartbeat wall time (rate derivation)
	everBeaten bool

	// Observability: the lease's span identity and attempt ordinal, the
	// grant instant (span start + straggler duration base), the highest
	// heartbeat Seq whose deltas were folded (duplicate-request dedup), and
	// the absolute progress folded so far (lost-ack overlap clamp).
	attempt       int
	spanID        string
	granted       time.Time
	lastSeq       uint64
	foldedCycles  uint64
	foldedCommits uint64
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

	// Observability: the cell's trace ID and its currently-open queue span
	// (ID, "" when none).
	trace     string
	openQueue string
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

	// Observability: the bounded span store, the heartbeat-delta progress
	// accumulators, the aggregate cycle-rate EWMA, and its time series.
	trace      *obs.Trace
	simCycles  uint64
	simCommits uint64
	cycleRate  float64
	rateSeries *obs.Series
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

// workerInfo is one agent's fleet-view row.
type workerInfo struct {
	name      string
	lastSeen  time.Time
	leases    int
	done      uint64
	failed    uint64
	lost      uint64
	cycleRate float64 // EWMA cycles/sec

	// Straggler analytics: the durations of the worker's closed lease spans
	// (milliseconds) and its last heartbeat-reported live heap.
	durations *obs.Digest
	heapMB    float64
}

// Coordinator owns the lease state machine. All methods are safe for
// concurrent use; the HTTP server (server.go) is a thin layer over them.
type Coordinator struct {
	cfg CoordinatorConfig

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string // campaign submission order = lease order
	workers   map[string]*workerInfo

	metrics *fleetMetrics
}

// fleetMetrics is the aggregate + per-worker telemetry surface.
type fleetMetrics struct {
	reg           *telemetry.Registry
	leasesGranted *telemetry.Counter
	heartbeats    *telemetry.Counter
	expiries      *telemetry.Counter
	requeues      *telemetry.Counter
	resultsOK     *telemetry.Counter
	resultsFailed *telemetry.Counter
	dedups        *telemetry.Counter
	corrupt       *telemetry.Counter
	campaignsLive *telemetry.Gauge
	jobsQueued    *telemetry.Gauge
	jobsLeased    *telemetry.Gauge
	simCycles     *telemetry.Counter
	simCommits    *telemetry.Counter
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
		workers:   map[string]*workerInfo{},
	}
	if reg := cfg.Registry; reg != nil {
		co.metrics = &fleetMetrics{
			reg:           reg,
			leasesGranted: reg.Counter("mtvp_fabric_leases_granted_total", "job leases granted to workers"),
			heartbeats:    reg.Counter("mtvp_fabric_heartbeats_total", "lease heartbeats accepted"),
			expiries:      reg.Counter("mtvp_fabric_lease_expiries_total", "leases lost to heartbeat loss or expiry"),
			requeues:      reg.Counter("mtvp_fabric_requeues_total", "cells requeued after a lost lease or failure"),
			resultsOK:     reg.Counter("mtvp_fabric_results_ok_total", "successful cell results accepted"),
			resultsFailed: reg.Counter("mtvp_fabric_results_failed_total", "failed cell results reported"),
			dedups:        reg.Counter("mtvp_fabric_result_dedups_total", "double-completions deduped on job key"),
			corrupt:       reg.Counter("mtvp_fabric_results_corrupt_total", "results rejected for a missing or mismatching attestation digest"),
			campaignsLive: reg.Gauge("mtvp_fabric_campaigns_running", "campaigns currently running"),
			jobsQueued:    reg.Gauge("mtvp_fabric_jobs_queued", "cells waiting for a lease across all campaigns"),
			jobsLeased:    reg.Gauge("mtvp_fabric_jobs_leased", "cell leases currently active across all campaigns"),
			simCycles:     reg.Counter("mtvp_fabric_sim_cycles_total", "simulated cycles accumulated from worker heartbeat deltas"),
			simCommits:    reg.Counter("mtvp_fabric_sim_commits_total", "useful committed instructions accumulated from worker heartbeat deltas"),
		}
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
	c, err := co.installLocked(id, spec, nil, nil)
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
	co.updateGaugesLocked()
	return SubmitResponse{ID: id}, nil
}

// installLocked builds the campaign state from a spec plus (on reload) the
// journaled records and span timelines, opens its journal, and queues the
// unfinished cells. Every cell gets its deterministic trace identity here;
// unfinished cells open their root and first queue spans, finished cells
// seed their journaled spans so crash-resume keeps the timeline.
func (co *Coordinator) installLocked(id string, spec CampaignSpec, prior map[string]*harness.Record, priorSpans map[string][]obs.Span) (*campaign, error) {
	now := co.now()
	c := &campaign{
		id:          id,
		name:        spec.Name,
		fingerprint: spec.Fingerprint,
		jobs:        map[string]*job{},
		trace:       obs.NewTrace(id, obs.DefaultSpanLimit(len(spec.Jobs))),
		rateSeries:  obs.NewSeries("cycle_rate", 0),
	}
	for _, s := range spec.Jobs {
		j := &job{
			spec:   s,
			budget: fault.NewBackoff(co.cfg.retries(), 64),
			trace:  obs.TraceID(id, s.Key),
		}
		if rec := prior[s.Key]; rec != nil && rec.Status == harness.StatusDone && len(rec.Result) > 0 &&
			co.reverifyLocked(id, s, rec) {
			j.state = jobDone
			j.attempts = rec.Attempts
			j.result = append(json.RawMessage(nil), rec.Result...)
			j.digest = rec.Digest
			c.done++
			c.trace.Seed(priorSpans[s.Key])
		} else {
			c.queue = append(c.queue, s.Key)
			j.queued = true
			co.openCellSpansLocked(c, j, now)
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
	co.registerCampaignGauges(c)
	return c, nil
}

// openCellSpansLocked opens an unfinished cell's root span and its first
// queue span.
func (co *Coordinator) openCellSpansLocked(c *campaign, j *job, now time.Time) {
	root := obs.SpanID(j.trace, obs.KindCell, 0)
	c.trace.Start(obs.Span{
		Trace: j.trace, ID: root, Kind: obs.KindCell, Key: j.spec.Key, Start: now,
	})
	j.openQueue = obs.SpanID(j.trace, obs.KindQueue, j.attempts+1)
	c.trace.Start(obs.Span{
		Trace: j.trace, ID: j.openQueue, Parent: root, Kind: obs.KindQueue,
		Key: j.spec.Key, Attempt: j.attempts + 1, Start: now,
	})
}

// registerCampaignGauges exports the campaign's aggregate cycle rate as a
// labeled gauge (0 once the campaign leaves the running state).
func (co *Coordinator) registerCampaignGauges(c *campaign) {
	if co.metrics == nil {
		return
	}
	id := c.id
	co.metrics.reg.LabeledGaugeFunc("mtvp_fleet_campaign_cycle_rate",
		fmt.Sprintf("campaign=%q,id=%q", c.name, id),
		"campaign aggregate simulated-cycle rate (cycles/sec, EWMA over heartbeat deltas)",
		func() float64 {
			co.mu.Lock()
			defer co.mu.Unlock()
			c := co.campaigns[id]
			if c == nil || c.state() != StateRunning {
				return 0
			}
			return c.cycleRate
		})
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
		prior, priorSpans, warns, err := harness.LoadJournalFull(co.journalPath(id), spec.Fingerprint)
		if err != nil {
			return fmt.Errorf("fabric: reload %s: %w", n, err)
		}
		for _, w := range warns {
			co.logf("%s", w)
		}
		c, err := co.installLocked(id, spec, prior, priorSpans)
		if err != nil {
			return err
		}
		co.logf("campaign %s (%s): reloaded, %d/%d cells already done",
			id, c.name, c.done, len(c.order))
	}
	co.updateGaugesLocked()
	return nil
}

// enqueueLocked lists a pending, unleased cell in its campaign queue if it
// is not already listed, opening a queue span for the new wait.
func (co *Coordinator) enqueueLocked(c *campaign, j *job, key string) {
	if j.state != jobPending || j.queued || j.lease != nil {
		return
	}
	c.queue = append(c.queue, key)
	j.queued = true
	if j.openQueue == "" {
		j.openQueue = obs.SpanID(j.trace, obs.KindQueue, j.attempts+1)
		c.trace.Start(obs.Span{
			Trace: j.trace, ID: j.openQueue,
			Parent: obs.SpanID(j.trace, obs.KindCell, 0),
			Kind:   obs.KindQueue, Key: key, Attempt: j.attempts + 1,
			Start: co.now(),
		})
	}
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
	w := co.touchWorkerLocked(worker, now)
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
		// Spans: the wait is over — close the open queue span and open the
		// lease span for this attempt, parented under the cell root.
		if j.openQueue != "" {
			c.trace.End(j.openQueue, now, obs.StatusOK)
			j.openQueue = ""
		}
		spanID := obs.SpanID(j.trace, obs.KindLease, j.attempts)
		c.trace.Start(obs.Span{
			Trace: j.trace, ID: spanID,
			Parent: obs.SpanID(j.trace, obs.KindCell, 0),
			Kind:   obs.KindLease, Key: key, Worker: worker,
			Attempt: j.attempts, Start: now,
		})
		j.lease = &leaseInfo{
			worker:     worker,
			expiry:     now.Add(co.cfg.leaseTTL()),
			lastBeatAt: now,
			attempt:    j.attempts,
			spanID:     spanID,
			granted:    now,
		}
		w.leases++
		if co.metrics != nil {
			co.metrics.leasesGranted.Inc()
		}
		co.updateGaugesLocked()
		return Lease{
			Campaign:       c.id,
			Spec:           j.spec,
			TTL:            co.cfg.leaseTTL(),
			HeartbeatEvery: co.cfg.leaseTTL() / 3,
			Trace:          j.trace,
			Span:           spanID,
			Attempt:        j.attempts,
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

// Heartbeat extends a lease and feeds the fleet view. ok is false when the
// worker no longer owns the lease (expired and requeued, already completed
// by someone else, campaign cancelled): the worker should abandon the cell.
func (co *Coordinator) Heartbeat(req HeartbeatRequest) bool {
	now := co.now()
	co.mu.Lock()
	defer co.mu.Unlock()
	w := co.touchWorkerLocked(req.Worker, now)
	c := co.campaigns[req.Campaign]
	if w == nil || c == nil || c.cancelled {
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
	if req.HeapMB > 0 {
		w.heapMB = req.HeapMB
	}
	// Fold the simulated progress accumulated since the last *acked*
	// heartbeat into the campaign and fleet accumulators, exactly once per
	// Seq: a duplicate delivery (retry, chaos proxy) only extends the lease.
	// A lost ack makes the worker re-send an overlapping delta under a fresh
	// Seq; clamping against the absolute counters (monotonic within a
	// lease) keeps the fold exact.
	if req.Seq > li.lastSeq {
		li.lastSeq = req.Seq
		dc, dm := req.DCycles, req.DCommits
		if req.Cycles >= li.foldedCycles && dc > req.Cycles-li.foldedCycles {
			dc = req.Cycles - li.foldedCycles
		}
		if req.Commits >= li.foldedCommits && dm > req.Commits-li.foldedCommits {
			dm = req.Commits - li.foldedCommits
		}
		li.foldedCycles += dc
		li.foldedCommits += dm
		c.simCycles += dc
		c.simCommits += dm
		if co.metrics != nil {
			co.metrics.simCycles.Add(dc)
			co.metrics.simCommits.Add(dm)
		}
		if li.spanID != "" && (dc > 0 || dm > 0) {
			c.trace.Update(li.spanID, func(s *obs.Span) {
				s.Cycles += dc
				s.Commits += dm
			})
		}
		if dt := now.Sub(li.lastBeatAt).Seconds(); dt > 0 && li.everBeaten {
			inst := float64(dc) / dt
			if w.cycleRate == 0 {
				w.cycleRate = inst
			} else {
				w.cycleRate = 0.75*w.cycleRate + 0.25*inst
			}
			if c.cycleRate == 0 {
				c.cycleRate = inst
			} else {
				c.cycleRate = 0.75*c.cycleRate + 0.25*inst
			}
			c.rateSeries.Add(now, c.cycleRate)
		}
	}
	li.lastBeatAt = now
	li.everBeaten = true
	if co.metrics != nil {
		co.metrics.heartbeats.Inc()
	}
	return true
}

// dropLeaseLocked clears j's lease (the job's next state is the caller's
// business). It reports whether a lease was held.
func (co *Coordinator) dropLeaseLocked(j *job) bool {
	if j.lease == nil {
		return false
	}
	if w := co.workers[j.lease.worker]; w != nil && w.leases > 0 {
		w.leases--
	}
	j.lease = nil
	return true
}

// revokeLeaseLocked drops worker's lease on j, if worker holds it, and
// closes the lease's span with the revocation's status and note, feeding
// the lease duration into the worker's straggler digest. Every
// lease-ending path goes through here except campaign cancellation
// (EndOpen closes those spans wholesale).
func (co *Coordinator) revokeLeaseLocked(c *campaign, j *job, worker, status, note string) bool {
	li := j.heldLease(worker)
	if li == nil {
		return false
	}
	now := co.now()
	if li.spanID != "" {
		c.trace.Update(li.spanID, func(s *obs.Span) {
			if !s.End.IsZero() {
				return
			}
			s.End = now
			s.Status = status
			if note != "" {
				s.Note = note
			}
		})
		if d := now.Sub(li.granted); d > 0 {
			if w := co.workers[worker]; w != nil {
				if w.durations == nil {
					w.durations = obs.NewDigest(1024)
				}
				w.durations.Add(float64(d) / float64(time.Millisecond))
			}
		}
	}
	return co.dropLeaseLocked(j)
}

// Result records a cell's terminal outcome. Successful results must carry
// a valid attestation digest; the first one completes the cell. Corrupt
// results are rejected without reaching the journal and without charging
// the cell's retry budget. Failures spend the cell's requeue budget.
func (co *Coordinator) Result(req ResultRequest) (ResultResponse, error) {
	now := co.now()
	co.mu.Lock()
	defer co.mu.Unlock()
	w := co.touchWorkerLocked(req.Worker, now)
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
		if j.state == jobPending && co.revokeLeaseLocked(c, j, req.Worker, obs.StatusReleased, "released by draining worker") {
			co.requeueLocked(c, j, req.Key)
			co.logf("campaign %s: %s released by draining worker %s, requeued", c.id, req.Key, req.Worker)
			co.updateGaugesLocked()
			return ResultResponse{Accepted: true}, nil
		}
		return ResultResponse{Accepted: false}, nil
	}
	if req.OK {
		resp := co.acceptLocked(c, j, w, req)
		co.updateGaugesLocked()
		return resp, nil
	}

	// Failures are only accepted from a current lease holder: a stale
	// report from an expired lease must not spend the budget of — or
	// double-requeue — a cell another worker now owns.
	if j.state != jobPending || !co.revokeLeaseLocked(c, j, req.Worker, obs.StatusError, req.Error) {
		return ResultResponse{Accepted: false}, nil
	}
	kind := req.FailKind
	if kind == "" {
		kind = harness.FailError
	}
	if w != nil {
		w.failed++
	}
	if co.metrics != nil {
		co.metrics.resultsFailed.Inc()
	}
	co.failOrRequeueLocked(c, j, req.Key, req.Worker, harness.JobFailure{
		Key: req.Key, Seed: j.spec.Seed, Kind: kind,
		Attempts: j.attempts, Err: req.Error,
	})
	co.updateGaugesLocked()
	return ResultResponse{Accepted: true}, nil
}

// requeueLocked puts a cell whose lease ended back on the queue and counts
// the requeue.
func (co *Coordinator) requeueLocked(c *campaign, j *job, key string) {
	co.enqueueLocked(c, j, key)
	c.requeues++
	if co.metrics != nil {
		co.metrics.requeues.Inc()
	}
}

// acceptLocked processes one successful, digest-carrying result report.
func (co *Coordinator) acceptLocked(c *campaign, j *job, w *workerInfo, req ResultRequest) ResultResponse {
	if w == nil {
		return ResultResponse{Accepted: false} // anonymous results are never accepted
	}
	// Attestation: recompute the canonical digest over the bytes received
	// against the spec handed out. A mismatch (or a missing digest) means
	// the payload is not provably the simulator's output for this cell —
	// reject it before it can touch the journal and requeue the cell at no
	// budget cost.
	if want := ResultDigest(c.id, j.spec, req.Result); req.Digest != want {
		c.corrupt++
		if co.metrics != nil {
			co.metrics.corrupt.Inc()
		}
		co.logf("campaign %s: CORRUPT result for %s from %q (digest %.24q, want %.24q)",
			c.id, req.Key, req.Worker, req.Digest, want)
		if co.revokeLeaseLocked(c, j, req.Worker, obs.StatusCorrupt, "attestation digest mismatch") {
			co.requeueLocked(c, j, req.Key)
		}
		return ResultResponse{Accepted: false}
	}

	if j.state == jobDone {
		// Double completion: a worker we presumed dead finished anyway.
		if co.metrics != nil {
			co.metrics.dedups.Inc()
		}
		co.logf("campaign %s: deduped double completion of %s from %s", c.id, req.Key, req.Worker)
		return ResultResponse{Accepted: false}
	}

	// Spans: stitch the worker's execution under the coordinator's lease
	// span (flow across the process boundary), record the report delivery as
	// an instant, and close the lease. A late report whose lease already
	// expired gets no execute span — its lease timeline ended at expiry.
	now := co.now()
	attempt := 0
	if li := j.heldLease(req.Worker); li != nil {
		attempt = li.attempt
		start := li.granted
		var cyc, com uint64
		if req.Exec != nil {
			// The worker reports its own wall duration; clamp the span into
			// the lease window so a skewed worker clock cannot place the
			// execution before its grant.
			if d := time.Duration(req.Exec.DurMS * float64(time.Millisecond)); d > 0 {
				if s := now.Add(-d); s.After(start) {
					start = s
				}
			}
			cyc, com = req.Exec.Cycles, req.Exec.Commits
			// Fold the residual progress the heartbeats never carried (a
			// cell faster than the beat interval heartbeats zero times);
			// the fold stays exactly-once through the same clamp the
			// delta protocol uses.
			if dc := cyc - li.foldedCycles; cyc >= li.foldedCycles && dc > 0 {
				li.foldedCycles = cyc
				c.simCycles += dc
				if co.metrics != nil {
					co.metrics.simCycles.Add(dc)
				}
			}
			if dm := com - li.foldedCommits; com >= li.foldedCommits && dm > 0 {
				li.foldedCommits = com
				c.simCommits += dm
				if co.metrics != nil {
					co.metrics.simCommits.Add(dm)
				}
			}
		}
		c.trace.Start(obs.Span{
			Trace: j.trace, ID: obs.SpanID(j.trace, obs.KindExecute, attempt),
			Parent: li.spanID, Kind: obs.KindExecute, Key: req.Key,
			Worker: req.Worker, Attempt: attempt,
			Start: start, End: now, Status: obs.StatusOK,
			Cycles: cyc, Commits: com,
		})
		c.trace.Start(obs.Span{
			Trace: j.trace, ID: obs.SpanID(j.trace, obs.KindReport, attempt),
			Parent: li.spanID, Kind: obs.KindReport, Key: req.Key,
			Worker: req.Worker, Attempt: attempt,
			Start: now, End: now, Status: obs.StatusOK,
		})
		co.revokeLeaseLocked(c, j, req.Worker, obs.StatusOK, "")
	}
	w.done++
	co.finalizeLocked(c, j, req.Key, req.Worker, attempt, req.Digest, req.Result)
	return ResultResponse{Accepted: true}
}

// finalizeLocked completes a cell with worker's attested result. attempt
// is the lease attempt that produced it (0 for a late report whose lease
// had already ended).
func (co *Coordinator) finalizeLocked(c *campaign, j *job, key, worker string, attempt int, digest string, result json.RawMessage) {
	now := co.now()
	// A late success supersedes the lease a requeue handed to another
	// worker; that worker's own report will dedup.
	if j.lease != nil {
		co.revokeLeaseLocked(c, j, j.lease.worker, obs.StatusReleased, "superseded by an accepted result")
	}
	co.dequeueLocked(c, j, key)
	if j.openQueue != "" {
		c.trace.End(j.openQueue, now, obs.StatusOK)
		j.openQueue = ""
	}
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
	// Spans: mark the winning attempt's path Final, close the cell root,
	// record the checkpoint write as an instant, and persist the finished
	// timeline through the journal so crash-resume reconstructs it.
	markFinal := func(kind obs.Kind, attempt int) {
		c.trace.Update(obs.SpanID(j.trace, kind, attempt), func(s *obs.Span) { s.Final = true })
	}
	rootID := obs.SpanID(j.trace, obs.KindCell, 0)
	if attempt > 0 {
		markFinal(obs.KindQueue, attempt)
		markFinal(obs.KindLease, attempt)
		markFinal(obs.KindExecute, attempt)
		markFinal(obs.KindReport, attempt)
	}
	c.trace.Start(obs.Span{
		Trace: j.trace, ID: obs.SpanID(j.trace, obs.KindJournal, 0),
		Parent: rootID, Kind: obs.KindJournal, Key: key,
		Start: now, End: now, Status: obs.StatusOK, Final: true,
	})
	c.trace.End(rootID, now, obs.StatusOK)
	markFinal(obs.KindCell, 0)
	c.jnl.Spans(key, c.trace.CellSpans(key))
	if co.metrics != nil {
		co.metrics.resultsOK.Inc()
	}
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
	now := co.now()
	if j.lease != nil {
		co.revokeLeaseLocked(c, j, j.lease.worker, obs.StatusReleased, "cell failed")
	}
	co.dequeueLocked(c, j, key)
	j.state = jobFailed
	j.failure = &f
	c.failed++
	c.jnl.Failed(f, worker)
	// Spans: close the cell's open path as failed, record the checkpoint
	// write, and persist the timeline.
	if j.openQueue != "" {
		c.trace.End(j.openQueue, now, obs.StatusFailed)
		j.openQueue = ""
	}
	rootID := obs.SpanID(j.trace, obs.KindCell, 0)
	c.trace.Start(obs.Span{
		Trace: j.trace, ID: obs.SpanID(j.trace, obs.KindJournal, 0),
		Parent: rootID, Kind: obs.KindJournal, Key: key,
		Start: now, End: now, Status: obs.StatusOK, Final: true,
	})
	c.trace.Update(rootID, func(s *obs.Span) {
		if s.End.IsZero() {
			s.End = now
			s.Status = obs.StatusFailed
			s.Note = fmt.Sprintf("%s: %s", f.Kind, f.Err)
		}
	})
	c.jnl.Spans(key, c.trace.CellSpans(key))
	co.logf("campaign %s: %s FAILED permanently: %s", c.id, key, f.Err)
}

// ExpireLeases requeues every lease whose heartbeat deadline has passed —
// the worker-loss detector — and prunes long-silent idle workers from the
// fleet view. It returns how many leases expired. The server runs this on
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
			if w := co.workers[li.worker]; w != nil {
				w.lost++
			}
			if co.metrics != nil {
				co.metrics.expiries.Inc()
			}
			co.revokeLeaseLocked(c, j, li.worker, obs.StatusExpired,
				fmt.Sprintf("no heartbeat from %q within %s", li.worker, co.cfg.leaseTTL()))
			co.failOrRequeueLocked(c, j, key, li.worker, harness.JobFailure{
				Key: key, Seed: j.spec.Seed, Kind: FailLostWorker,
				Attempts: j.attempts,
				Err:      fmt.Sprintf("lease on %s expired (no heartbeat from %q within %s)", key, li.worker, co.cfg.leaseTTL()),
			})
		}
	}
	// Prune workers that hold nothing and have gone silent.
	for name, w := range co.workers {
		if w.leases == 0 && now.Sub(w.lastSeen) > co.cfg.pruneAfter() {
			delete(co.workers, name)
			co.dropWorkerGauges(name)
		}
	}
	if expired > 0 {
		co.updateGaugesLocked()
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

// TraceSpans returns a campaign's display name and a snapshot of its span
// store for the Chrome/Perfetto trace export.
func (co *Coordinator) TraceSpans(id string) (string, []obs.Span, error) {
	co.mu.Lock()
	c := co.campaigns[id]
	co.mu.Unlock()
	if c == nil {
		return "", nil, fmt.Errorf("fabric: unknown campaign %q", id)
	}
	return c.name, c.trace.Snapshot(), nil
}

// Timeline returns a campaign's span timeline, straggler report (k tail
// cells; <=0 selects the analyzer default), heartbeat-fed progress
// accumulators, and cycle-rate series.
func (co *Coordinator) Timeline(id string, k int) (CampaignTimeline, error) {
	co.mu.Lock()
	c := co.campaigns[id]
	if c == nil {
		co.mu.Unlock()
		return CampaignTimeline{}, fmt.Errorf("fabric: unknown campaign %q", id)
	}
	tl := CampaignTimeline{
		ID:         c.id,
		Name:       c.name,
		State:      c.state(),
		CycleRate:  c.cycleRate,
		SimCycles:  c.simCycles,
		SimCommits: c.simCommits,
	}
	trace, series := c.trace, c.rateSeries
	co.mu.Unlock()
	// Snapshots take the trace/series locks only — no coordinator lock held.
	tl.Spans = trace.Snapshot()
	obs.SortCanonical(tl.Spans)
	tl.Dropped = trace.Dropped()
	tl.Report = obs.Analyze(tl.Spans, k, co.now())
	tl.Series = series.Snapshot()
	return tl, nil
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
			j.openQueue = ""
			co.dropLeaseLocked(j)
		}
		c.trace.EndOpen(co.now(), obs.StatusCancelled)
		co.logf("campaign %s (%s): cancelled", c.id, c.name)
	}
	co.updateGaugesLocked()
	return nil
}

// Fleet reports the live worker view, sorted by name.
func (co *Coordinator) Fleet() []WorkerStatus {
	now := co.now()
	co.mu.Lock()
	defer co.mu.Unlock()
	fleetMean := co.fleetMeanLocked()
	out := make([]WorkerStatus, 0, len(co.workers))
	for _, w := range co.workers {
		ws := WorkerStatus{
			Name:         w.name,
			Leases:       w.leases,
			HeartbeatAge: now.Sub(w.lastSeen),
			Done:         w.done,
			Failed:       w.failed,
			Lost:         w.lost,
			CycleRate:    w.cycleRate,
			HeapMB:       w.heapMB,
		}
		if w.durations != nil && w.durations.Count() > 0 {
			ws.P50MS = w.durations.Quantile(0.50)
			ws.P99MS = w.durations.Quantile(0.99)
			ws.MeanMS = w.durations.Mean()
			if fleetMean > 0 {
				ws.Slowdown = ws.MeanMS / fleetMean
			}
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
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

// touchWorkerLocked records contact from a worker, registering its
// per-worker fleet gauges on first sight.
func (co *Coordinator) touchWorkerLocked(name string, now time.Time) *workerInfo {
	if name == "" {
		return nil
	}
	w := co.workers[name]
	if w == nil {
		w = &workerInfo{name: name}
		co.workers[name] = w
		co.registerWorkerGauges(name)
		co.logf("worker %q joined the fleet", name)
	}
	w.lastSeen = now
	return w
}

// registerWorkerGauges exports one worker's fleet row as labeled gauges.
// The gauge funcs read coordinator state at scrape time (the registry
// releases its own lock before calling them, so lock order is safe).
func (co *Coordinator) registerWorkerGauges(name string) {
	if co.metrics == nil {
		return
	}
	labels := fmt.Sprintf("worker=%q", name)
	read := func(f func(*workerInfo) float64) func() float64 {
		return func() float64 {
			co.mu.Lock()
			defer co.mu.Unlock()
			w := co.workers[name]
			if w == nil {
				return 0
			}
			return f(w)
		}
	}
	reg := co.metrics.reg
	reg.LabeledGaugeFunc("mtvp_fleet_leases", labels,
		"cells currently leased to the worker",
		read(func(w *workerInfo) float64 { return float64(w.leases) }))
	reg.LabeledGaugeFunc("mtvp_fleet_heartbeat_age_seconds", labels,
		"seconds since the worker last contacted the coordinator",
		read(func(w *workerInfo) float64 { return co.now().Sub(w.lastSeen).Seconds() }))
	reg.LabeledGaugeFunc("mtvp_fleet_jobs_done", labels,
		"cells the worker completed successfully",
		read(func(w *workerInfo) float64 { return float64(w.done) }))
	reg.LabeledGaugeFunc("mtvp_fleet_jobs_failed", labels,
		"cell failures the worker reported",
		read(func(w *workerInfo) float64 { return float64(w.failed) }))
	reg.LabeledGaugeFunc("mtvp_fleet_leases_lost", labels,
		"leases the worker lost to heartbeat expiry",
		read(func(w *workerInfo) float64 { return float64(w.lost) }))
	reg.LabeledGaugeFunc("mtvp_fleet_cycle_rate", labels,
		"recent simulated cycles per second (EWMA over heartbeats)",
		read(func(w *workerInfo) float64 { return w.cycleRate }))
	reg.LabeledGaugeFunc("mtvp_fleet_p99_ms", labels,
		"p99 lease duration in milliseconds (straggler digest)",
		read(func(w *workerInfo) float64 {
			if w.durations == nil {
				return 0
			}
			return w.durations.Quantile(0.99)
		}))
	reg.LabeledGaugeFunc("mtvp_fleet_slowdown", labels,
		"worker mean lease duration relative to the fleet mean (1.0 = average)",
		read(func(w *workerInfo) float64 {
			fleet := co.fleetMeanLocked()
			if fleet <= 0 || w.durations == nil || w.durations.Count() == 0 {
				return 0
			}
			return w.durations.Mean() / fleet
		}))
	reg.LabeledGaugeFunc("mtvp_fleet_heap_mb", labels,
		"worker live heap in MiB (heartbeat-reported)",
		read(func(w *workerInfo) float64 { return w.heapMB }))
}

// fleetMeanLocked is the fleet-wide mean closed-lease duration (ms),
// weighted by each worker's sample count.
func (co *Coordinator) fleetMeanLocked() float64 {
	var sum float64
	var n uint64
	for _, w := range co.workers {
		if w.durations == nil {
			continue
		}
		cnt := w.durations.Count()
		sum += w.durations.Mean() * float64(cnt)
		n += cnt
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// dropWorkerGauges retires a pruned worker's labeled gauges.
func (co *Coordinator) dropWorkerGauges(name string) {
	if co.metrics == nil {
		return
	}
	labels := fmt.Sprintf("worker=%q", name)
	for _, metric := range []string{
		"mtvp_fleet_leases", "mtvp_fleet_heartbeat_age_seconds",
		"mtvp_fleet_jobs_done", "mtvp_fleet_jobs_failed",
		"mtvp_fleet_leases_lost", "mtvp_fleet_cycle_rate",
		"mtvp_fleet_p99_ms", "mtvp_fleet_slowdown", "mtvp_fleet_heap_mb",
	} {
		co.metrics.reg.Unregister(metric, labels)
	}
}

// updateGaugesLocked refreshes the aggregate gauges.
func (co *Coordinator) updateGaugesLocked() {
	if co.metrics == nil {
		return
	}
	running, queued, leased := 0, 0, 0
	for _, c := range co.campaigns {
		if c.state() == StateRunning {
			running++
		}
		queued += len(c.queue)
		for _, j := range c.jobs {
			if j.lease != nil {
				leased++
			}
		}
	}
	co.metrics.campaignsLive.Set(int64(running))
	co.metrics.jobsQueued.Set(int64(queued))
	co.metrics.jobsLeased.Set(int64(leased))
}
