package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mtvp/internal/fault"
	"mtvp/internal/harness"
)

// RunFunc executes one leased cell. progress must be called (cheaply, from
// the simulator's observer poll) with the cell's current simulated cycle
// and commit counts; the agent samples it for heartbeats. The returned
// JSON is passed to the coordinator untouched — it must depend only on the
// spec, never on the worker, so reports stay byte-identical across fleets.
type RunFunc func(ctx context.Context, spec JobSpec, progress func(cycles, commits uint64)) (json.RawMessage, error)

// WorkerConfig tunes one worker agent.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL ("http://host:8100").
	Coordinator string
	// Token authenticates against the coordinator.
	Token string
	// Name is the agent's stable self-identification; "" selects host:pid.
	Name string
	// Slots is the number of cells run concurrently (<1 selects GOMAXPROCS).
	Slots int
	// Poll is the idle backoff between lease attempts when the coordinator
	// has nothing queued or is unreachable (0 selects 500ms). Actual sleeps
	// are jittered ±50% from a per-slot seeded stream so a worker's slots
	// never poll in lockstep.
	Poll time.Duration
	// ReportTimeout bounds each attempt to deliver a finished cell's result
	// (0 selects 10s). Raise it for coordinators behind slow links; lease
	// expiry covers the loss either way.
	ReportTimeout time.Duration
	// Run executes a cell (required).
	Run RunFunc
	// Logf, when non-nil, receives agent progress lines.
	Logf func(format string, args ...any)
}

func (c WorkerConfig) name() string {
	if c.Name != "" {
		return c.Name
	}
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

func (c WorkerConfig) slots() int {
	if c.Slots < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Slots
}

func (c WorkerConfig) poll() time.Duration {
	if c.Poll <= 0 {
		return 500 * time.Millisecond
	}
	return c.Poll
}

func (c WorkerConfig) reportTimeout() time.Duration {
	if c.ReportTimeout <= 0 {
		return 10 * time.Second
	}
	return c.ReportTimeout
}

// errLeaseLost cancels a running cell whose lease the coordinator revoked.
var errLeaseLost = errors.New("fabric: lease lost")

// RunWorker runs the agent loop until ctx is cancelled: every slot pulls a
// lease, runs the cell under a heartbeat stream, and reports the outcome
// with its attestation digest. On shutdown, in-flight cells are cancelled
// and their leases handed back (released) so they requeue immediately
// without spending retry budget. Worker death without the handback is also
// safe — that is what lease expiry is for — the release is just faster.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Run == nil {
		return fmt.Errorf("fabric: worker needs a Run function")
	}
	w := &worker{
		cfg:    cfg,
		name:   cfg.name(),
		client: NewClient(cfg.Coordinator, cfg.Token),
	}
	w.logf("worker %s: %d slot(s), coordinator %s", w.name, cfg.slots(), cfg.Coordinator)
	var wg sync.WaitGroup
	for i := 0; i < cfg.slots(); i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.slotLoop(ctx, i)
		}()
	}
	wg.Wait()
	w.logf("worker %s: drained", w.name)
	return nil
}

type worker struct {
	cfg    WorkerConfig
	name   string
	client *Client
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// jitter spreads d over [d/2, 3d/2) from the slot's seeded stream.
func jitter(dice *fault.Dice, d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(dice.Rand64()%uint64(d))
}

// slotLoop pulls and runs leases until ctx ends. Each slot derives its own
// jitter stream so sleeps are reproducible per slot yet decorrelated across
// slots.
func (w *worker) slotLoop(ctx context.Context, slot int) {
	dice := fault.NewDice(uint64(slot+1) * 0x9e3779b97f4a7c15)
	for ctx.Err() == nil {
		var lease Lease
		err := w.client.do(ctx, http.MethodPost, PathLease, LeaseRequest{Worker: w.name}, &lease)
		switch {
		case errors.Is(err, errNoContent):
			sleepCtx(ctx, jitter(dice, w.cfg.poll())) // nothing queued
			continue
		case err != nil:
			if ctx.Err() == nil {
				w.logf("worker %s: lease: %v (retrying)", w.name, err)
			}
			sleepCtx(ctx, jitter(dice, w.cfg.poll()))
			continue
		}
		w.runLease(ctx, lease, dice)
	}
}

// runLease executes one leased cell under a heartbeat stream.
func (w *worker) runLease(ctx context.Context, lease Lease, dice *fault.Dice) {
	jctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var cycles, commits atomic.Uint64
	progress := func(cy, co uint64) {
		cycles.Store(cy)
		commits.Store(co)
	}

	// Heartbeat stream: extend the lease; a refused heartbeat means the
	// lease is gone (expired and requeued, campaign cancelled) and the
	// cell must be abandoned mid-run. Each heartbeat piggybacks a compact
	// metric snapshot: a monotonic Seq plus the cycle/commit progress
	// accumulated since the last *acknowledged* heartbeat, so the
	// coordinator folds each delta exactly once no matter how the network
	// duplicates or drops requests. Absolute counters ride along to clamp
	// overlapping deltas after a lost ack.
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		every := lease.HeartbeatEvery
		if every <= 0 {
			every = time.Second
		}
		t := time.NewTicker(every)
		defer t.Stop()
		var seq, ackedCycles, ackedCommits uint64
		for {
			select {
			case <-jctx.Done():
				return
			case <-t.C:
				cy, co := cycles.Load(), commits.Load()
				seq++
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				var resp HeartbeatResponse
				err := w.client.do(jctx, http.MethodPost, PathHeartbeat, HeartbeatRequest{
					Worker: w.name, Campaign: lease.Campaign, Key: lease.Spec.Key,
					Cycles: cy, Commits: co,
					Seq: seq, DCycles: cy - ackedCycles, DCommits: co - ackedCommits,
					HeapMB: float64(ms.HeapAlloc) / (1 << 20),
				}, &resp)
				if err != nil {
					// Network errors are tolerated: the coordinator will expire
					// us if we stay unreachable, which is the designed outcome.
					// The unacked delta stays pending and rides the next beat.
					continue
				}
				if !resp.OK {
					cancel(errLeaseLost)
					return
				}
				ackedCycles, ackedCommits = cy, co
			}
		}
	}()

	started := time.Now()
	result, err := w.runIsolated(jctx, lease.Spec, progress)
	execDur := time.Since(started)
	cancel(nil)
	<-hbDone

	key := lease.Spec.Key
	switch {
	case errors.Is(context.Cause(jctx), errLeaseLost):
		// The coordinator already requeued the cell; anything we produced
		// would be deduped, so only report a success (it is free to accept
		// or dedup) and drop failures silently.
		if err == nil {
			w.report(w.okReport(lease, result, execDur, cycles.Load(), commits.Load()), dice)
		}
	case ctx.Err() != nil && err != nil:
		// Draining shutdown: hand the lease back without burning budget.
		w.report(ResultRequest{Worker: w.name, Campaign: lease.Campaign, Key: key, Released: true}, dice)
		w.logf("worker %s: released %s (draining)", w.name, key)
	case err != nil:
		w.report(ResultRequest{
			Worker: w.name, Campaign: lease.Campaign, Key: key,
			OK: false, Error: err.Error(), FailKind: failKind(err),
		}, dice)
		w.logf("worker %s: %s failed: %v", w.name, key, err)
	default:
		w.report(w.okReport(lease, result, execDur, cycles.Load(), commits.Load()), dice)
	}
}

// okReport builds a successful result report with the attestation digest
// computed over the exact payload bytes. The execution report echoes the
// lease's trace/span identity so the worker-side execution span stitches
// into the coordinator's timeline.
func (w *worker) okReport(lease Lease, result json.RawMessage, dur time.Duration, cycles, commits uint64) ResultRequest {
	return ResultRequest{
		Worker: w.name, Campaign: lease.Campaign, Key: lease.Spec.Key,
		OK: true, Result: result, Digest: ResultDigest(lease.Campaign, lease.Spec, result),
		Exec: &ExecReport{
			Trace: lease.Trace, Span: lease.Span,
			DurMS:  float64(dur) / float64(time.Millisecond),
			Cycles: cycles, Commits: commits,
		},
	}
}

// runIsolated runs the cell with panic capture: a panicking simulation
// becomes a structured failure report, not agent death.
func (w *worker) runIsolated(ctx context.Context, spec JobSpec, progress func(uint64, uint64)) (res json.RawMessage, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &harness.PanicError{Value: fmt.Sprint(p), Stack: string(debug.Stack())}
		}
	}()
	return w.cfg.Run(ctx, spec, progress)
}

// report delivers a terminal outcome with bounded retries — the result of
// a finished cell is worth a few attempts, but a worker must never wedge
// on an unreachable coordinator (lease expiry covers the loss). Retry
// pacing is jittered from the slot's seeded stream.
func (w *worker) report(req ResultRequest, dice *fault.Dice) {
	// Detached from the worker ctx: drain-time reports must still go out.
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), w.cfg.reportTimeout())
		var resp ResultResponse
		err := w.client.do(ctx, http.MethodPost, PathResult, req, &resp)
		cancel()
		if err == nil {
			return
		}
		time.Sleep(jitter(dice, time.Duration(attempt+1)*200*time.Millisecond))
	}
	w.logf("worker %s: failed to report %s (lease expiry will recover it)", w.name, req.Key)
}

// failKind classifies a cell error for the coordinator.
func failKind(err error) harness.FailKind {
	var pe *harness.PanicError
	if errors.As(err, &pe) {
		return harness.FailPanic
	}
	return harness.FailError
}

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
