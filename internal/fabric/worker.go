package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"mtvp/internal/fault"
	"mtvp/internal/harness"
)

// RunFunc executes one leased cell. The worker agent passes a progress
// callback that records the cell's simulated cycles (commits are ignored);
// the agent renews the cell's lease only while those cycles move, or before
// the first call. An implementation that never calls it keeps its lease for
// as long as the agent heartbeats. The returned JSON is passed to the
// coordinator untouched — it must depend only on the spec, never on the
// worker, so reports stay byte-identical across fleets.
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

// reportTimeout bounds each attempt to deliver a finished cell's result;
// lease expiry covers a report that never arrives.
const reportTimeout = 10 * time.Second

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

// runLease executes one leased cell through harness.Attempt under a
// heartbeat stream that renews the lease while the cell makes progress.
func (w *worker) runLease(ctx context.Context, lease Lease, dice *fault.Dice) {
	jctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	// Heartbeat stream: extend the lease while the cell's simulated cycles
	// move (or before it first reports any). A refused heartbeat means the
	// lease is gone (expired and requeued) and the cell must be abandoned
	// mid-run. A cell that stops moving is not renewed: its lease expires
	// and the coordinator requeues it as a lost worker's, and the cell is
	// abandoned once the lease has run out.
	hb := &harness.Heartbeat{}
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		every := lease.HeartbeatEvery
		if every <= 0 {
			every = time.Second
		}
		t := time.NewTicker(every)
		defer t.Stop()
		var last uint64
		renewed := time.Now()
		for {
			select {
			case <-jctx.Done():
				return
			case now := <-t.C:
				cur, moved := hb.Since(last)
				if !moved {
					if now.Sub(renewed) >= lease.TTL {
						cancel(errLeaseLost)
						return
					}
					continue
				}
				var resp HeartbeatResponse
				err := w.client.do(jctx, http.MethodPost, PathHeartbeat, HeartbeatRequest{
					Worker: w.name, Campaign: lease.Campaign, Key: lease.Spec.Key,
				}, &resp)
				if err != nil {
					// Network errors are tolerated: the coordinator will expire
					// us if we stay unreachable, which is the designed outcome.
					continue
				}
				if !resp.OK {
					cancel(errLeaseLost)
					return
				}
				last, renewed = cur, now
			}
		}
	}()

	result, f := harness.Attempt(jctx, func(ctx context.Context) (json.RawMessage, error) {
		return w.cfg.Run(ctx, lease.Spec, func(cycles, _ uint64) { hb.Beat(cycles) })
	})
	cancel(nil)
	<-hbDone

	key := lease.Spec.Key
	switch {
	case errors.Is(context.Cause(jctx), errLeaseLost):
		// The coordinator already requeued the cell; anything we produced
		// would be deduped, so only report a success (it is free to accept
		// or dedup) and drop failures silently.
		if f == nil {
			w.report(w.okReport(lease, result), dice)
		}
	case ctx.Err() != nil && f != nil:
		// Draining shutdown: hand the lease back without burning budget.
		w.report(ResultRequest{Worker: w.name, Campaign: lease.Campaign, Key: key, Released: true}, dice)
		w.logf("worker %s: released %s (draining)", w.name, key)
	case f != nil:
		w.report(ResultRequest{
			Worker: w.name, Campaign: lease.Campaign, Key: key,
			OK: false, Error: f.Err.Error(), FailKind: f.Kind, Permanent: f.Permanent,
		}, dice)
		w.logf("worker %s: %s failed: %v", w.name, key, f.Err)
	default:
		w.report(w.okReport(lease, result), dice)
	}
}

// okReport builds a successful result report with the attestation digest
// computed over the exact payload bytes.
func (w *worker) okReport(lease Lease, result json.RawMessage) ResultRequest {
	return ResultRequest{
		Worker: w.name, Campaign: lease.Campaign, Key: lease.Spec.Key,
		OK: true, Result: result, Digest: ResultDigest(lease.Campaign, lease.Spec, result),
	}
}

// report delivers a terminal outcome with bounded retries — the result of
// a finished cell is worth a few attempts, but a worker must never wedge
// on an unreachable coordinator (lease expiry covers the loss). Retry
// pacing is jittered from the slot's seeded stream.
func (w *worker) report(req ResultRequest, dice *fault.Dice) {
	// Detached from the worker ctx: drain-time reports must still go out.
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), reportTimeout)
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

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
