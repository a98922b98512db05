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
	// A slot whose cells are short also holds its next cell's lease in
	// reserve while the current one runs.
	Slots int
	// Poll is the idle backoff between lease attempts when the coordinator
	// has nothing queued or is unreachable (0 selects 500ms). Actual sleeps
	// are jittered ±50% from each slot's own seeded stream so a worker's
	// slots never poll in lockstep.
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

// slotRequests is how many requests one slot can have in flight at once:
// its fetcher's lease or renewal, its running cell's heartbeat and its
// reporter's result. The worker keeps that many idle connections per slot.
const slotRequests = 3

// reserveRounds decides when a slot's fetcher leases the next cell while
// the current one runs: only after a cell that took less than this many
// lease round trips, smoothed over the fetcher's grants since a round
// trip varies tenfold on a loaded host, where the coordinator competes
// with the simulating slots for the CPU. Only after such a cell does the
// round trip hold up a noticeable share of the slot's time. Behind a
// longer cell a reservation would save little and, at a campaign's tail,
// leave a cell waiting while other slots sit idle. A slot's first cell
// therefore never has one reserved behind it, and a reserved cell waits
// behind at most one cell that follows a short one.
const reserveRounds = 30

// leaseGrace is how long a lease request in flight at a drain may still
// take: a lease granted within it is released instead of stranded until
// it expires, and the drain's releases wait for it at most that long.
const leaseGrace = time.Second

// errLeaseLost cancels a running cell whose lease the coordinator revoked.
var errLeaseLost = errors.New("fabric: lease lost")

// RunWorker runs the agent loop until ctx is cancelled. Every slot runs
// one leased cell at a time under a heartbeat stream, while its fetcher
// leases the next cell in reserve when cells are short and its reporter
// delivers the previous outcome with its attestation digest, so neither
// round trip holds up the simulation. On shutdown, in-flight cells are
// cancelled, and their leases and the reserved ones are handed back
// (released) so they requeue immediately without spending retry budget.
// RunWorker returns once every report has been delivered or given up.
// Worker death without the handback is also safe — that is what lease
// expiry is for — but slower, and it charges every cell the worker held a
// retry, a reserved one included.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Run == nil {
		return fmt.Errorf("fabric: worker needs a Run function")
	}
	slots := cfg.slots()
	w := &worker{
		cfg:    cfg,
		name:   cfg.name(),
		client: NewClient(cfg.Coordinator, cfg.Token),
		claims: map[string]*claim{},
	}
	// Keep an idle connection for every request the slots can have in
	// flight at once; http.DefaultTransport keeps two per host.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns, tr.MaxIdleConnsPerHost = slots*slotRequests, slots*slotRequests
	w.client.hc.Transport = tr
	defer w.client.hc.CloseIdleConnections()
	w.logf("worker %s: %d slot(s), coordinator %s", w.name, slots, cfg.Coordinator)
	w.leasing.Add(slots)
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.slot(ctx, i)
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

	mu     sync.Mutex
	claims map[string]*claim // by campaign and cell key

	// leasing counts the fetchers that may still send a lease request. A
	// drain sends its releases only once it is zero, at most leaseGrace
	// after the drain, so that a released cell cannot be leased straight
	// back to this worker.
	leasing sync.WaitGroup
}

// claim is a lease the worker holds, running or reserved. The coordinator
// grants a cell only while no lease on it is live, so a second grant of a
// claimed cell means the older lease expired behind the worker's back. A
// heartbeat names only the worker and the cell, so the older holder's
// heartbeats would renew the new lease: the new claim cancels the old one
// with errLeaseLost instead.
type claim struct {
	lease  Lease
	rtt    time.Duration   // the fetcher's smoothed lease round trip
	key    string          // campaign and cell key
	ctx    context.Context // ends when superseded or when the worker drains
	cancel context.CancelCauseFunc
}

// claim registers a granted lease, superseding an older claim on its cell.
func (w *worker) claim(ctx context.Context, lease Lease) *claim {
	c := &claim{lease: lease, key: lease.Campaign + "\x00" + lease.Spec.Key}
	c.ctx, c.cancel = context.WithCancelCause(ctx)
	w.mu.Lock()
	defer w.mu.Unlock()
	if old := w.claims[c.key]; old != nil {
		old.cancel(errLeaseLost)
	}
	w.claims[c.key] = c
	return c
}

// unclaim forgets c once its lease is settled.
func (w *worker) unclaim(c *claim) {
	w.mu.Lock()
	if w.claims[c.key] == c {
		delete(w.claims, c.key)
	}
	w.mu.Unlock()
	c.cancel(nil)
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// jitter spreads d over [d/2, 3d/2) from a seeded stream.
func jitter(dice *fault.Dice, d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(dice.Rand64()%uint64(d))
}

// slot runs the cells its fetcher hands over, one at a time, and passes
// each outcome to its reporter, until ctx ends and the fetcher has let go
// of its reservation; it returns once the last report is settled. The
// slot asks its fetcher for its next cell through want: as a cell starts
// when the slot's last cell was short (the reservation), otherwise once
// the cell is done. The reporter takes one outcome at a time through an
// unbuffered channel, so at most one report is in flight and the slot
// waits only when the last one is still out. The fetcher and the reporter
// each draw jitter from their own seeded stream, since a fault.Dice is not
// safe for concurrent use; the slot draws none.
func (w *worker) slot(ctx context.Context, slot int) {
	seed := uint64(slot+1) * 0x9e3779b97f4a7c15
	// One ask to start and one per cell taken; the fetcher consumes each
	// before it hands a cell over, so an ask never blocks.
	want := make(chan struct{}, 1)
	want <- struct{}{}
	leases := make(chan *claim)
	fetched := make(chan struct{})
	go func() {
		defer close(fetched)
		w.fetch(ctx, want, leases, fault.NewDice(seed))
	}()
	reports := make(chan ResultRequest)
	reported := make(chan struct{})
	go func() {
		defer close(reported)
		dice := fault.NewDice(^seed)
		for req := range reports {
			w.report(req, dice)
		}
	}()
	defer func() {
		close(reports)
		<-reported
	}()
	short := false // the last cell took under reserveRounds round trips
	for {
		select {
		case c := <-leases:
			reserve := short
			if reserve {
				want <- struct{}{}
			}
			start := time.Now()
			req, ok := w.runLease(ctx, c)
			short = time.Since(start) < reserveRounds*c.rtt
			if !reserve {
				want <- struct{}{}
			}
			w.unclaim(c)
			if req.Released {
				w.leasing.Wait()
			}
			if ok {
				reports <- req
			}
		case <-fetched:
			return
		}
	}
}

// fetch leases the cells its slot asks for, one at a time, until ctx ends.
// A lease taken while the slot's current cell runs is the slot's
// reservation; one still held at the drain is released.
func (w *worker) fetch(ctx context.Context, want <-chan struct{}, leases chan<- *claim, dice *fault.Dice) {
	// A lease request outlives a drain by up to leaseGrace, so that a
	// lease granted in flight is released instead of stranded until it
	// expires.
	rctx, rcancel := context.WithCancel(context.WithoutCancel(ctx))
	defer rcancel()
	stop := context.AfterFunc(ctx, func() { time.AfterFunc(leaseGrace, rcancel) })
	defer stop()
	renew := time.NewTicker(time.Hour) // reset by hold for each lease
	defer renew.Stop()
	var kept *claim
	var rtt time.Duration // smoothed over the fetcher's grants, weight 1/8
	wanted := false
	for ctx.Err() == nil {
		if !wanted {
			select {
			case <-want:
				wanted = true
			case <-ctx.Done():
				continue
			}
		}
		start := time.Now()
		var lease Lease
		err := w.client.do(rctx, http.MethodPost, PathLease, LeaseRequest{Worker: w.name}, &lease)
		switch {
		case errors.Is(err, errNoContent):
			sleepCtx(ctx, jitter(dice, w.cfg.poll())) // nothing queued
		case err != nil:
			if ctx.Err() == nil {
				w.logf("worker %s: lease: %v (retrying)", w.name, err)
			}
			sleepCtx(ctx, jitter(dice, w.cfg.poll()))
		default:
			if took := time.Since(start); rtt == 0 {
				rtt = took
			} else {
				rtt += (took - rtt) / 8
			}
			c := w.claim(ctx, lease)
			c.rtt = rtt
			handed, held := w.hold(c, leases, renew)
			wanted = !handed
			if held {
				kept = c
			}
		}
	}
	w.leasing.Done()
	if kept != nil {
		w.leasing.Wait()
		w.unclaim(kept)
		w.report(w.release(kept.lease), dice)
		w.logf("worker %s: released reserved %s (draining)", w.name, kept.lease.Spec.Key)
	}
}

// hold keeps a lease until the slot takes it through the unbuffered leases
// channel, which is at once unless it is a reservation. It renews the
// lease on every heartbeat tick, since a cell that has not started cannot
// stall. A refused renewal or a superseded claim means the lease expired
// behind the worker's back: the cell is dropped unrun. held is true when
// the worker drains with the lease still held, for the caller to release.
func (w *worker) hold(c *claim, leases chan<- *claim, renew *time.Ticker) (handed, held bool) {
	renew.Reset(c.lease.heartbeatEvery())
	for {
		select {
		case leases <- c:
			return true, false
		case <-renew.C:
			if ok, err := w.heartbeat(c.ctx, c.lease); err == nil && !ok {
				w.unclaim(c)
				w.logf("worker %s: reserved lease on %s lost, dropped", w.name, c.lease.Spec.Key)
				return false, false
			}
		case <-c.ctx.Done():
			if errors.Is(context.Cause(c.ctx), errLeaseLost) {
				w.unclaim(c)
				return false, false
			}
			return false, true
		}
	}
}

// heartbeatEvery is the lease's renewal period (1 s when unset).
func (l Lease) heartbeatEvery() time.Duration {
	if l.HeartbeatEvery <= 0 {
		return time.Second
	}
	return l.HeartbeatEvery
}

// heartbeat renews lease once. ok is false when the coordinator refused:
// the lease is gone. A network error is returned for the caller to
// tolerate — the coordinator expires the lease if the worker stays
// unreachable, which is the designed outcome.
func (w *worker) heartbeat(ctx context.Context, lease Lease) (ok bool, err error) {
	var resp HeartbeatResponse
	err = w.client.do(ctx, http.MethodPost, PathHeartbeat, HeartbeatRequest{
		Worker: w.name, Campaign: lease.Campaign, Key: lease.Spec.Key,
	}, &resp)
	return resp.OK, err
}

// runLease executes one claimed cell through harness.Attempt, in the
// claim's context, under a heartbeat stream that renews the lease while
// the cell makes progress, and returns the report to deliver; ok is false
// when there is none.
func (w *worker) runLease(ctx context.Context, c *claim) (req ResultRequest, ok bool) {
	lease, jctx, cancel := c.lease, c.ctx, c.cancel

	// Heartbeat stream: extend the lease while the cell's simulated cycles
	// move (or before it first reports any). A refused heartbeat or a
	// superseded claim means the lease is gone (expired and requeued) and
	// the cell must be abandoned mid-run. A cell that stops moving is not
	// renewed: its lease expires and the coordinator requeues it as a lost
	// worker's, and the cell is abandoned once the lease has run out.
	hb := &harness.Heartbeat{}
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(lease.heartbeatEvery())
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
				ok, err := w.heartbeat(jctx, lease)
				if err != nil {
					continue
				}
				if !ok {
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
		if f != nil {
			return ResultRequest{}, false
		}
		return w.okReport(lease, result), true
	case ctx.Err() != nil && f != nil:
		// Draining shutdown: hand the lease back without burning budget.
		w.logf("worker %s: released %s (draining)", w.name, key)
		return w.release(lease), true
	case f != nil:
		w.logf("worker %s: %s failed: %v", w.name, key, f.Err)
		return ResultRequest{
			Worker: w.name, Campaign: lease.Campaign, Key: key,
			OK: false, Error: f.Err.Error(), FailKind: f.Kind, Permanent: f.Permanent,
		}, true
	default:
		return w.okReport(lease, result), true
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

// release builds the report that hands a lease back unrun or cancelled.
func (w *worker) release(lease Lease) ResultRequest {
	return ResultRequest{Worker: w.name, Campaign: lease.Campaign, Key: lease.Spec.Key, Released: true}
}

// report delivers a terminal outcome with bounded retries — the result of
// a finished cell is worth a few attempts, but a worker must never wedge
// on an unreachable coordinator (lease expiry covers the loss). Retry
// pacing is jittered from the caller's seeded stream.
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
