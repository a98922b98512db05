package fabric

// Worker pipelining: after a short cell, each slot's fetcher holds the
// next cell's lease in reserve while the current cell runs, and a finished
// cell's report is delivered in the background. These tests pin what a
// reservation and an asynchronous report may and may not do, on a real
// coordinator over HTTP. A reservation is only taken behind a cell that
// follows a short one, so most tests open with a cell that returns at once.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// hookProxy forwards to target, first offering every request to hook with
// its body; hook answers the request itself by returning true.
func hookProxy(t *testing.T, target string, hook func(w http.ResponseWriter, r *http.Request, body []byte) bool) string {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	ps := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		if !hook(w, r, body) {
			rp.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(ps.Close)
	return ps.URL
}

// requestKey returns the cell key a heartbeat or result body names, or ""
// for a body that is not one.
func requestKey(body []byte) string {
	var req struct {
		Key string `json:"key"`
	}
	_ = json.Unmarshal(body, &req)
	return req.Key
}

// attemptsOf reads a cell's grant count from the coordinator.
func attemptsOf(co *Coordinator, id, key string) int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.campaigns[id].jobs[key].attempts
}

// retriedOf reads the retry budget a cell has spent.
func retriedOf(co *Coordinator, id, key string) int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.campaigns[id].jobs[key].retried
}

// blockAfterFirst runs a campaign's first cell at once and blocks every
// other cell until it is cancelled.
func blockAfterFirst(spec CampaignSpec) RunFunc {
	return func(ctx context.Context, s JobSpec, progress func(uint64, uint64)) (json.RawMessage, error) {
		if s.Key == spec.Jobs[0].Key {
			return detRun(ctx, s, progress)
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

// A cell that runs for four lease TTLs, with the next cell reserved behind
// it the whole time, completes; the reservation is renewed, so neither
// lease expires.
func TestReservationOutlivesLongCell(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	co, srv := startServer(t, CoordinatorConfig{LeaseTTL: 300 * time.Millisecond, Retries: 1},
		ServerConfig{ExpireEvery: 20 * time.Millisecond})
	spec := testSpec("reserve", 3)
	id := CampaignID(spec)
	var reservedAtEnd atomic.Bool
	startWorker(t, srv.URL(), "", "w", 1, func(ctx context.Context, s JobSpec, progress func(uint64, uint64)) (json.RawMessage, error) {
		if s.Key == spec.Jobs[1].Key {
			for i := uint64(1); i <= 120; i++ {
				progress(i, 0)
				time.Sleep(10 * time.Millisecond)
			}
			st, _ := co.Status(id)
			reservedAtEnd.Store(st.Leased == 2)
		}
		return detRun(ctx, s, progress)
	})
	res, _ := runCampaign(t, srv.URL(), "", spec)
	st, _ := co.Status(id)
	if res.State != StateComplete || st.Requeues != 0 {
		t.Fatalf("both cells must complete without a requeue: %+v %+v", st, res)
	}
	if !reservedAtEnd.Load() {
		t.Fatal("the second cell was not reserved while the first ran")
	}
}

// A drain while a reservation is held hands both leases back as releases:
// nothing fails, even on a budget of one retry, and a successor finishes
// both cells.
func TestDrainReleasesReservation(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	co, srv := startServer(t, CoordinatorConfig{LeaseTTL: 5 * time.Second, Retries: 1},
		ServerConfig{ExpireEvery: 50 * time.Millisecond})
	spec := testSpec("drain2", 3)
	sub, err := co.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cancel := startWorker(t, srv.URL(), "", "leaver", 1, blockAfterFirst(spec))
	waitFor(t, "a running and a reserved lease", func() bool {
		st, _ := co.Status(sub.ID)
		return st.Done == 1 && st.Leased == 2
	})
	cancel()
	waitFor(t, "both leases handed back", func() bool {
		st, _ := co.Status(sub.ID)
		return st.Queued == 2 && st.Leased == 0
	})
	if st, _ := co.Status(sub.ID); st.Failed != 0 || st.Requeues != 2 {
		t.Fatalf("a drain must release both leases without spending budget: %+v", st)
	}
	startWorker(t, srv.URL(), "", "successor", 1, detRun)
	waitFor(t, "the successor to finish the campaign", func() bool {
		st, _ := co.Status(sub.ID)
		return st.State == StateComplete
	})
}

// A reservation whose lease expires behind the worker's back (its renewals
// cannot reach the coordinator) is dropped at the first refused renewal
// and never run: the cell runs once, under a fresh lease.
func TestExpiredReservationIsDropped(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	co, srv := startServer(t, CoordinatorConfig{LeaseTTL: 300 * time.Millisecond, Retries: 3},
		ServerConfig{ExpireEvery: 20 * time.Millisecond})
	spec := testSpec("stale", 3)
	id := CampaignID(spec)
	first, second := spec.Jobs[1].Key, spec.Jobs[2].Key
	var partitioned atomic.Bool
	partitioned.Store(true)
	via := hookProxy(t, srv.URL(), func(w http.ResponseWriter, r *http.Request, body []byte) bool {
		if r.URL.Path == PathHeartbeat && partitioned.Load() && requestKey(body) == second {
			http.Error(w, "partitioned", http.StatusBadGateway)
			return true
		}
		return false
	})

	release := make(chan struct{})
	var runs, grantsAtRun atomic.Int64
	startWorker(t, via, "", "w", 1, func(ctx context.Context, s JobSpec, progress func(uint64, uint64)) (json.RawMessage, error) {
		switch s.Key {
		case first:
			select {
			case <-release:
			case <-ctx.Done():
			}
		case second:
			runs.Add(1)
			grantsAtRun.Store(int64(attemptsOf(co, id, second)))
		}
		return detRun(ctx, s, progress)
	})
	if _, err := co.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the reservation to expire", func() bool {
		st, _ := co.Status(id)
		return st.Requeues == 1
	})
	partitioned.Store(false)
	waitFor(t, "a fresh reservation", func() bool { return attemptsOf(co, id, second) == 2 })
	close(release)

	res, _ := runCampaign(t, srv.URL(), "", spec)
	if res.State != StateComplete {
		t.Fatalf("campaign must complete: %+v", res)
	}
	if runs.Load() != 1 || grantsAtRun.Load() != 2 {
		t.Fatalf("reserved cell ran %d time(s), first at grant %d; want once, under the fresh grant 2",
			runs.Load(), grantsAtRun.Load())
	}
}

// A worker that dies holding a running and a reserved lease (its requests
// stop arriving, as after SIGKILL) loses both to expiry, and the
// coordinator, which cannot tell a reservation from a running lease,
// charges both cells a retry as lost-worker: the reserved cell spends
// budget although it never ran. Released leases, unlike these, are free.
func TestKilledWorkerChargesReservation(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	co, srv := startServer(t, CoordinatorConfig{LeaseTTL: 300 * time.Millisecond, Retries: 1},
		ServerConfig{ExpireEvery: 20 * time.Millisecond})
	spec := testSpec("killed", 3)
	id := CampaignID(spec)
	running, reserved := spec.Jobs[1].Key, spec.Jobs[2].Key
	var killed atomic.Bool
	via := hookProxy(t, srv.URL(), func(w http.ResponseWriter, _ *http.Request, _ []byte) bool {
		if killed.Load() {
			http.Error(w, "unreachable", http.StatusBadGateway)
			return true
		}
		return false
	})
	if _, err := co.Submit(spec); err != nil {
		t.Fatal(err)
	}
	startWorker(t, via, "", "victim", 1, blockAfterFirst(spec))
	waitFor(t, "a running and a reserved lease", func() bool {
		st, _ := co.Status(id)
		return st.Done == 1 && st.Leased == 2
	})
	killed.Store(true)
	waitFor(t, "both leases to expire", func() bool {
		st, _ := co.Status(id)
		return st.Requeues == 2
	})
	if st, _ := co.Status(id); st.Failed != 0 {
		t.Fatalf("one retry covers one loss: %+v", st)
	}
	for _, key := range []string{running, reserved} {
		if got := retriedOf(co, id, key); got != 1 {
			t.Errorf("%s: spent %d retries on the lost worker, want 1", key, got)
		}
	}

	startWorker(t, srv.URL(), "", "successor", 1, detRun)
	res, _ := runCampaign(t, srv.URL(), "", spec)
	if res.State != StateComplete {
		t.Fatalf("campaign must complete: %+v", res)
	}
	if got := attemptsOf(co, id, reserved); got != 2 {
		t.Fatalf("the reserved cell completes on attempt %d, want 2 (its lost grant counts)", got)
	}
}

// A slot's first cell never has another reserved behind it: two cells
// that each run until both have started finish on two single-slot
// workers, where a reservation would hold the second cell behind the first
// on one worker while the other sits idle.
func TestFirstCellReservesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	co, srv := startServer(t, CoordinatorConfig{}, ServerConfig{})
	spec := testSpec("spread", 2)
	var started atomic.Int64
	both := make(chan struct{})
	run := func(ctx context.Context, s JobSpec, progress func(uint64, uint64)) (json.RawMessage, error) {
		if started.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return detRun(ctx, s, progress)
	}
	startWorker(t, srv.URL(), "", "a", 1, run)
	startWorker(t, srv.URL(), "", "b", 1, run)
	done := make(chan CampaignResults, 1)
	go func() {
		res, _ := runCampaign(t, srv.URL(), "", spec)
		done <- res
	}()
	select {
	case res := <-done:
		if st, _ := co.Status(CampaignID(spec)); res.State != StateComplete || st.Requeues != 0 {
			t.Fatalf("both cells must complete without a requeue: %+v %+v", st, res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("one worker reserved the second cell behind its first")
	}
}

// A lease request that hangs at a drain holds the drain's releases up for
// at most leaseGrace, not for the client's timeout.
func TestDrainBoundsHangingLease(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	co, srv := startServer(t, CoordinatorConfig{LeaseTTL: time.Minute}, ServerConfig{})
	spec := testSpec("hang", 3)
	id := CampaignID(spec)
	var leases atomic.Int64
	via := hookProxy(t, srv.URL(), func(_ http.ResponseWriter, r *http.Request, _ []byte) bool {
		if r.URL.Path == PathLease && leases.Add(1) > 2 {
			<-r.Context().Done() // the lease request behind the running cell hangs
			return true
		}
		return false
	})
	if _, err := co.Submit(spec); err != nil {
		t.Fatal(err)
	}
	cancel := startWorker(t, via, "", "w", 1, blockAfterFirst(spec))
	waitFor(t, "a lease request to hang behind the running cell", func() bool {
		st, _ := co.Status(id)
		return st.Leased == 1 && leases.Load() == 3
	})
	drained := time.Now()
	cancel()
	waitFor(t, "the running cell's release", func() bool {
		st, _ := co.Status(id)
		return st.Leased == 0
	})
	if took := time.Since(drained); took > leaseGrace+time.Second {
		t.Fatalf("the release took %v after the drain, want under %v", took, leaseGrace+time.Second)
	}
}

// RunWorker returns only once the report in flight at a drain has been
// delivered.
func TestRunWorkerWaitsForReports(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	co, srv := startServer(t, CoordinatorConfig{}, ServerConfig{})
	arrived, gate := make(chan struct{}), make(chan struct{})
	var once atomic.Bool
	via := hookProxy(t, srv.URL(), func(_ http.ResponseWriter, r *http.Request, _ []byte) bool {
		if r.URL.Path == PathResult && once.CompareAndSwap(false, true) {
			close(arrived)
			<-gate
		}
		return false
	})
	sub, err := co.Submit(testSpec("late", 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		RunWorker(ctx, WorkerConfig{Coordinator: via, Name: "w", Slots: 1, Poll: 10 * time.Millisecond, Run: detRun})
	}()
	<-arrived
	cancel()
	select {
	case <-returned:
		t.Error("RunWorker returned with a report in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("RunWorker did not return after its report was delivered")
	}
	if st, _ := co.Status(sub.ID); st.State != StateComplete {
		t.Fatalf("the report in flight was not delivered: %+v", st)
	}
}

// The fetcher polls an empty queue while the reporter retries a refused
// report: both draw jitter at once. Under -race this fails if any two
// goroutines of a worker share a fault.Dice.
func TestWorkerJitterStreamsArePrivate(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	co, srv := startServer(t, CoordinatorConfig{}, ServerConfig{})
	var refused atomic.Int64
	via := hookProxy(t, srv.URL(), func(w http.ResponseWriter, r *http.Request, _ []byte) bool {
		if r.URL.Path == PathResult && refused.Add(1) <= 2 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return true
		}
		return false
	})
	startWorker(t, via, "", "w", 2, detRun)
	spec := testSpec("jitter", 4)
	res, _ := runCampaign(t, srv.URL(), "", spec)
	if st, _ := co.Status(CampaignID(spec)); res.State != StateComplete || refused.Load() < 2 {
		t.Fatalf("campaign must complete after refused reports: %+v, %d refusals", st, refused.Load())
	}
}
