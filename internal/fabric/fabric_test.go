package fabric

// End-to-end tests: a real coordinator server, real worker agents, real
// HTTP in between. The RunFunc is a deterministic stand-in for the
// simulator (a pure function of the spec), which is exactly the property
// the fabric relies on for byte-identical reports.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"mtvp/internal/harness"
)

// detRun computes a result purely from the spec — the distributed analogue
// of the deterministic simulator.
func detRun(_ context.Context, spec JobSpec, _ func(uint64, uint64)) (json.RawMessage, error) {
	return json.RawMessage(fmt.Sprintf(`{"key":%q,"ipc":%d.5}`, spec.Key, spec.Seed)), nil
}

func startServer(t *testing.T, cfg CoordinatorConfig, scfg ServerConfig) (*Coordinator, *Server) {
	t.Helper()
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Addr = "127.0.0.1:0"
	srv, err := NewServer(co, scfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); co.Close() })
	return co, srv
}

func startWorker(t *testing.T, url, token, name string, slots int, run RunFunc) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(ctx, WorkerConfig{
			Coordinator: url, Token: token, Name: name, Slots: slots,
			Poll: 10 * time.Millisecond, Run: run,
		})
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("worker failed to drain")
		}
	})
	return cancel
}

// runCampaign submits spec, waits for it, and returns the canonical JSON
// encoding of the results payload (the "report bytes").
func runCampaign(t *testing.T, url, token string, spec CampaignSpec) (CampaignResults, []byte) {
	t.Helper()
	cl := NewClient(url, token)
	cl.Poll = 20 * time.Millisecond
	sub, err := cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := cl.Wait(ctx, sub.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Canonicalise: strip the campaign ID (scenarios use distinct names so
	// they can coexist on one coordinator) and marshal results + failures.
	// Go maps marshal with sorted keys, so this is deterministic.
	blob, err := json.Marshal(struct {
		Results  any `json:"results"`
		Failures any `json:"failures"`
	}{res.Results, res.Failures})
	if err != nil {
		t.Fatal(err)
	}
	return res, blob
}

func TestServerRejectsBadToken(t *testing.T) {
	_, srv := startServer(t, CoordinatorConfig{}, ServerConfig{Token: "sekrit"})

	for _, tc := range []struct {
		name, token string
		wantStatus  int
	}{
		{"no token", "", http.StatusUnauthorized},
		{"wrong token", "wrong", http.StatusUnauthorized},
		{"good token", "sekrit", http.StatusOK},
	} {
		cl := NewClient(srv.URL(), tc.token)
		req, _ := http.NewRequest(http.MethodGet, srv.URL()+PathCampaigns, nil)
		if cl.token != "" {
			req.Header.Set("Authorization", "Bearer "+cl.token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: got %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
	}

	// /healthz stays open (load balancers probe it unauthenticated).
	resp, err := http.Get(srv.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz must not require auth, got %d", resp.StatusCode)
	}
}

// The worker-loss chaos test: the same campaign runs (a) on one worker,
// (b) on four workers, (c) on three workers plus a zombie that grabs
// leases and goes silent mid-cell. All three produce byte-identical
// results.
func TestWorkerLossYieldsByteIdenticalResults(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	cfg := CoordinatorConfig{LeaseTTL: 300 * time.Millisecond, Retries: 5}
	scfg := ServerConfig{Token: "t", ExpireEvery: 20 * time.Millisecond}

	spec := func(name string) CampaignSpec {
		s := CampaignSpec{Name: name, Fingerprint: "insts=3000 seed=1"}
		for i := 0; i < 10; i++ {
			s.Jobs = append(s.Jobs, JobSpec{
				Key:   fmt.Sprintf("chaos/bench-%02d/mtvp4", i),
				Bench: fmt.Sprintf("bench-%02d", i), Preset: "mtvp4", Seed: uint64(i),
			})
		}
		return s
	}

	// (a) One worker.
	_, srvA := startServer(t, cfg, scfg)
	startWorker(t, srvA.URL(), "t", "solo", 1, detRun)
	resA, blobA := runCampaign(t, srvA.URL(), "t", spec("solo-run"))
	if resA.State != StateComplete {
		t.Fatalf("solo run must complete: %+v", resA)
	}

	// (b) Four workers.
	_, srvB := startServer(t, cfg, scfg)
	for i := 0; i < 4; i++ {
		startWorker(t, srvB.URL(), "t", fmt.Sprintf("fleet-%d", i), 1, detRun)
	}
	_, blobB := runCampaign(t, srvB.URL(), "t", spec("fleet-run"))

	// (c) Three workers plus a zombie: before the survivors attach, the
	// zombie leases three cells over HTTP and goes silent — a hard-killed
	// process mid-lease. Lease expiry must recover every cell it swallowed
	// (the submit the client sends later attaches to this same campaign:
	// IDs are deterministic).
	coC, srvC := startServer(t, cfg, scfg)
	zcl := NewClient(srvC.URL(), "t")
	if _, err := zcl.Submit(context.Background(), spec("chaos-run")); err != nil {
		t.Fatal(err)
	}
	var swallowed int
	for i := 0; i < 3; i++ {
		var lease Lease
		if err := zcl.do(context.Background(), http.MethodPost, PathLease, LeaseRequest{Worker: "zombie"}, &lease); err != nil {
			t.Fatalf("zombie lease %d: %v", i, err)
		}
		swallowed++
	}
	for i := 0; i < 3; i++ {
		startWorker(t, srvC.URL(), "t", fmt.Sprintf("survivor-%d", i), 1, detRun)
	}
	resC, blobC := runCampaign(t, srvC.URL(), "t", spec("chaos-run"))
	if resC.State != StateComplete {
		t.Fatalf("chaos run must still complete: %+v", resC)
	}
	if swallowed != 3 {
		t.Fatalf("zombie swallowed %d leases, want 3", swallowed)
	}
	st, _ := coC.Status(CampaignID(spec("chaos-run")))
	if st.Requeues < 3 {
		t.Fatalf("the 3 swallowed leases must show up as requeues: %+v", st)
	}

	if string(blobA) != string(blobB) {
		t.Errorf("1-worker and 4-worker results differ:\n%s\n%s", blobA, blobB)
	}
	if string(blobA) != string(blobC) {
		t.Errorf("chaos results differ from solo results:\n%s\n%s", blobA, blobC)
	}
}

// A draining worker (context cancelled mid-cell, the SIGTERM path) hands
// its lease back without spending retry budget, and a successor finishes
// the cell.
func TestDrainingWorkerReleasesLease(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	co, srv := startServer(t, CoordinatorConfig{LeaseTTL: 5 * time.Second, Retries: 1},
		ServerConfig{ExpireEvery: 50 * time.Millisecond})
	sub, err := co.Submit(testSpec("drain", 1))
	if err != nil {
		t.Fatal(err)
	}

	// The first worker blocks until cancelled — it can only ever drain.
	started := make(chan struct{}, 1)
	blockRun := func(ctx context.Context, _ JobSpec, _ func(uint64, uint64)) (json.RawMessage, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	cancel := startWorker(t, srv.URL(), "", "leaver", 1, blockRun)
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the cell")
	}
	cancel() // SIGTERM analogue: drain

	// The handback must arrive as a release (requeue, no budget spent).
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := co.Status(sub.ID)
		if st.Queued == 1 && st.Requeues == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never handed back: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := co.Status(sub.ID)
	if st.Failed != 0 {
		t.Fatalf("voluntary release must not spend budget: %+v", st)
	}

	// A successor picks it up and completes the campaign, despite the
	// Retries=1 budget (the release did not consume it).
	startWorker(t, srv.URL(), "", "successor", 1, detRun)
	for {
		st, _ := co.Status(sub.ID)
		if st.State == StateComplete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("successor never finished the cell: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A worker whose lease expires mid-run (coordinator presumed it dead, e.g.
// a network partition) is told so by its next heartbeat and abandons the
// cell instead of wasting the slot.
func TestHeartbeatRefusalAbandonsCell(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	clk := newFakeClock()
	co, srv := startServer(t, CoordinatorConfig{LeaseTTL: 200 * time.Millisecond, Retries: 2, Now: clk.now},
		ServerConfig{ExpireEvery: time.Hour}) // expiry driven manually below
	sub, err := co.Submit(testSpec("partition", 1))
	if err != nil {
		t.Fatal(err)
	}

	abandoned := make(chan struct{})
	slowRun := func(ctx context.Context, _ JobSpec, _ func(uint64, uint64)) (json.RawMessage, error) {
		<-ctx.Done() // never finishes on its own
		close(abandoned)
		return nil, ctx.Err()
	}
	startWorker(t, srv.URL(), "", "victim", 1, slowRun)

	// Wait for the lease, then expire it behind the worker's back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := co.Status(sub.ID)
		if st.Leased == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never leased the cell")
		}
		time.Sleep(10 * time.Millisecond)
	}
	clk.advance(time.Second)
	if n := co.ExpireLeases(); n != 1 {
		t.Fatalf("want 1 expiry, got %d", n)
	}

	// The worker's next heartbeat is refused and the run context cancelled.
	select {
	case <-abandoned:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never abandoned the lost lease")
	}
}

// A remote cell whose run reports a permanent error (an oracle divergence
// in the sweeps) runs exactly once: the worker tells the coordinator the
// failure is permanent, and harness.Retry refuses to requeue it.
func TestRemotePermanentFailureRunsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	co, srv := startServer(t, CoordinatorConfig{Retries: 3}, ServerConfig{})
	var runs atomic.Int64
	startWorker(t, srv.URL(), "", "w", 1, func(context.Context, JobSpec, func(uint64, uint64)) (json.RawMessage, error) {
		runs.Add(1)
		return nil, harness.Permanent(errors.New("committed a wrong value"))
	})
	spec := testSpec("permanent", 1)
	res, _ := runCampaign(t, srv.URL(), "", spec)
	st, _ := co.Status(CampaignID(spec))
	if n := runs.Load(); n != 1 || st.Requeues != 0 {
		t.Fatalf("permanent failure ran %d times with %d requeues, want 1 and 0", n, st.Requeues)
	}
	if res.State != StateFailed || len(res.Failures) != 1 ||
		res.Failures[0].Kind != harness.FailError || res.Failures[0].Attempts != 1 {
		t.Fatalf("want one failed cell (error, 1 attempt): %+v", res)
	}
}

// A remote cell whose simulated cycles stop moving on a live worker loses
// its lease: the worker stops renewing it, the coordinator expires and
// requeues the cell as a lost worker's, and the worker abandons the run.
// With Retries 1 the second wedge fails the cell.
func TestStalledRemoteCellLosesLease(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	co, srv := startServer(t, CoordinatorConfig{LeaseTTL: 300 * time.Millisecond, Retries: 1},
		ServerConfig{ExpireEvery: 20 * time.Millisecond})
	var abandoned atomic.Int64
	startWorker(t, srv.URL(), "", "w", 1, func(ctx context.Context, _ JobSpec, progress func(uint64, uint64)) (json.RawMessage, error) {
		// Advance, then wedge: the cycle count stops while the run goes on.
		for cycles := uint64(1); cycles <= 3; cycles++ {
			if progress != nil {
				progress(cycles*1024, 0)
			}
		}
		<-ctx.Done()
		abandoned.Add(1)
		return nil, ctx.Err()
	})
	spec := testSpec("wedge", 1)
	res, _ := runCampaign(t, srv.URL(), "", spec)
	st, _ := co.Status(CampaignID(spec))
	if st.Requeues != 1 || res.State != StateFailed || len(res.Failures) != 1 || res.Failures[0].Kind != FailLostWorker {
		t.Fatalf("wedged cell must expire, requeue once, then fail as a lost worker: %+v %+v", st, res)
	}
	deadline := time.Now().Add(5 * time.Second)
	for abandoned.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never abandoned the wedged cell")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Both campaign executors run a cell under one contract: the same error,
// panic and permanent cells fail with the same kind after the same number
// of attempts on harness.Run and on a coordinator with a worker.
func TestExecutorsAgreeOnFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	const retries = 2
	cells := []struct {
		key      string
		run      func() error
		kind     harness.FailKind
		attempts int
	}{
		{"agree/error", func() error { return errors.New("flaky host") }, harness.FailError, 1 + retries},
		{"agree/panic", func() error { panic("injected panic") }, harness.FailPanic, 1 + retries},
		{"agree/permanent", func() error { return harness.Permanent(errors.New("divergence")) }, harness.FailError, 1},
	}
	byKey := map[string]func() error{}
	var jobs []harness.Job[int]
	spec := CampaignSpec{Name: "agree", Fingerprint: "fp"}
	for _, c := range cells {
		run := c.run
		byKey[c.key] = run
		jobs = append(jobs, harness.Job[int]{Key: c.key, Run: func(context.Context, *harness.Heartbeat) (int, error) {
			return 0, run()
		}})
		spec.Jobs = append(spec.Jobs, JobSpec{Key: c.key, Bench: "mcf", Preset: "mtvp4"})
	}

	camp, err := harness.Run(context.Background(), harness.Config{Workers: 1, Retries: retries}, jobs)
	if err == nil {
		t.Fatal("harness.Run: every cell must fail")
	}
	_, srv := startServer(t, CoordinatorConfig{Retries: retries}, ServerConfig{})
	startWorker(t, srv.URL(), "", "w", 1, func(_ context.Context, spec JobSpec, _ func(uint64, uint64)) (json.RawMessage, error) {
		return nil, byKey[spec.Key]()
	})
	res, _ := runCampaign(t, srv.URL(), "", spec)

	for name, failures := range map[string][]harness.JobFailure{"local": camp.Summary.Failures, "remote": res.Failures} {
		got := map[string]harness.JobFailure{}
		for _, f := range failures {
			got[f.Key] = f
		}
		for _, c := range cells {
			f, ok := got[c.key]
			if !ok || f.Kind != c.kind || f.Attempts != c.attempts {
				t.Errorf("%s %s: failure %+v, want kind %s after %d attempt(s)", name, c.key, f, c.kind, c.attempts)
			}
		}
	}
}
