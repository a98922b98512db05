package fabric

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mtvp/internal/harness"
)

// fakeClock drives lease expiry deterministically. It is locked because
// end-to-end tests advance it while server goroutines read it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func testSpec(name string, n int) CampaignSpec {
	spec := CampaignSpec{Name: name, Fingerprint: "fp"}
	for i := 0; i < n; i++ {
		spec.Jobs = append(spec.Jobs, JobSpec{
			Key:   fmt.Sprintf("%s/cell-%02d", name, i),
			Bench: "mcf", Preset: "mtvp4", Seed: uint64(i),
		})
	}
	return spec
}

func newTestCoordinator(t *testing.T, clk *fakeClock, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	if clk != nil {
		cfg.Now = clk.now
	}
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co
}

// signedOK builds a success report carrying a valid attestation digest for
// one of the coordinator's cells — what an honest worker sends.
func signedOK(co *Coordinator, worker, campaign, key, payload string) ResultRequest {
	co.mu.Lock()
	spec := co.campaigns[campaign].jobs[key].spec
	co.mu.Unlock()
	res := json.RawMessage(payload)
	return ResultRequest{
		Worker: worker, Campaign: campaign, Key: key,
		OK: true, Result: res, Digest: ResultDigest(campaign, spec, res),
	}
}

func TestSubmitIsIdempotent(t *testing.T) {
	co := newTestCoordinator(t, nil, CoordinatorConfig{})
	spec := testSpec("fig1", 3)
	r1, err := co.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := co.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ID != r2.ID || r1.Attached || !r2.Attached {
		t.Fatalf("resubmit must attach to the same campaign: %+v vs %+v", r1, r2)
	}
	if len(co.List()) != 1 {
		t.Fatalf("want 1 campaign, got %d", len(co.List()))
	}

	// A different fingerprint is a different campaign.
	spec2 := spec
	spec2.Fingerprint = "other"
	r3, err := co.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if r3.ID == r1.ID {
		t.Fatal("different fingerprints must not collide on one campaign ID")
	}
}

func TestSubmitValidation(t *testing.T) {
	co := newTestCoordinator(t, nil, CoordinatorConfig{})
	if _, err := co.Submit(CampaignSpec{Name: "x"}); err == nil {
		t.Error("empty campaign must be rejected")
	}
	spec := testSpec("dup", 2)
	spec.Jobs[1].Key = spec.Jobs[0].Key
	if _, err := co.Submit(spec); err == nil {
		t.Error("duplicate job keys must be rejected")
	}
}

func TestLeaseLifecycleAndExpiry(t *testing.T) {
	clk := newFakeClock()
	co := newTestCoordinator(t, clk, CoordinatorConfig{LeaseTTL: 10 * time.Second, Retries: 1})
	sub, err := co.Submit(testSpec("exp", 1))
	if err != nil {
		t.Fatal(err)
	}
	id := sub.ID
	key := "exp/cell-00"

	lease, ok := co.Lease("w1")
	if !ok || lease.Spec.Key != key || lease.Campaign != id {
		t.Fatalf("bad lease: %+v ok=%v", lease, ok)
	}
	if _, ok := co.Lease("w2"); ok {
		t.Fatal("only one cell: second lease must find nothing")
	}

	// Heartbeats keep the lease alive past its original TTL.
	clk.advance(8 * time.Second)
	if !co.Heartbeat(HeartbeatRequest{Worker: "w1", Campaign: id, Key: key}) {
		t.Fatal("heartbeat from the lease holder must be accepted")
	}
	clk.advance(8 * time.Second)
	if n := co.ExpireLeases(); n != 0 {
		t.Fatalf("heartbeat extended the lease; expired %d", n)
	}

	// Heartbeat loss: the lease expires and the cell requeues once
	// (Retries=1), and the next lease can go to another worker.
	clk.advance(11 * time.Second)
	if n := co.ExpireLeases(); n != 1 {
		t.Fatalf("want 1 expiry, got %d", n)
	}
	if co.Heartbeat(HeartbeatRequest{Worker: "w1", Campaign: id, Key: key}) {
		t.Fatal("heartbeat after expiry must be refused")
	}
	st, _ := co.Status(id)
	if st.Queued != 1 || st.Requeues != 1 || st.State != StateRunning {
		t.Fatalf("cell must requeue after expiry: %+v", st)
	}
	lease2, ok := co.Lease("w2")
	if !ok || lease2.Spec.Key != key {
		t.Fatalf("requeued cell must be leasable by another worker: %+v ok=%v", lease2, ok)
	}

	// Budget exhausted: the second expiry fails the cell permanently with
	// the worker-loss fault class.
	clk.advance(11 * time.Second)
	if n := co.ExpireLeases(); n != 1 {
		t.Fatalf("want 1 expiry, got %d", n)
	}
	st, _ = co.Status(id)
	if st.Failed != 1 || st.State != StateFailed {
		t.Fatalf("budget exhausted must fail the cell: %+v", st)
	}
	res, _ := co.Results(id)
	if len(res.Failures) != 1 || res.Failures[0].Kind != FailLostWorker {
		t.Fatalf("failure must be classified as worker loss: %+v", res.Failures)
	}
	if !strings.Contains(res.Failures[0].Err, `"w2"`) {
		t.Fatalf("failure must name the lost worker: %s", res.Failures[0].Err)
	}
}

func TestDoubleCompletionDedup(t *testing.T) {
	clk := newFakeClock()
	co := newTestCoordinator(t, clk, CoordinatorConfig{LeaseTTL: 10 * time.Second, Retries: 3})
	sub, _ := co.Submit(testSpec("dedup", 1))
	id, key := sub.ID, "dedup/cell-00"

	co.Lease("w1")
	clk.advance(11 * time.Second)
	co.ExpireLeases() // w1 presumed dead, cell requeued
	co.Lease("w2")

	// w2 finishes first.
	r2, err := co.Result(signedOK(co, "w2", id, key, `{"v":2}`))
	if err != nil || !r2.Accepted {
		t.Fatalf("first completion must be accepted: %+v %v", r2, err)
	}
	// The presumed-dead w1 finishes anyway: deduped, first result kept.
	r1, err := co.Result(signedOK(co, "w1", id, key, `{"v":1}`))
	if err != nil || r1.Accepted {
		t.Fatalf("double completion must be deduped: %+v %v", r1, err)
	}
	res, _ := co.Results(id)
	if string(res.Results[key]) != `{"v":2}` {
		t.Fatalf("first result must win, got %s", res.Results[key])
	}
	if res.State != StateComplete {
		t.Fatalf("campaign must be complete, got %s", res.State)
	}
}

// A late success for a cell that was requeued after its lease expired must
// drop the stale queue entry: the cell is done and must never be re-leased,
// re-completed, or double-counted toward campaign completion.
func TestLateSuccessForRequeuedCellDropsQueueEntry(t *testing.T) {
	clk := newFakeClock()
	co := newTestCoordinator(t, clk, CoordinatorConfig{LeaseTTL: 10 * time.Second, Retries: 3})
	sub, _ := co.Submit(testSpec("late", 1))
	id, key := sub.ID, "late/cell-00"

	co.Lease("w1")
	clk.advance(11 * time.Second)
	co.ExpireLeases() // w1 presumed dead, cell back in the queue

	// w1 finishes anyway before anyone re-leases the cell.
	resp, err := co.Result(signedOK(co, "w1", id, key, `{"v":1}`))
	if err != nil || !resp.Accepted {
		t.Fatalf("late success for a queued cell must be accepted: %+v %v", resp, err)
	}
	st, _ := co.Status(id)
	if st.Done != 1 || st.Queued != 0 || st.State != StateComplete {
		t.Fatalf("done cell must leave the queue: %+v", st)
	}

	// The stale queue entry is gone: nothing left to lease, and a second
	// worker finishing the same key is deduped, not double-counted.
	if _, ok := co.Lease("w2"); ok {
		t.Fatal("a done cell must never be re-leased")
	}
	resp, _ = co.Result(signedOK(co, "w2", id, key, `{"v":2}`))
	if resp.Accepted {
		t.Fatal("second completion must be deduped")
	}
	st, _ = co.Status(id)
	if st.Done != 1 || st.State != StateComplete {
		t.Fatalf("completion must not double-count: %+v", st)
	}
	res, _ := co.Results(id)
	if string(res.Results[key]) != `{"v":1}` {
		t.Fatalf("first result must win, got %s", res.Results[key])
	}
}

// A failure report from a worker whose lease already expired must not spend
// the cell's budget, requeue it a second time, or corrupt the bookkeeping of
// the worker that now owns it.
func TestStaleFailureFromExpiredLeaseIsRejected(t *testing.T) {
	clk := newFakeClock()
	co := newTestCoordinator(t, clk, CoordinatorConfig{LeaseTTL: 10 * time.Second, Retries: 3})
	sub, _ := co.Submit(testSpec("stale", 1))
	id, key := sub.ID, "stale/cell-00"

	co.Lease("w1")
	clk.advance(11 * time.Second)
	co.ExpireLeases() // requeue #1
	co.Lease("w2")    // cell now belongs to w2

	resp, err := co.Result(ResultRequest{Worker: "w1", Campaign: id, Key: key, OK: false, Error: "boom"})
	if err != nil || resp.Accepted {
		t.Fatalf("stale failure must be rejected: %+v %v", resp, err)
	}
	// w2 still owns the lease and can finish normally.
	if !co.Heartbeat(HeartbeatRequest{Worker: "w2", Campaign: id, Key: key}) {
		t.Fatal("stale failure must not revoke the current lease")
	}
	st, _ := co.Status(id)
	if st.Leased != 1 || st.Queued != 0 || st.Requeues != 1 {
		t.Fatalf("stale failure must not requeue or spend budget: %+v", st)
	}
	resp, _ = co.Result(signedOK(co, "w2", id, key, `1`))
	if !resp.Accepted {
		t.Fatal("owner's result must be accepted")
	}
	st, _ = co.Status(id)
	if st.State != StateComplete || st.Done != 1 || st.Failed != 0 {
		t.Fatalf("campaign must complete cleanly: %+v", st)
	}
}

// A late success for a cell that already exhausted its budget revives it —
// and the Done/Failed counters must stay consistent (never Done+Failed >
// Total, never a StateFailed campaign stuck with a usable result).
func TestLateSuccessRevivesFailedCell(t *testing.T) {
	clk := newFakeClock()
	co := newTestCoordinator(t, clk, CoordinatorConfig{LeaseTTL: 10 * time.Second, Retries: 1})
	sub, _ := co.Submit(testSpec("revive", 1))
	id, key := sub.ID, "revive/cell-00"

	for _, w := range []string{"w1", "w2"} {
		co.Lease(w)
		clk.advance(11 * time.Second)
		co.ExpireLeases()
	}
	st, _ := co.Status(id)
	if st.State != StateFailed || st.Failed != 1 {
		t.Fatalf("budget must be exhausted first: %+v", st)
	}

	resp, err := co.Result(signedOK(co, "w1", id, key, `{"v":1}`))
	if err != nil || !resp.Accepted {
		t.Fatalf("late success must revive a failed cell: %+v %v", resp, err)
	}
	st, _ = co.Status(id)
	if st.Done != 1 || st.Failed != 0 || st.State != StateComplete {
		t.Fatalf("revival must rebalance the counters: %+v", st)
	}
	res, _ := co.Results(id)
	if len(res.Failures) != 0 || string(res.Results[key]) != `{"v":1}` {
		t.Fatalf("revived cell must report its result, not a failure: %+v", res)
	}
}

func TestReleasedHandbackSkipsBudget(t *testing.T) {
	clk := newFakeClock()
	co := newTestCoordinator(t, clk, CoordinatorConfig{LeaseTTL: 10 * time.Second, Retries: 1})
	sub, _ := co.Submit(testSpec("rel", 1))
	id, key := sub.ID, "rel/cell-00"

	// Release (drain) many times: never burns the retry budget.
	for i := 0; i < 5; i++ {
		if _, ok := co.Lease("w1"); !ok {
			t.Fatalf("round %d: lease refused", i)
		}
		resp, err := co.Result(ResultRequest{Worker: "w1", Campaign: id, Key: key, Released: true})
		if err != nil || !resp.Accepted {
			t.Fatalf("round %d: release refused: %+v %v", i, resp, err)
		}
	}
	st, _ := co.Status(id)
	if st.Failed != 0 || st.Queued != 1 || st.Requeues != 5 {
		t.Fatalf("releases must requeue without failing: %+v", st)
	}

	// Released grants are not attempts: the two failures Retries 1 allows
	// end in a record of 2 attempts, as harness.Run would report.
	for i := 0; i < 2; i++ {
		co.Lease("w1")
		co.Result(ResultRequest{Worker: "w1", Campaign: id, Key: key, Error: "boom"})
	}
	res, _ := co.Results(id)
	if len(res.Failures) != 1 || res.Failures[0].Attempts != 2 {
		t.Fatalf("released leases counted as attempts: %+v", res.Failures)
	}
}

func TestReportedFailureSpendsBudget(t *testing.T) {
	co := newTestCoordinator(t, nil, CoordinatorConfig{Retries: 2})
	sub, _ := co.Submit(testSpec("fail", 1))
	id, key := sub.ID, "fail/cell-00"

	for i := 0; i < 2; i++ {
		co.Lease("w1")
		co.Result(ResultRequest{Worker: "w1", Campaign: id, Key: key, OK: false, Error: "boom", FailKind: harness.FailPanic})
		st, _ := co.Status(id)
		if st.Queued != 1 {
			t.Fatalf("retry %d must requeue: %+v", i, st)
		}
	}
	co.Lease("w1")
	co.Result(ResultRequest{Worker: "w1", Campaign: id, Key: key, OK: false, Error: "boom", FailKind: harness.FailPanic})
	st, _ := co.Status(id)
	if st.State != StateFailed || st.Failed != 1 {
		t.Fatalf("exhausted budget must fail the campaign: %+v", st)
	}
	res, _ := co.Results(id)
	if len(res.Failures) != 1 || res.Failures[0].Kind != harness.FailPanic || res.Failures[0].Attempts != 3 {
		t.Fatalf("failure record wrong: %+v", res.Failures)
	}
}

// Campaigns are served in submission order: a later campaign's cells wait
// until the earlier campaign's queue is empty.
func TestLeasesFollowSubmissionOrder(t *testing.T) {
	co := newTestCoordinator(t, nil, CoordinatorConfig{})
	a, _ := co.Submit(testSpec("first", 2))
	b, _ := co.Submit(testSpec("second", 2))

	var got []string
	for i := 0; i < 4; i++ {
		lease, ok := co.Lease("w")
		if !ok {
			t.Fatalf("lease %d refused", i)
		}
		got = append(got, lease.Campaign)
	}
	want := []string{a.ID, a.ID, b.ID, b.ID}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lease order not submission order: got %v", got)
		}
	}
}

// A heartbeat extends only a lease its sender still holds: it is refused
// once the lease has expired, from the old holder after the cell is
// re-leased, and after the cell completes.
func TestHeartbeatRefusedWithoutLiveLease(t *testing.T) {
	clk := newFakeClock()
	co := newTestCoordinator(t, clk, CoordinatorConfig{LeaseTTL: time.Minute})
	sub, _ := co.Submit(testSpec("beat", 1))
	id := sub.ID
	key := "beat/cell-00"
	beat := func(worker string) bool {
		return co.Heartbeat(HeartbeatRequest{Worker: worker, Campaign: id, Key: key})
	}

	co.Lease("w1")
	if !beat("w1") {
		t.Fatal("heartbeat on a live lease must be accepted")
	}

	clk.advance(2 * time.Minute)
	co.ExpireLeases()
	if beat("w1") {
		t.Fatal("heartbeat on an expired lease must be refused")
	}

	if _, ok := co.Lease("w2"); !ok {
		t.Fatal("requeued cell must lease again")
	}
	if !beat("w2") {
		t.Fatal("the new holder's heartbeat must be accepted")
	}
	if beat("w1") {
		t.Fatal("the old holder's heartbeat must stay refused")
	}

	if resp, _ := co.Result(signedOK(co, "w2", id, key, `1`)); !resp.Accepted {
		t.Fatal("result refused")
	}
	if beat("w2") {
		t.Fatal("heartbeat after completion must be refused")
	}
}

// A coordinator restarted on its journal directory resumes every campaign:
// done cells keep their journaled results, unfinished cells requeue.
func TestCoordinatorRestartResumes(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	co := newTestCoordinator(t, clk, CoordinatorConfig{JournalDir: dir, Retries: 3})
	sub, err := co.Submit(testSpec("restart", 4))
	if err != nil {
		t.Fatal(err)
	}
	id := sub.ID

	// Finish two cells, lease (but don't finish) a third, then "crash".
	for i := 0; i < 2; i++ {
		lease, ok := co.Lease("w1")
		if !ok {
			t.Fatal("lease refused")
		}
		co.Result(signedOK(co, "w1", id, lease.Spec.Key, fmt.Sprintf(`{"cell":%q}`, lease.Spec.Key)))
	}
	co.Lease("w1")
	co.Close()

	// Restart on the same directory.
	co2 := newTestCoordinator(t, clk, CoordinatorConfig{JournalDir: dir, Retries: 3})
	st, err := co2.Status(id)
	if err != nil {
		t.Fatalf("campaign must survive the restart: %v", err)
	}
	if st.Done != 2 || st.Queued != 2 || st.State != StateRunning {
		t.Fatalf("restart state wrong: %+v", st)
	}
	res, _ := co2.Results(id)
	if string(res.Results["restart/cell-00"]) != `{"cell":"restart/cell-00"}` {
		t.Fatalf("journaled result lost: %s", res.Results["restart/cell-00"])
	}

	// Resubmitting the same spec attaches instead of duplicating.
	r, err := co2.Submit(testSpec("restart", 4))
	if err != nil || !r.Attached || r.ID != id {
		t.Fatalf("resubmit after restart must attach: %+v %v", r, err)
	}

	// Finish the remaining cells.
	for {
		lease, ok := co2.Lease("w2")
		if !ok {
			break
		}
		co2.Result(signedOK(co2, "w2", id, lease.Spec.Key, fmt.Sprintf(`{"cell":%q}`, lease.Spec.Key)))
	}
	st, _ = co2.Status(id)
	if st.State != StateComplete || st.Done != 4 {
		t.Fatalf("campaign must complete after restart: %+v", st)
	}
}
