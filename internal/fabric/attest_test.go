package fabric

// Attestation and outside-input tests: corrupt results are rejected and
// requeued at no budget cost, journal reload re-verifies digests, request
// bodies are capped, and an honest fleet behind a seeded lossy network
// still produces a byte-identical campaign report.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mtvp/internal/fabric/chaos"
	"mtvp/internal/telemetry"
)

// A result whose digest does not verify is rejected before the journal and
// requeues its cell without spending retry budget; an honest result then
// completes the cell.
func TestCorruptResultRequeuesWithoutBudget(t *testing.T) {
	clk := newFakeClock()
	reg := telemetry.NewRegistry()
	co := newTestCoordinator(t, clk, CoordinatorConfig{LeaseTTL: 10 * time.Second, Retries: 1, Registry: reg})
	sub, _ := co.Submit(testSpec("corrupt", 1))
	id, key := sub.ID, "corrupt/cell-00"

	// Two corrupt results through two fresh leases: one with a payload that
	// does not match its digest, one with a bogus digest. Retries=1, so if
	// the rejections charged the budget the cell would be failed by now.
	for i := 0; i < 2; i++ {
		if _, ok := co.Lease("w1"); !ok {
			t.Fatalf("round %d: lease refused", i)
		}
		req := signedOK(co, "w1", id, key, `{"v":1}`)
		if i == 0 {
			req.Result = json.RawMessage(`{"v":666}`) // payload != attested payload
		} else {
			req.Digest = "sha256:bogus"
		}
		if resp, err := co.Result(req); err != nil || resp.Accepted {
			t.Fatalf("round %d: corrupt result must be rejected: %+v %v", i, resp, err)
		}
	}
	st, _ := co.Status(id)
	if st.Corrupt != 2 || st.Failed != 0 || st.Queued != 1 || st.Requeues != 2 {
		t.Fatalf("corrupt results must requeue without budget: %+v", st)
	}

	co.Lease("w2")
	if resp, _ := co.Result(signedOK(co, "w2", id, key, `{"v":1}`)); !resp.Accepted {
		t.Fatal("attested result must be accepted")
	}
	res, _ := co.Results(id)
	if string(res.Results[key]) != `{"v":1}` || res.State != StateComplete {
		t.Fatalf("attested result must complete the cell: %+v", res)
	}

	var b strings.Builder
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), "mtvp_fabric_results_corrupt_total 2") {
		t.Error("metrics missing mtvp_fabric_results_corrupt_total 2")
	}
}

// Oversized request bodies are cut off with 413, not buffered.
func TestServerRejectsOversizedBody(t *testing.T) {
	_, srv := startServer(t, CoordinatorConfig{}, ServerConfig{MaxBody: 1024})
	big := `{"name":"big","jobs":[` + strings.Repeat(`{"key":"k"},`, 200) + `{"key":"z"}]}`
	resp, err := http.Post(srv.URL()+PathCampaigns, "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %d, want 413", resp.StatusCode)
	}
}

// A journaled result whose payload was corrupted at rest fails attestation
// re-verification on reload and its cell re-runs; a pre-attestation record
// (no digest) is tolerated for compatibility.
func TestReloadReverifiesJournaledDigests(t *testing.T) {
	dir := t.TempDir()
	build := func() string {
		co := newTestCoordinator(t, nil, CoordinatorConfig{JournalDir: dir})
		sub, _ := co.Submit(testSpec("rest", 1))
		co.Lease("w1")
		co.Result(signedOK(co, "w1", sub.ID, "rest/cell-00", `{"v":2}`))
		co.Close()
		return sub.ID
	}
	id := build()
	path := filepath.Join(dir, id+".journal")
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Clean reload resumes the cell as done.
	co := newTestCoordinator(t, nil, CoordinatorConfig{JournalDir: dir})
	if st, _ := co.Status(id); st.Done != 1 {
		t.Fatalf("clean reload must resume: %+v", st)
	}
	co.Close()

	// Tamper with the journaled payload (digest left in place): the record
	// no longer verifies and the cell re-runs.
	tampered := strings.Replace(string(journal), `{"v":2}`, `{"v":9}`, 1)
	if tampered == string(journal) {
		t.Fatal("test bug: payload not found in journal")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	co = newTestCoordinator(t, nil, CoordinatorConfig{JournalDir: dir})
	if st, _ := co.Status(id); st.Done != 0 || st.Queued != 1 {
		t.Fatalf("tampered record must re-run its cell: %+v", st)
	}
	co.Close()

	// Strip the digest entirely (a journal written before attestation):
	// tolerated, the record resumes.
	var rec struct {
		Digest string `json:"digest"`
	}
	var line string
	for _, l := range strings.Split(strings.TrimSpace(tampered), "\n") {
		if strings.Contains(l, `"kind":"cell"`) {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatal("test bug: no cell record in journal")
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(journal), `,"digest":"`+rec.Digest+`"`, "", 1)
	if legacy == string(journal) {
		t.Fatal("test bug: digest field not found in journal")
	}
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	co = newTestCoordinator(t, nil, CoordinatorConfig{JournalDir: dir})
	if st, _ := co.Status(id); st.Done != 1 {
		t.Fatalf("digest-less legacy record must be tolerated: %+v", st)
	}
	co.Close()
}

// Two honest workers talking to a journaled coordinator through a seeded
// lossy network (drops, delays, duplicates, damaged payloads) still
// produce a campaign report byte-identical to a clean solo run.
func TestLossyWireFleetByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spins real workers")
	}
	spec := func(name string) CampaignSpec {
		s := CampaignSpec{Name: name, Fingerprint: "insts=3000 seed=1"}
		for i := 0; i < 10; i++ {
			s.Jobs = append(s.Jobs, JobSpec{
				Key:   fmt.Sprintf("lossy/bench-%02d/mtvp4", i),
				Bench: fmt.Sprintf("bench-%02d", i), Preset: "mtvp4", Seed: uint64(i),
			})
		}
		return s
	}

	// Baseline: a clean solo run.
	_, srvClean := startServer(t, CoordinatorConfig{LeaseTTL: time.Second, Retries: 8},
		ServerConfig{Token: "t", ExpireEvery: 20 * time.Millisecond})
	startWorker(t, srvClean.URL(), "t", "clean", 1, detRun)
	resClean, blobClean := runCampaign(t, srvClean.URL(), "t", spec("lossy-run"))
	if resClean.State != StateComplete {
		t.Fatalf("clean run must complete: %+v", resClean)
	}

	// Journaled coordinator, both workers behind the lossy wire.
	_, srv := startServer(t,
		CoordinatorConfig{LeaseTTL: time.Second, Retries: 8, JournalDir: t.TempDir()},
		ServerConfig{Token: "t", ExpireEvery: 20 * time.Millisecond})
	lossy, _ := chaos.ByName("lossy")
	proxy, err := chaos.NewProxy("127.0.0.1:0", srv.URL(), lossy, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	for i := 0; i < 2; i++ {
		startWorker(t, proxy.URL(), "t", fmt.Sprintf("honest-%d", i), 1, detRun)
	}

	res, blob := runCampaign(t, srv.URL(), "t", spec("lossy-run"))
	if res.State != StateComplete {
		t.Fatalf("lossy-wire run must still complete: %+v", res)
	}
	if string(blob) != string(blobClean) {
		t.Errorf("lossy-wire report differs from clean report:\n%s\nvs\n%s", blob, blobClean)
	}
	t.Logf("injected faults: %s", chaos.FormatCounts(proxy.T.Counts()))
}
