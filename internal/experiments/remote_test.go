package experiments

// Golden tests for the distributed path: the same sweep run through the
// local worker pool and through the fabric (any fleet topology, including
// one losing a worker mid-campaign) must render byte-identical tables.

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"mtvp/internal/core"
	"mtvp/internal/fabric"
	"mtvp/internal/fabric/chaos"
	"mtvp/internal/harness"
	"mtvp/internal/workload"
)

// fabricOpts runs two real built-in benchmarks (one per suite) at a tiny
// instruction budget; remote workers resolve them by name, so custom test
// kernels cannot be used here.
func fabricOpts() Options {
	o := DefaultOptions()
	o.Insts = 3000
	mcf, err := workload.ByName("mcf")
	if err != nil {
		panic(err)
	}
	swim, err := workload.ByName("swim")
	if err != nil {
		panic(err)
	}
	o.Benchmarks = []workload.Benchmark{mcf, swim}
	return o
}

// startFabric brings up an in-process coordinator plus n worker agents
// running the real simulator via RunSpec.
func startFabric(t *testing.T, n int, cfg fabric.CoordinatorConfig) (*fabric.Coordinator, string, []context.CancelFunc) {
	t.Helper()
	co, err := fabric.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fabric.NewServer(co, fabric.ServerConfig{
		Addr: "127.0.0.1:0", Token: "test-token", ExpireEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); co.Close() })

	cancels := make([]context.CancelFunc, n)
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		done := make(chan struct{})
		go func(name string) {
			defer close(done)
			fabric.RunWorker(ctx, fabric.WorkerConfig{
				Coordinator: srv.URL(), Token: "test-token", Name: name, Slots: 2,
				Poll: 10 * time.Millisecond, Run: RunSpec,
			})
		}(fmt.Sprintf("w%d", i))
		t.Cleanup(func() {
			cancel()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Error("worker failed to drain")
			}
		})
	}
	return co, srv.URL(), cancels
}

func renderFig2(t *testing.T, o Options) string {
	t.Helper()
	tables, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range tables {
		b.WriteString(tab.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRemoteSweepMatchesLocalByteForByte is the acceptance test: one local
// run, one 2-worker fabric run, and one 4-worker fabric run that loses a
// worker mid-campaign all render the same bytes.
func TestRemoteSweepMatchesLocalByteForByte(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations across a fleet")
	}

	local := renderFig2(t, fabricOpts())

	// Two healthy workers.
	o := fabricOpts()
	_, url, _ := startFabric(t, 2, fabric.CoordinatorConfig{
		LeaseTTL: 2 * time.Second, Retries: 5,
	})
	o.Coordinator, o.Token = url, "test-token"
	remote := renderFig2(t, o)
	if remote != local {
		t.Errorf("remote report differs from local:\n--- local ---\n%s--- remote ---\n%s", local, remote)
	}

	// Four workers, one killed mid-campaign (hard cancel: its in-flight
	// cells are handed back or expire; either way the campaign completes).
	o2 := fabricOpts()
	co, url2, cancels := startFabric(t, 4, fabric.CoordinatorConfig{
		LeaseTTL: 500 * time.Millisecond, Retries: 5,
	})
	o2.Coordinator, o2.Token = url2, "test-token"
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		// Wait until the campaign has leased work, then kill worker 0.
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			for _, st := range co.List() {
				if st.Leased > 0 || st.Done > 0 {
					cancels[0]()
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	chaos := renderFig2(t, o2)
	<-killed
	if chaos != local {
		t.Errorf("worker-loss report differs from local:\n--- local ---\n%s--- chaos ---\n%s", local, chaos)
	}
}

// TestRemoteSweepSurvivesLossyWire is the lossy-network acceptance test at
// the paper-artifact level: two workers talking through a seeded lossy
// network still render the exact local Fig2 bytes.
func TestRemoteSweepSurvivesLossyWire(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations across a lossy network")
	}

	local := renderFig2(t, fabricOpts())

	_, url, _ := startFabric(t, 0, fabric.CoordinatorConfig{
		LeaseTTL: 2 * time.Second, Retries: 8,
	})
	lossy, ok := chaos.ByName("lossy")
	if !ok {
		t.Fatal("lossy profile missing")
	}
	proxy, err := chaos.NewProxy("127.0.0.1:0", url, lossy, 2026)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	for _, name := range []string{"w0", "w1"} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			fabric.RunWorker(ctx, fabric.WorkerConfig{
				Coordinator: proxy.URL(), Token: "test-token", Name: name, Slots: 2,
				Poll: 10 * time.Millisecond, Run: RunSpec,
			})
		}()
		t.Cleanup(func() {
			cancel()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Errorf("worker %s failed to drain", name)
			}
		})
	}

	o := fabricOpts()
	o.Coordinator, o.Token = url, "test-token"
	lossyOut := renderFig2(t, o)
	if lossyOut != local {
		t.Errorf("lossy-wire report differs from local:\n--- local ---\n%s--- lossy ---\n%s", local, lossyOut)
	}
	t.Logf("injected faults: %s", chaos.FormatCounts(proxy.T.Counts()))
}

// RunSpec must honour cancellation (the worker drain path depends on the
// simulator stopping and returning an error at the next observer poll).
func TestRunSpecCancellation(t *testing.T) {
	o := fabricOpts()
	spec := o.spec("cancel/mcf/base", o.Benchmarks[0], "base", core.Baseline())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunSpec(ctx, spec, nil); err == nil {
		t.Fatal("cancelled RunSpec must return an error, not a truncated result")
	}
}

// RunSpec output must be exactly the journal-form cellResult JSON.
func TestRunSpecResultShape(t *testing.T) {
	o := fabricOpts()
	spec := o.spec("shape/mcf/base", o.Benchmarks[0], "base", core.Baseline())
	var beats int
	raw, err := RunSpec(context.Background(), spec, func(cy, co uint64) { beats++ })
	if err != nil {
		t.Fatal(err)
	}
	var cell cellResult
	if err := json.Unmarshal(raw, &cell); err != nil {
		t.Fatal(err)
	}
	if cell.IPC <= 0 || cell.Stats.Committed < o.Insts {
		t.Fatalf("implausible cell result: %+v", cell)
	}
	if beats == 0 {
		t.Error("RunSpec never reported progress")
	}
}

// TestRemoteReportMatchesLocal runs the whole report through an in-process
// fabric: every campaign, Figure 5, the sharing study and the fault
// campaign included, must go to the coordinator. The report must equal the
// local one byte for byte (bar its wall-clock footer), and the coordinator
// must have completed every cell the local run counted.
func TestRemoteReportMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment locally and across a fleet")
	}
	opts := func() Options {
		o := fabricOpts()
		o.Insts = tinyOpts().Insts
		o.Summary = &harness.Summary{}
		return o
	}

	lo := opts()
	var local strings.Builder
	if err := GenerateReport(lo, &local); err != nil {
		t.Fatal(err)
	}

	co, url, _ := startFabric(t, 2, fabric.CoordinatorConfig{
		LeaseTTL: 2 * time.Second, Retries: 5,
	})
	ro := opts()
	ro.Coordinator, ro.Token = url, "test-token"
	var remote strings.Builder
	if err := GenerateReport(ro, &remote); err != nil {
		t.Fatal(err)
	}
	if l, r := normalizeReport(t, local.String()), normalizeReport(t, remote.String()); l != r {
		t.Errorf("remote report differs from local:\n--- local ---\n%s--- remote ---\n%s", l, r)
	}

	done := 0
	for _, st := range co.List() {
		done += st.Done
	}
	if done != lo.Summary.Total {
		t.Errorf("coordinator completed %d cells; the local report ran %d", done, lo.Summary.Total)
	}
}

// With a coordinator set, the local-only supervision options are refused,
// not silently dropped: the error names the option and the mtvpd serve
// flag that does its job on the fabric. The refusal comes before any
// request, so no coordinator has to be listening.
func TestCoordinatorRejectsLocalOnlyOptions(t *testing.T) {
	for _, tc := range []struct {
		set        func(*Options)
		opt, owner string
	}{
		{func(o *Options) { o.Journal = "camp.jsonl" }, "-journal", "-journal-dir"},
		{func(o *Options) { o.Journal, o.Resume = "camp.jsonl", true }, "-resume", "-journal-dir"},
		{func(o *Options) { o.Timeout = time.Minute }, "-timeout", "-lease-ttl"},
		{func(o *Options) { o.StallTimeout = time.Minute }, "-stall", "-lease-ttl"},
	} {
		o := fabricOpts()
		o.Coordinator = "http://127.0.0.1:1"
		tc.set(&o)
		_, err := Fig2(o)
		if err == nil {
			t.Errorf("%s with a coordinator: want an error", tc.opt)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, tc.opt) || !strings.Contains(msg, "mtvpd serve "+tc.owner) {
			t.Errorf("%s with a coordinator: error %q must name the option and mtvpd serve %s", tc.opt, msg, tc.owner)
		}
	}
}
