package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastCfg is a campaign config with aggressive supervision for tests:
// short deadlines, a short stall watchdog, quick backoff.
func fastCfg(journal string) Config {
	return Config{
		Name:         "test",
		Workers:      4,
		Timeout:      300 * time.Millisecond,
		StallTimeout: 50 * time.Millisecond,
		Retries:      2,
		BackoffBase:  time.Millisecond,
		BackoffMax:   5 * time.Millisecond,
		Grace:        50 * time.Millisecond,
		Journal:      journal,
	}
}

// TestFailurePaths drives every supervised failure mode through one
// campaign: panicking, hanging (both cooperative and ctx-deaf), stalling,
// flaky-then-succeeding, and permanently failing jobs, and checks the
// retry counts, failure kinds, and journal records each produces.
func TestFailurePaths(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.jsonl")

	var flakyTries atomic.Int64
	jobs := []Job[int]{
		{Key: "ok", Seed: 7, Run: func(ctx context.Context, hb *Heartbeat) (int, error) {
			hb.Beat(1)
			return 42, nil
		}},
		{Key: "panics", Seed: 8, Run: func(ctx context.Context, hb *Heartbeat) (int, error) {
			panic("injected test panic")
		}},
		{Key: "hangs-cooperative", Seed: 9, Run: func(ctx context.Context, hb *Heartbeat) (int, error) {
			// Beats continuously (so the stall watchdog stays happy) but
			// never finishes: the wall-clock deadline must cancel it.
			for i := uint64(1); ; i++ {
				hb.Beat(i)
				select {
				case <-ctx.Done():
					return 0, ctx.Err()
				case <-time.After(time.Millisecond):
				}
			}
		}},
		{Key: "hangs-deaf", Seed: 10, Run: func(ctx context.Context, hb *Heartbeat) (int, error) {
			select {} // ignores cancellation entirely: must be abandoned
		}},
		{Key: "stalls", Seed: 11, Run: func(ctx context.Context, hb *Heartbeat) (int, error) {
			// Progresses briefly, then the "simulation" wedges: beats stop
			// advancing while wall-clock work continues.
			hb.Beat(1)
			hb.Beat(2)
			<-ctx.Done()
			return 0, ctx.Err()
		}},
		{Key: "flaky", Seed: 12, Run: func(ctx context.Context, hb *Heartbeat) (int, error) {
			hb.Beat(1)
			if flakyTries.Add(1) < 3 {
				return 0, errors.New("transient flake")
			}
			return 7, nil
		}},
		{Key: "permanent", Seed: 13, Run: func(ctx context.Context, hb *Heartbeat) (int, error) {
			return 0, Permanent(errors.New("deterministic divergence"))
		}},
	}

	camp, err := Run(context.Background(), fastCfg(journal), jobs)
	var fe *FailedError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FailedError, got %v", err)
	}

	s := camp.Summary
	if s.Completed != 2 || s.Failed != 5 || s.Total != 7 {
		t.Errorf("summary completed=%d failed=%d total=%d, want 2/5/7", s.Completed, s.Failed, s.Total)
	}
	if got := camp.Results["ok"]; got != 42 {
		t.Errorf("ok result = %d, want 42", got)
	}
	if got := camp.Results["flaky"]; got != 7 {
		t.Errorf("flaky result = %d, want 7", got)
	}
	if n := flakyTries.Load(); n != 3 {
		t.Errorf("flaky attempts = %d, want 3 (two retries)", n)
	}
	if s.Retried == 0 || s.Retries < 2 {
		t.Errorf("summary retried=%d retries=%d, want >=1/>=2", s.Retried, s.Retries)
	}
	if s.Timeouts == 0 {
		t.Errorf("no timeout attempts counted")
	}
	if s.Stalls == 0 {
		t.Errorf("no stall attempts counted")
	}
	if s.Panics == 0 {
		t.Errorf("no panic attempts counted")
	}

	// Failures are sorted by key and carry structured identity.
	byKey := map[string]JobFailure{}
	for i, f := range s.Failures {
		byKey[f.Key] = f
		if i > 0 && s.Failures[i-1].Key > f.Key {
			t.Errorf("failures not sorted by key: %q before %q", s.Failures[i-1].Key, f.Key)
		}
	}
	checks := []struct {
		key      string
		kind     FailKind
		attempts int
		seed     uint64
	}{
		{"panics", FailPanic, 3, 8},
		{"hangs-cooperative", FailTimeout, 3, 9},
		{"hangs-deaf", FailTimeout, 3, 10},
		{"stalls", FailStall, 3, 11},
		{"permanent", FailError, 1, 13}, // Permanent: no retries
	}
	for _, c := range checks {
		f, ok := byKey[c.key]
		if !ok {
			t.Errorf("no failure record for %q", c.key)
			continue
		}
		if f.Kind != c.kind || f.Attempts != c.attempts || f.Seed != c.seed {
			t.Errorf("%s: kind=%s attempts=%d seed=%d, want %s/%d/%d",
				c.key, f.Kind, f.Attempts, f.Seed, c.kind, c.attempts, c.seed)
		}
	}
	if pf := byKey["panics"]; !strings.Contains(pf.Stack, "harness_test") {
		t.Errorf("panic failure lacks a captured stack: %q", pf.Stack)
	}

	// The journal holds the same verdicts, durably.
	recs, _, err := LoadJournal(journal, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		rec := recs[c.key]
		if rec == nil || rec.Status != StatusFailed || rec.FailKind != c.kind {
			t.Errorf("journal record for %q = %+v, want failed/%s", c.key, rec, c.kind)
		}
	}
	okRec := recs["ok"]
	if okRec == nil || okRec.Status != StatusDone {
		t.Fatalf("journal record for ok = %+v, want done", okRec)
	}
	var v int
	if err := json.Unmarshal(okRec.Result, &v); err != nil || v != 42 {
		t.Errorf("journaled result for ok = %s (%v), want 42", okRec.Result, err)
	}
	if recs["panics"].Stack == "" {
		t.Errorf("journaled panic record lacks stack")
	}
}

// TestResumeRerunsExactlyTheFailedCells runs a campaign with one failing
// cell, then resumes from its journal: completed cells must be skipped
// (their journaled results reused, job functions not re-invoked) and only
// the failed cell re-run.
func TestResumeRerunsExactlyTheFailedCells(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.jsonl")

	var invoked [3]atomic.Int64
	var cFails atomic.Bool
	cFails.Store(true)
	mkJobs := func() []Job[int] {
		return []Job[int]{
			{Key: "a", Run: func(ctx context.Context, hb *Heartbeat) (int, error) {
				invoked[0].Add(1)
				return 1, nil
			}},
			{Key: "b", Run: func(ctx context.Context, hb *Heartbeat) (int, error) {
				invoked[1].Add(1)
				return 2, nil
			}},
			{Key: "c", Run: func(ctx context.Context, hb *Heartbeat) (int, error) {
				invoked[2].Add(1)
				if cFails.Load() {
					return 0, errors.New("c is down")
				}
				return 3, nil
			}},
		}
	}

	cfg := fastCfg(journal)
	cfg.Retries = 0
	if _, err := Run(context.Background(), cfg, mkJobs()); err == nil {
		t.Fatal("first campaign should report the failed cell")
	}

	cFails.Store(false)
	cfg.Resume = true
	camp, err := Run(context.Background(), cfg, mkJobs())
	if err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	if camp.Summary.Skipped != 2 || camp.Summary.Completed != 1 {
		t.Errorf("resume skipped=%d completed=%d, want 2/1", camp.Summary.Skipped, camp.Summary.Completed)
	}
	if invoked[0].Load() != 1 || invoked[1].Load() != 1 {
		t.Errorf("completed cells re-invoked on resume: a=%d b=%d, want 1/1",
			invoked[0].Load(), invoked[1].Load())
	}
	if invoked[2].Load() != 2 {
		t.Errorf("failed cell invoked %d times, want 2 (once per campaign)", invoked[2].Load())
	}
	for key, want := range map[string]int{"a": 1, "b": 2, "c": 3} {
		if camp.Results[key] != want {
			t.Errorf("result[%s] = %d, want %d", key, camp.Results[key], want)
		}
	}
}

// TestResumeFingerprintMismatch: a journal written under different campaign
// options must refuse to resume rather than silently mix results.
func TestResumeFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.jsonl")
	jobs := []Job[int]{{Key: "a", Run: func(ctx context.Context, hb *Heartbeat) (int, error) { return 1, nil }}}

	cfg := Config{Journal: journal, Fingerprint: "insts=1000 seed=1"}
	if _, err := Run(context.Background(), cfg, jobs); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	cfg.Fingerprint = "insts=2000 seed=1"
	if _, err := Run(context.Background(), cfg, jobs); err == nil {
		t.Fatal("resume with a different fingerprint should fail")
	}
}

// TestJournalTornTailTolerated: a SIGKILL can land mid-write; the torn last
// line must not poison resume.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.jsonl")
	jobs := []Job[int]{{Key: "a", Run: func(ctx context.Context, hb *Heartbeat) (int, error) { return 5, nil }}}
	if _, err := Run(context.Background(), Config{Journal: journal}, jobs); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"kind":"cell","key":"b","status":"do`) // torn mid-record
	f.Close()

	recs, _, err := LoadJournal(journal, "")
	if err != nil {
		t.Fatalf("torn tail broke resume: %v", err)
	}
	if recs["a"] == nil || recs["a"].Status != StatusDone {
		t.Errorf("intact record lost: %+v", recs["a"])
	}
	if recs["b"] != nil {
		t.Errorf("torn record resurrected: %+v", recs["b"])
	}
}

// TestDuplicateKeysRejected: journal identity must be unambiguous.
func TestDuplicateKeysRejected(t *testing.T) {
	jobs := []Job[int]{
		{Key: "dup", Run: func(ctx context.Context, hb *Heartbeat) (int, error) { return 1, nil }},
		{Key: "dup", Run: func(ctx context.Context, hb *Heartbeat) (int, error) { return 2, nil }},
	}
	if _, err := Run(context.Background(), Config{}, jobs); err == nil {
		t.Fatal("duplicate keys should be rejected")
	}
}

// TestParentContextCancelInterrupts: a canceled caller context surfaces as
// ErrInterrupted with partial results journaled.
func TestParentContextCancelInterrupts(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "campaign.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var done atomic.Int64
	var jobs []Job[int]
	for i := 0; i < 12; i++ {
		i := i
		jobs = append(jobs, Job[int]{
			Key: fmt.Sprintf("cell-%02d", i),
			Run: func(ctx context.Context, hb *Heartbeat) (int, error) {
				if done.Add(1) == 2 {
					cancel() // interrupt mid-campaign
				}
				select {
				case <-time.After(20 * time.Millisecond):
				case <-ctx.Done():
				}
				return i, nil
			},
		})
	}
	cfg := Config{Workers: 2, Journal: journal, Grace: time.Second}
	camp, err := Run(ctx, cfg, jobs)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if camp.Summary.Completed == 0 {
		t.Error("no cells completed before the interrupt")
	}
	if camp.Summary.Completed+camp.Summary.Failed+camp.Summary.Unrun != camp.Summary.Total {
		t.Errorf("summary does not account for every cell: %+v", camp.Summary)
	}
	recs, _, err := LoadJournal(journal, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != camp.Summary.Completed+camp.Summary.Failed {
		t.Errorf("journal has %d records, summary says %d completed + %d failed",
			len(recs), camp.Summary.Completed, camp.Summary.Failed)
	}
}

// TestSummaryMergeAndStats: summaries merge and render as the health table.
func TestSummaryMergeAndStats(t *testing.T) {
	a := &Summary{Name: "fig1", Total: 4, Completed: 3, Failed: 1, Retried: 1,
		Retries: 2, Attempts: 6, Timeouts: 1, Stalls: 1, Panics: 1, Wall: time.Second,
		SimCycles: 100, SimInsts: 50}
	b := &Summary{Total: 2, Completed: 1, Skipped: 1, Wall: time.Second,
		SimCycles: 25, SimInsts: 10}
	a.Merge(b)
	if a.Total != 6 || a.Completed != 4 || a.Skipped != 1 || a.Wall != 2*time.Second {
		t.Errorf("merge wrong: %+v", a)
	}
	if a.SimCycles != 125 || a.SimInsts != 60 {
		t.Errorf("simulated-work merge wrong: cycles=%d insts=%d", a.SimCycles, a.SimInsts)
	}

	tab := a.Table()
	if len(tab.Columns) != 11 || len(tab.Rows) != 1 {
		t.Errorf("summary table shape wrong: %+v", tab)
	}
}

// TestSummaryMergeKeepsName: a run-wide summary keeps its own name however
// many campaigns fold into it, and an unnamed one does not adopt the first
// campaign's.
func TestSummaryMergeKeepsName(t *testing.T) {
	run := &Summary{Name: "report"}
	run.Merge(&Summary{Name: "fig1", Total: 1})
	run.Merge(&Summary{Name: "fig2", Total: 1})
	if run.Name != "report" {
		t.Errorf("merged summary named %q, want %q", run.Name, "report")
	}
	var unnamed Summary
	unnamed.Merge(&Summary{Name: "fig1", Total: 1})
	if unnamed.Name != "" {
		t.Errorf("unnamed summary adopted %q from the first merged campaign", unnamed.Name)
	}
	if title := unnamed.Table().Title; strings.Contains(title, "fig1") {
		t.Errorf("unnamed summary titled %q", title)
	}
}

// TestZeroConfig: the zero Config runs a plain parallel campaign.
func TestZeroConfig(t *testing.T) {
	var jobs []Job[int]
	for i := 0; i < 32; i++ {
		i := i
		jobs = append(jobs, Job[int]{
			Key: fmt.Sprintf("cell-%02d", i),
			Run: func(ctx context.Context, hb *Heartbeat) (int, error) { return i * i, nil },
		})
	}
	camp, err := Run(context.Background(), Config{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if camp.Results[fmt.Sprintf("cell-%02d", i)] != i*i {
			t.Fatalf("wrong result for cell %d", i)
		}
	}
	if camp.Summary.Completed != 32 || camp.Summary.Attempts != 32 {
		t.Errorf("summary: %+v", camp.Summary)
	}
}

// TestPrintEvents feeds the shared event printer every event kind: each
// prints exactly its one line, warnings included.
func TestPrintEvents(t *testing.T) {
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{Kind: EventRetry, Key: "fig1/mcf/mtvp4", Attempt: 2, Err: "boom"}, "# retry fig1/mcf/mtvp4 (attempt 2): boom\n"},
		{Event{Kind: EventFail, Key: "fig1/mcf/mtvp4", Attempt: 3, Err: "boom"}, "# FAIL  fig1/mcf/mtvp4 after 3 attempts: boom\n"},
		{Event{Kind: EventDrain}, "# interrupt: draining in-flight cells, journal will be flushed (interrupt again to cancel)\n"},
		{Event{Kind: EventWarn, Err: "journal: torn final record"}, "# warn  journal: torn final record\n"},
		{Event{Kind: EventWarn, Key: "fig2", Err: "attached to in-flight campaign"}, "# warn  fig2: attached to in-flight campaign\n"},
		{Event{Kind: "unknown", Key: "x"}, ""},
	} {
		var b strings.Builder
		PrintEvents(&b)(tc.ev)
		if b.String() != tc.want {
			t.Errorf("%s event: printed %q, want %q", tc.ev.Kind, b.String(), tc.want)
		}
	}
}
