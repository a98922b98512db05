package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

// writeJournal builds a journal with a header and n done cells, returning
// the path and the file's full contents.
func writeJournal(t *testing.T, n int) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	j, err := OpenJournal(path, "torn", "fp")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		j.Done(fmt.Sprintf("cell-%02d", i), 1, i*10, "", "")
	}
	j.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, b
}

// A journal whose final record is byte-truncated (the SIGKILL-mid-write
// case) must resume by skipping the torn tail with a warning, not fail.
func TestResumeSkipsTornFinalRecord(t *testing.T) {
	path, full := writeJournal(t, 4)

	// Truncate at several depths into the final record, including cutting
	// into the middle of the JSON and leaving a bare "{".
	lastLine := full[:len(full)-1] // drop trailing newline
	lastStart := strings.LastIndexByte(string(lastLine), '\n') + 1
	for _, cut := range []int{1, 5, (len(full) - lastStart) / 2} {
		if err := os.WriteFile(path, full[:lastStart+cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, warns, err := LoadJournal(path, "fp")
		if err != nil {
			t.Fatalf("cut=%d: torn tail must be tolerated, got error: %v", cut, err)
		}
		if len(warns) != 1 || !strings.Contains(warns[0], "torn final record") {
			t.Fatalf("cut=%d: want one torn-tail warning, got %q", cut, warns)
		}
		if len(recs) != 3 {
			t.Fatalf("cut=%d: want the 3 intact cells, got %d", cut, len(recs))
		}
		if recs["cell-03"] != nil {
			t.Fatalf("cut=%d: torn cell-03 must not resume as done", cut)
		}
	}
}

// An undamaged journal resumes with no warnings.
func TestResumeCleanJournalNoWarnings(t *testing.T) {
	path, _ := writeJournal(t, 4)
	recs, warns, err := LoadJournal(path, "fp")
	if err != nil || len(warns) != 0 {
		t.Fatalf("clean journal: err=%v warns=%q", err, warns)
	}
	if len(recs) != 4 {
		t.Fatalf("want 4 cells, got %d", len(recs))
	}
}

// Corruption that is NOT a torn tail — an unparseable line with valid
// records after it — must fail the resume loudly: silently dropping
// mid-file records would resurrect completed cells.
func TestResumeRejectsMidFileCorruption(t *testing.T) {
	path, full := writeJournal(t, 4)
	lines := strings.SplitAfter(string(full), "\n")
	lines[2] = lines[2][:len(lines[2])/2] + "\n" // tear a middle record
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadJournal(path, "fp")
	if err == nil || !strings.Contains(err.Error(), "mid-file") {
		t.Fatalf("mid-file corruption must fail resume, got %v", err)
	}
}

// A harness.Run resume over a byte-truncated journal completes the torn
// cell and surfaces the warning through OnEvent — the end-to-end contract
// of the hardening.
func TestRunResumesAcrossTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	jobs := make([]Job[int], 4)
	var ran []string
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key:  fmt.Sprintf("cell-%02d", i),
			Seed: uint64(i),
			Run: func(context.Context, *Heartbeat) (int, error) {
				ran = append(ran, fmt.Sprintf("cell-%02d", i))
				return i * 10, nil
			},
		}
	}
	cfg := Config{Name: "torn", Workers: 1, Journal: path, Fingerprint: "fp"}
	if _, err := Run(context.Background(), cfg, jobs); err != nil {
		t.Fatal(err)
	}

	// Tear the final record, then resume: only the torn cell re-runs.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	ran = nil
	var warned bool
	cfg.Resume = true
	cfg.OnEvent = func(ev Event) {
		if ev.Kind == EventWarn && strings.Contains(ev.Err, "torn final record") {
			warned = true
		}
	}
	camp, err := Run(context.Background(), cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !warned {
		t.Fatal("resume over a torn tail must emit an EventWarn")
	}
	if len(ran) != 1 || ran[0] != "cell-03" {
		t.Fatalf("only the torn cell should re-run, ran %v", ran)
	}
	for i := 0; i < 4; i++ {
		if got := camp.Results[fmt.Sprintf("cell-%02d", i)]; got != i*10 {
			t.Fatalf("cell-%02d = %d, want %d", i, got, i*10)
		}
	}
}

// InterruptedError maps signals to the conventional 128+signum exit codes.
func TestInterruptedErrorExitCodes(t *testing.T) {
	cases := []struct {
		sig  os.Signal
		want int
	}{
		{syscall.SIGINT, 130},
		{syscall.SIGTERM, 143},
		{nil, 130},
	}
	for _, c := range cases {
		e := &InterruptedError{Sig: c.sig, msg: "interrupted"}
		if got := e.ExitCode(); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.sig, got, c.want)
		}
		if !errors.Is(e, ErrInterrupted) {
			t.Errorf("InterruptedError must match ErrInterrupted")
		}
	}
}

// The journal accepts raw JSON results without double-encoding them.
func TestJournalRawResultRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "raw.jsonl")
	j, err := OpenJournal(path, "raw", "")
	if err != nil {
		t.Fatal(err)
	}
	j.Done("k", 1, json.RawMessage(`{"ipc":1.25}`), "w1", "sha256:feed")
	j.Close()
	recs, _, err := LoadJournal(path, "")
	if err != nil {
		t.Fatal(err)
	}
	rec := recs["k"]
	if rec == nil || string(rec.Result) != `{"ipc":1.25}` || rec.Worker != "w1" || rec.Digest != "sha256:feed" {
		t.Fatalf("bad round trip: %+v", rec)
	}
}

// legacySpans is a "spans" record in the form older fabric coordinators
// wrote after each finished cell, when they kept span timelines.
func legacySpans(key string) string {
	return fmt.Sprintf(`{"kind":"spans","key":%q,"spans":[`+
		`{"trace":"6cf92c81b8027cba","id":"94c51e2c74a06d10","kind":"cell","key":%[1]q,"start":"2023-11-14T22:13:20Z","end":"2023-11-14T22:13:22Z","status":"ok","final":true},`+
		`{"trace":"6cf92c81b8027cba","id":"b5a80831eda27de1","parent":"94c51e2c74a06d10","kind":"lease","key":%[1]q,"worker":"w1","attempt":1,"start":"2023-11-14T22:13:20Z","end":"2023-11-14T22:13:22Z","status":"ok","cycles":100,"final":true}]}`, key)
}

// A journal with span records between its cell records and a torn final
// line loads to the cell records alone, with the usual torn-tail warning.
// Appending to it afterwards (a resumed run) leaves a journal that loads
// cleanly again.
func TestJournalSkipsLegacySpanRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.jsonl")
	journal := strings.Join([]string{
		`{"kind":"campaign","campaign":"legacy","fingerprint":"fp"}`,
		`{"kind":"cell","key":"cell-00","status":"done","attempts":1,"result":{"ipc":1.5},"worker":"w1","digest":"sha256:25aa"}`,
		legacySpans("cell-00"),
		`{"kind":"cell","key":"cell-01","status":"failed","attempts":4,"seed":1,"fail_kind":"lost-worker","error":"lease expired","worker":"w2"}`,
		legacySpans("cell-01"),
		`{"kind":"cell","key":"cell-02","status":"done","attempts":2,"result":{"ipc":2.5},"worker":"w2","digest":"sha256:77bb"}`,
		`{"kind":"spans","key":"cell-02","spans":[{"trace":"6cf9`,
	}, "\n")
	if err := os.WriteFile(path, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, warns, err := LoadJournal(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Record{
		"cell-00": {Kind: KindCell, Key: "cell-00", Status: StatusDone, Attempts: 1,
			Result: json.RawMessage(`{"ipc":1.5}`), Worker: "w1", Digest: "sha256:25aa"},
		"cell-01": {Kind: KindCell, Key: "cell-01", Status: StatusFailed, Attempts: 4, Seed: 1,
			FailKind: "lost-worker", Error: "lease expired", Worker: "w2"},
		"cell-02": {Kind: KindCell, Key: "cell-02", Status: StatusDone, Attempts: 2,
			Result: json.RawMessage(`{"ipc":2.5}`), Worker: "w2", Digest: "sha256:77bb"},
	}
	if len(recs) != len(want) {
		t.Fatalf("want %d cell records, got %d: %+v", len(want), len(recs), recs)
	}
	for key, w := range want {
		if got := recs[key]; got == nil || !reflect.DeepEqual(*got, w) {
			t.Errorf("%s: got %+v, want %+v", key, got, w)
		}
	}
	wantWarn := fmt.Sprintf("harness: resume: %s:7: skipping torn final record (interrupted mid-write); its cell will re-run", path)
	if len(warns) != 1 || warns[0] != wantWarn {
		t.Fatalf("want the torn-tail warning\n%q\ngot %q", wantWarn, warns)
	}

	j, err := OpenJournal(path, "legacy", "fp")
	if err != nil {
		t.Fatal(err)
	}
	j.Done("cell-03", 1, 7, "", "")
	j.Close()
	recs, warns, err = LoadJournal(path, "fp")
	if err != nil || len(warns) != 0 || len(recs) != 4 || string(recs["cell-03"].Result) != "7" {
		t.Fatalf("journal appended after a torn tail must load cleanly: %d records, warnings %q, err %v", len(recs), warns, err)
	}
}
