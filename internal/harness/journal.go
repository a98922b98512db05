package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// The journal is a JSONL checkpoint stream: one header line per campaign
// (appended each time a process opens the file) and one record line per
// finished cell. Records are appended and fsynced as cells complete, so an
// interruption — SIGINT, crash, SIGKILL — loses at most the in-flight
// cells; a torn final line from a mid-write kill is tolerated on load. On
// resume, the latest record per key wins: "done" cells are skipped and
// their results reused, "failed" cells re-run. Lines of any other kind
// (older coordinators also wrote "spans" records) are skipped on load.
//
// The journal API is exported because it outgrew this package: the
// distributed sweep fabric (internal/fabric) persists every campaign it
// coordinates through the same fsynced stream, so a coordinator crash is
// exactly as resumable as a local campaign crash.

// Journal record kinds and cell statuses.
const (
	KindHeader = "campaign"
	KindCell   = "cell"

	StatusDone   = "done"
	StatusFailed = "failed"
)

// Record is one journal line.
type Record struct {
	Kind string `json:"kind"`

	// Header fields.
	Campaign    string `json:"campaign,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`

	// Cell fields.
	Key       string          `json:"key,omitempty"`
	Status    string          `json:"status,omitempty"`
	Attempts  int             `json:"attempts,omitempty"`
	Seed      uint64          `json:"seed,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	FailKind  FailKind        `json:"fail_kind,omitempty"`
	Error     string          `json:"error,omitempty"`
	Stack     string          `json:"stack,omitempty"`
	ElapsedMS int64           `json:"elapsed_ms,omitempty"`

	// Worker identifies which fabric worker produced the record (empty for
	// local in-process campaigns).
	Worker string `json:"worker,omitempty"`

	// Digest is the result's attestation digest (fabric.ResultDigest over
	// campaign ID, job key, config fingerprint, and the result payload) when
	// the record came through the sweep fabric's verified path; empty for
	// local campaigns. A coordinator reloading a journal re-verifies it, so
	// at-rest corruption of a result is caught at resume instead of leaking
	// into a report.
	Digest string `json:"digest,omitempty"`
}

// LoadJournal reads a journal for resume, returning the latest record per
// cell key plus human-readable warnings about tolerated damage. A missing
// file is an empty (fresh) campaign. A header whose fingerprint differs
// from fingerprint (both non-empty) is an error: the journal belongs to a
// campaign run with different options.
//
// Damage tolerance is deliberately narrow: a SIGKILL can tear at most the
// final record mid-write (writes are line-atomic under the journal mutex),
// so an unparseable *last* line is skipped with a warning, while an
// unparseable line with valid records after it cannot be a torn tail and
// fails the resume — silently dropping mid-file records would resurrect
// completed cells and break report identity.
func LoadJournal(path, fingerprint string) (map[string]*Record, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]*Record{}, nil, nil
		}
		return nil, nil, fmt.Errorf("harness: resume: %w", err)
	}
	defer f.Close()

	out := map[string]*Record{}
	var warns []string
	tornLine := 0 // 1-based line number of a pending unparseable line
	lineNo := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if tornLine != 0 {
			// A parseable-or-not line after the bad one: the damage is not a
			// torn tail, it is mid-file corruption.
			return nil, nil, fmt.Errorf("harness: resume: %s:%d: corrupt record is not the final line (journal damaged mid-file)",
				path, tornLine)
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			// Remember it; only acceptable if nothing follows.
			tornLine = lineNo
			continue
		}
		switch rec.Kind {
		case KindHeader:
			if fingerprint != "" && rec.Fingerprint != "" && rec.Fingerprint != fingerprint {
				return nil, nil, fmt.Errorf("harness: resume: journal %s was written with different options (%q, want %q)",
					path, rec.Fingerprint, fingerprint)
			}
		case KindCell:
			if rec.Key != "" {
				r := rec
				out[rec.Key] = &r
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("harness: resume: reading %s: %w", path, err)
	}
	if tornLine != 0 {
		warns = append(warns, fmt.Sprintf("harness: resume: %s:%d: skipping torn final record (interrupted mid-write); its cell will re-run",
			path, tornLine))
	}
	return out, warns, nil
}

// Journal appends checkpoint records. All methods are nil-safe so callers
// can thread an unconfigured journal through unconditionally. Writes are
// serialized by the caller (the campaign mutex locally, the coordinator
// mutex in the fabric).
type Journal struct {
	f *os.File
	w *bufio.Writer
}

// OpenJournal opens (creating if needed) the journal for appending and
// writes the campaign header. A torn final record, which LoadJournal
// skips, is cut off first: appending after it would turn tail damage into
// mid-file damage and fail the next resume.
func OpenJournal(path, name, fingerprint string) (*Journal, error) {
	if err := dropTornTail(path); err != nil {
		return nil, fmt.Errorf("harness: journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: journal: %w", err)
	}
	j := &Journal{f: f, w: bufio.NewWriter(f)}
	j.Append(Record{Kind: KindHeader, Campaign: name, Fingerprint: fingerprint})
	return j, nil
}

// dropTornTail cuts an unterminated final line, a record torn by a kill
// mid-write, off the journal at path. If that line still parsed (only its
// newline was lost), its cell re-runs at the next resume.
func dropTornTail(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	if n := len(b); n > 0 && b[n-1] != '\n' {
		return os.Truncate(path, int64(bytes.LastIndexByte(b, '\n')+1))
	}
	return nil
}

// Append marshals one record, writes it as a line, and syncs: a checkpoint
// that is not durable is not a checkpoint.
func (j *Journal) Append(rec Record) {
	if j == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return // results are plain data types; marshal failure means no checkpoint, not no result
	}
	j.w.Write(b)
	j.w.WriteByte('\n')
	j.w.Flush()
	j.f.Sync()
}

// Done checkpoints a completed cell with its JSON-encoded result. worker
// attributes the cell to a fabric worker and digest carries the result's
// attestation digest ("" for both on local campaigns).
func (j *Journal) Done(key string, attempts int, result any, worker, digest string) {
	if j == nil {
		return
	}
	raw, err := json.Marshal(result)
	if err != nil {
		return
	}
	j.Append(Record{Kind: KindCell, Key: key, Status: StatusDone, Attempts: attempts, Result: raw, Worker: worker, Digest: digest})
}

// Failed checkpoints a cell that exhausted its attempts.
func (j *Journal) Failed(f JobFailure, worker string) {
	if j == nil {
		return
	}
	j.Append(Record{
		Kind: KindCell, Key: f.Key, Status: StatusFailed,
		Attempts: f.Attempts, Seed: f.Seed,
		FailKind: f.Kind, Error: f.Err, Stack: f.Stack,
		Worker: worker,
	})
}

// Flush forces buffered records to disk.
func (j *Journal) Flush() {
	if j == nil {
		return
	}
	j.w.Flush()
	j.f.Sync()
}

// Close flushes and closes the journal file.
func (j *Journal) Close() {
	if j == nil {
		return
	}
	j.Flush()
	j.f.Close()
}
