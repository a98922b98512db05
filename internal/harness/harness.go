// Package harness is the resilient parallel campaign runner behind the
// experiment sweeps: it executes sweep cells (benchmark × machine-config
// jobs) on a bounded worker pool and keeps a multi-hour campaign alive
// through the failures that would kill a naive fan-out loop.
//
//   - Every job runs under a per-attempt wall-clock deadline and a
//     simulated-cycle progress watchdog: the job reports progress through a
//     Heartbeat, and an attempt whose heartbeat stops advancing is canceled
//     through its context (the simulator honours cancellation via
//     config.Config.Observe).
//   - A panic inside a job is captured in the worker — stack, job key, seed
//     — and becomes a structured JobFailure record instead of process death.
//   - Failed and timed-out attempts are retried with exponential backoff and
//     a bounded budget, reusing internal/fault's Backoff machinery (the same
//     state machine that paces the simulated machine's own recoveries).
//   - Progress checkpoints stream to a JSONL journal, so a campaign cut down
//     by a crash or SIGKILL resumes by skipping already-completed cells and
//     re-running only the failures. A graceful-shutdown handler (SIGINT /
//     SIGTERM) stops dispatch, drains in-flight workers, and flushes the
//     journal; a second signal cancels in-flight jobs too.
package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mtvp/internal/fault"
)

// Sentinel causes attached to job contexts and campaign errors.
var (
	// ErrDeadline is the cancellation cause when a job attempt exceeds its
	// wall-clock deadline.
	ErrDeadline = errors.New("harness: job deadline exceeded")
	// ErrStalled is the cancellation cause when a job attempt's heartbeat
	// stops advancing for longer than the stall timeout.
	ErrStalled = errors.New("harness: job progress stalled")
	// ErrInterrupted wraps the campaign error after a graceful shutdown:
	// completed cells are journaled, undispatched cells were never started.
	ErrInterrupted = errors.New("harness: campaign interrupted")
)

// InterruptedError is the concrete campaign error after a graceful
// shutdown. It matches errors.Is(err, ErrInterrupted) and remembers which
// signal triggered the drain so CLIs can exit with the conventional
// 128+signum code (130 for SIGINT, 143 for SIGTERM — containers send
// SIGTERM). Sig is nil when the caller's own context died instead.
type InterruptedError struct {
	Sig os.Signal
	msg string
}

func (e *InterruptedError) Error() string { return e.msg }

func (e *InterruptedError) Unwrap() error { return ErrInterrupted }

// ExitCode returns the conventional process exit code for the interrupting
// signal: 128+signum for a known signal, 130 otherwise (the historical
// SIGINT default this harness always used).
func (e *InterruptedError) ExitCode() int {
	if s, ok := e.Sig.(syscall.Signal); ok {
		return 128 + int(s)
	}
	return 130
}

// Config tunes one campaign run. The zero value is usable: every worker the
// machine has, no deadlines, no retries, no journal.
type Config struct {
	// Name identifies the campaign in the journal header and summaries.
	Name string
	// Workers bounds the pool; <1 selects GOMAXPROCS.
	Workers int
	// Timeout is the per-attempt wall-clock deadline (0 = none).
	Timeout time.Duration
	// StallTimeout cancels an attempt whose Heartbeat has not advanced for
	// this long (0 = watchdog off). Jobs that never beat are only subject
	// to Timeout.
	StallTimeout time.Duration
	// Retries is how many times a failed or timed-out job is re-run after
	// its first attempt.
	Retries int
	// BackoffBase is the delay before the first retry; each further retry
	// doubles it via the fault.Backoff multiplier, capped at BackoffMax.
	// Zero selects 100ms (and 10s for BackoffMax).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Grace is how long a worker waits, after canceling an attempt, for the
	// job function to return cooperatively before abandoning its goroutine
	// and moving on (a truly wedged job leaks one goroutine instead of
	// wedging the campaign). Zero selects 1s.
	Grace time.Duration
	// Journal is the JSONL checkpoint path ("" = no checkpointing). Records
	// are appended and fsynced as cells finish, so a SIGKILL loses at most
	// the in-flight cells.
	Journal string
	// Resume loads an existing journal first: cells recorded "done" are
	// skipped and their journaled results reused; "failed" cells re-run.
	Resume bool
	// Fingerprint guards resume: it is written into the journal header and
	// must match the prior run's (campaigns run with different options must
	// not silently mix results).
	Fingerprint string
	// HandleSignals installs the graceful-shutdown handler for the duration
	// of the campaign: the first SIGINT/SIGTERM stops dispatching queued
	// cells and drains in-flight workers; a second cancels in-flight jobs.
	HandleSignals bool
	// OnEvent, when non-nil, receives campaign events (retries, failures,
	// drains, warnings) for logging. Called from worker goroutines.
	OnEvent func(Event)
}

func (c Config) workers() int {
	if c.Workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) backoffBase() time.Duration {
	if c.BackoffBase <= 0 {
		return 100 * time.Millisecond
	}
	return c.BackoffBase
}

func (c Config) backoffMax() time.Duration {
	if c.BackoffMax <= 0 {
		return 10 * time.Second
	}
	return c.BackoffMax
}

func (c Config) grace() time.Duration {
	if c.Grace <= 0 {
		return time.Second
	}
	return c.Grace
}

// Job is one sweep cell: a stable key (the journal identity, e.g.
// "fig1/mcf/mtvp4"), the seed it runs with (recorded in failures), and the
// function that computes its result.
type Job[R any] struct {
	Key  string
	Seed uint64
	Run  func(ctx context.Context, hb *Heartbeat) (R, error)
}

// FailKind classifies why a job attempt (or cell) failed.
type FailKind string

// Failure kinds.
const (
	FailError       FailKind = "error"       // the job returned an error
	FailPanic       FailKind = "panic"       // the job panicked (stack captured)
	FailTimeout     FailKind = "timeout"     // wall-clock deadline exceeded
	FailStall       FailKind = "stall"       // progress watchdog fired
	FailInterrupted FailKind = "interrupted" // campaign shutdown canceled the attempt
)

// JobFailure is the structured record of a cell that exhausted its attempts.
type JobFailure struct {
	Key      string   `json:"key"`
	Seed     uint64   `json:"seed"`
	Kind     FailKind `json:"kind"`
	Attempts int      `json:"attempts"`
	Err      string   `json:"error"`
	// Stack is the captured goroutine stack when Kind is FailPanic.
	Stack string `json:"stack,omitempty"`
}

func (f JobFailure) String() string {
	return fmt.Sprintf("%s: %s after %d attempt(s): %s", f.Key, f.Kind, f.Attempts, f.Err)
}

// FailedError is the campaign error when cells exhausted their retry
// budgets: the rest of the campaign completed and was journaled.
type FailedError struct {
	Failures []JobFailure
}

func (e *FailedError) Error() string {
	return fmt.Sprintf("harness: %d cell(s) exhausted retries (first: %s)",
		len(e.Failures), e.Failures[0].String())
}

// PanicError is the error a captured job panic is converted to.
type PanicError struct {
	Value string
	Stack string
}

func (e *PanicError) Error() string { return "panic: " + e.Value }

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks a job error as not worth retrying (e.g. a deterministic
// oracle divergence: re-running the same cell reproduces it exactly).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// EventKind tags OnEvent notifications.
type EventKind string

// Event kinds.
const (
	EventRetry EventKind = "retry"
	EventFail  EventKind = "fail"
	EventDrain EventKind = "drain" // shutdown signal: dispatch stopped
	EventWarn  EventKind = "warn"  // tolerated damage (e.g. a torn journal tail); text in Err
)

// Event is one campaign progress notification.
type Event struct {
	Kind    EventKind
	Key     string
	Attempt int
	Err     string
}

// PrintEvents returns an OnEvent sink that writes one "#"-prefixed line to
// w per event: retries, failures, the shutdown drain and warnings.
func PrintEvents(w io.Writer) func(Event) {
	return func(ev Event) {
		switch ev.Kind {
		case EventRetry:
			fmt.Fprintf(w, "# retry %s (attempt %d): %s\n", ev.Key, ev.Attempt, ev.Err)
		case EventFail:
			fmt.Fprintf(w, "# FAIL  %s after %d attempts: %s\n", ev.Key, ev.Attempt, ev.Err)
		case EventDrain:
			fmt.Fprintln(w, "# interrupt: draining in-flight cells, journal will be flushed (interrupt again to cancel)")
		case EventWarn:
			if ev.Key != "" {
				fmt.Fprintf(w, "# warn  %s: %s\n", ev.Key, ev.Err)
			} else {
				fmt.Fprintf(w, "# warn  %s\n", ev.Err)
			}
		}
	}
}

// Campaign is the outcome of a Run: results keyed by job key (completed and
// resumed cells only) and the aggregate summary.
type Campaign[R any] struct {
	Results map[string]R
	Summary *Summary
}

// outcome is a worker's verdict on one cell.
type outcome[R any] struct {
	res      R
	fail     *JobFailure
	attempts int
	timeouts int
	stalls   int
	panics   int
}

// Run executes the jobs on the configured pool and blocks until every
// dispatched cell has completed, failed its retry budget, or been drained by
// a shutdown signal. It returns the campaign (always non-nil, with whatever
// completed) and an error that is nil on full success, a *FailedError when
// cells exhausted retries, or wraps ErrInterrupted after a graceful
// shutdown.
func Run[R any](ctx context.Context, cfg Config, jobs []Job[R]) (*Campaign[R], error) {
	start := time.Now()
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if j.Key == "" || j.Run == nil {
			return nil, fmt.Errorf("harness: job with empty key or nil Run")
		}
		if seen[j.Key] {
			return nil, fmt.Errorf("harness: duplicate job key %q", j.Key)
		}
		seen[j.Key] = true
	}

	camp := &Campaign[R]{
		Results: make(map[string]R, len(jobs)),
		Summary: &Summary{Name: cfg.Name, Total: len(jobs)},
	}
	sum := camp.Summary

	// Journal: load prior state when resuming, then open for appending.
	var prior map[string]*Record
	if cfg.Journal != "" && cfg.Resume {
		var (
			warns []string
			err   error
		)
		prior, warns, err = LoadJournal(cfg.Journal, cfg.Fingerprint)
		if err != nil {
			return nil, err
		}
		for _, w := range warns {
			cfg.emit(Event{Kind: EventWarn, Err: w})
		}
	}
	var jnl *Journal
	if cfg.Journal != "" {
		var err error
		jnl, err = OpenJournal(cfg.Journal, cfg.Name, cfg.Fingerprint)
		if err != nil {
			return nil, err
		}
		defer jnl.Close()
	}

	// Partition: journaled-done cells are skipped, everything else runs.
	var torun []Job[R]
	for _, j := range jobs {
		rec := prior[j.Key]
		if rec != nil && rec.Status == StatusDone {
			var r R
			if err := json.Unmarshal(rec.Result, &r); err == nil {
				camp.Results[j.Key] = r
				sum.Skipped++
				continue
			}
			// A corrupt result record is treated as not-done: re-run.
		}
		torun = append(torun, j)
	}

	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	drainCh := make(chan struct{})
	var drainSig atomic.Value // os.Signal that triggered the drain
	if cfg.HandleSignals {
		sigCh := make(chan os.Signal, 2)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigCh)
		go func() {
			select {
			case s := <-sigCh:
				drainSig.Store(s)
				cfg.emit(Event{Kind: EventDrain})
				close(drainCh) // first signal: stop dispatch, drain workers
			case <-runCtx.Done():
				return
			}
			select {
			case <-sigCh:
				cancel(ErrInterrupted) // second signal: cancel in-flight jobs
			case <-runCtx.Done():
			}
		}()
	}

	var (
		mu    sync.Mutex // camp.Results, sum, journal appends
		wg    sync.WaitGroup
		jobCh = make(chan Job[R])
	)
	for w := 0; w < cfg.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				o := execute(runCtx, cfg, j)
				mu.Lock()
				sum.Attempts += o.attempts
				sum.Timeouts += o.timeouts
				sum.Stalls += o.stalls
				sum.Panics += o.panics
				if o.attempts > 1 {
					sum.Retried++
					sum.Retries += o.attempts - 1
				}
				if o.fail == nil {
					camp.Results[j.Key] = o.res
					sum.Completed++
					jnl.Done(j.Key, o.attempts, o.res, "", "")
				} else {
					sum.Failed++
					sum.Failures = append(sum.Failures, *o.fail)
					jnl.Failed(*o.fail, "")
				}
				mu.Unlock()
				if o.fail != nil {
					cfg.emit(Event{Kind: EventFail, Key: j.Key, Attempt: o.attempts, Err: o.fail.Err})
				}
			}
		}()
	}

	drained := false
feed:
	for _, j := range torun {
		select {
		case jobCh <- j:
		case <-drainCh:
			drained = true
			break feed
		case <-runCtx.Done():
			drained = true
			break feed
		}
	}
	close(jobCh)
	wg.Wait()
	jnl.Flush()

	sum.Unrun = sum.Total - sum.Completed - sum.Skipped - sum.Failed
	sort.Slice(sum.Failures, func(i, k int) bool { return sum.Failures[i].Key < sum.Failures[k].Key })
	sum.Wall = time.Since(start)

	if drained || runCtx.Err() != nil {
		if cause := context.Cause(runCtx); cause != nil && !errors.Is(cause, ErrInterrupted) {
			// The caller's own context died (not our signal handler).
			return camp, &InterruptedError{msg: fmt.Sprintf("%v: %v", ErrInterrupted, cause)}
		}
		sig, _ := drainSig.Load().(os.Signal)
		return camp, &InterruptedError{
			Sig: sig,
			msg: fmt.Sprintf("%v: %d of %d cell(s) not run (resume with the journal to finish)",
				ErrInterrupted, sum.Unrun, sum.Total),
		}
	}
	if sum.Failed > 0 {
		return camp, &FailedError{Failures: sum.Failures}
	}
	return camp, nil
}

func (c Config) emit(ev Event) {
	if c.OnEvent != nil {
		c.OnEvent(ev)
	}
}

// execute runs one cell to its final verdict: attempts with supervision,
// retries with exponential backoff on a bounded fault.Backoff budget.
func execute[R any](ctx context.Context, cfg Config, j Job[R]) outcome[R] {
	var o outcome[R]
	// Budget of cfg.Retries re-runs; the multiplier doubles per retry, the
	// same machinery that paces the simulator's own deadlock recoveries.
	// (fault.NewBackoff treats <=0 as "default budget", so only build one
	// when retries were actually requested.)
	var bo *fault.Backoff
	if cfg.Retries > 0 {
		bo = fault.NewBackoff(cfg.Retries, 64)
	}
	for {
		o.attempts++
		res, err, cause := attempt(ctx, cfg, j)
		if err == nil {
			o.res = res
			o.fail = nil
			return o
		}
		fail := classify(j, err, cause, o.attempts)
		switch fail.Kind {
		case FailTimeout:
			o.timeouts++
		case FailStall:
			o.stalls++
		case FailPanic:
			o.panics++
		}
		o.fail = &fail

		var perm *permanentError
		retryable := fail.Kind != FailInterrupted && !errors.As(err, &perm)
		if !retryable || ctx.Err() != nil || bo == nil || !bo.Allow() {
			return o
		}
		cfg.emit(Event{Kind: EventRetry, Key: j.Key, Attempt: o.attempts, Err: fail.Err})
		delay := cfg.backoffBase() * time.Duration(bo.Multiplier())
		if max := cfg.backoffMax(); delay > max {
			delay = max
		}
		if !sleepCtx(ctx, delay) {
			return o
		}
	}
}

// attempt runs the job once under its deadline and stall watchdog, capturing
// panics. It returns the job's result or error plus the context cause that
// canceled the attempt (nil when the job ended on its own). The job runs in
// its own goroutine so a wedged job that ignores cancellation is abandoned
// after a grace period instead of wedging the worker.
func attempt[R any](ctx context.Context, cfg Config, j Job[R]) (res R, err error, cause error) {
	jctx := ctx
	var cancelT context.CancelFunc
	if cfg.Timeout > 0 {
		jctx, cancelT = context.WithTimeoutCause(jctx, cfg.Timeout, ErrDeadline)
		defer cancelT()
	}
	jctx, cancelS := context.WithCancelCause(jctx)
	defer cancelS(nil)

	hb := &Heartbeat{}
	stopWatch := watch(jctx, hb, cfg.StallTimeout, func() { cancelS(ErrStalled) })
	defer stopWatch()

	type ret struct {
		res R
		err error
	}
	done := make(chan ret, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- ret{err: &PanicError{Value: fmt.Sprint(p), Stack: string(debug.Stack())}}
			}
		}()
		r, e := j.Run(jctx, hb)
		done <- ret{res: r, err: e}
	}()

	var out ret
	select {
	case out = <-done:
	case <-jctx.Done():
		// Give the job a grace period to notice cancellation (the simulator
		// polls its Observe hook every ~1024 cycles, so this is normally
		// microseconds); a job that never returns is abandoned.
		t := time.NewTimer(cfg.grace())
		defer t.Stop()
		select {
		case out = <-done:
		case <-t.C:
			out = ret{err: fmt.Errorf("job abandoned: did not return within %s of cancellation", cfg.grace())}
		}
	}
	if jctx.Err() != nil {
		cause = context.Cause(jctx)
	}
	return out.res, out.err, cause
}

// classify folds an attempt error and its cancellation cause into a
// structured failure record.
func classify[R any](j Job[R], err, cause error, attempts int) JobFailure {
	f := JobFailure{Key: j.Key, Seed: j.Seed, Attempts: attempts, Err: err.Error(), Kind: FailError}
	var pe *PanicError
	switch {
	case errors.As(err, &pe):
		f.Kind = FailPanic
		f.Stack = pe.Stack
	case errors.Is(cause, ErrDeadline):
		f.Kind = FailTimeout
	case errors.Is(cause, ErrStalled):
		f.Kind = FailStall
	case cause != nil:
		f.Kind = FailInterrupted
	}
	return f
}

// sleepCtx sleeps for d, returning false if ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
