package pipeline

import "mtvp/internal/oracle"

// Lockstep differential checking (cfg.Check). Commits arrive out of global
// program order: a speculative child commits past its parent's stalled load
// while the parent is still draining, and a killed thread's commits must be
// discarded retroactively. The engine therefore verifies eagerly only for
// the oldest live thread once it is promoted (its commits are definitely
// useful and in program order), and buffers every other thread's commits on
// the thread itself. Buffered records are:
//
//   - verified when their thread becomes the oldest promoted thread (its
//     elders fully drained, so its stream is the next useful work),
//   - inherited by the heir when a confirmed-away parent is freed while
//     still speculative itself, and
//   - dropped when the thread is killed (the engine discounts those commits
//     from useful work; the checker must never see them).
//
// Across the promoted lineage chain, thread commit streams are disjoint and
// ascending in fetch sequence (a confirmed parent's surviving work all
// precedes its heir's first fetch), so per-thread flushing in lineage order
// yields the exact program-order stream.

// checkCommit feeds one committed uop to the checker. Called from commitOne
// after the test commit hook, so fault-injection tests can corrupt the
// record the checker sees.
func (e *Engine) checkCommit(t *thread, u *uop) {
	rec := oracle.Record{Seq: u.seq, Thread: t.id, Order: t.order, Ex: u.ex}
	e.checker.Note(rec)
	if t.promoted && e.oldestLive() == t {
		e.flushCheck(t)
		e.verifyCheck(rec)
	} else {
		t.checkBuf = append(t.checkBuf, rec)
	}
}

// flushCheck verifies a thread's buffered commits in program order.
func (e *Engine) flushCheck(t *thread) {
	for _, rec := range t.checkBuf {
		e.verifyCheck(rec)
	}
	t.checkBuf = nil
}

func (e *Engine) verifyCheck(rec oracle.Record) {
	if e.checkErr != nil {
		return
	}
	if err := e.checker.Verify(rec); err != nil {
		e.checkErr = err
	}
}

// flushOldestCheck verifies the oldest live thread's buffered commits once
// it is promoted. Called after thread-set changes (retiring parent freed,
// promotions cascaded) that may have made buffered work the oldest.
func (e *Engine) flushOldestCheck() {
	if e.checker == nil {
		return
	}
	if ts := e.liveByOrder(); len(ts) > 0 && ts[0].promoted {
		e.flushCheck(ts[0])
	}
}

// flushFinalCheck runs at end of a completed run: it verifies remaining
// buffered commits down the promoted chain, stopping at the first thread
// that still holds uncommitted work (its successors' commits would leave a
// program-order gap the oracle cannot skip).
func (e *Engine) flushFinalCheck() {
	if e.checker == nil {
		return
	}
	for _, t := range e.liveByOrder() {
		if !t.promoted {
			break
		}
		e.flushCheck(t)
		if !threadDrained(t) {
			break
		}
	}
}

// threadDrained reports whether a thread has no uncommitted, unsquashed
// work left — nothing of its stream remains to commit.
func threadDrained(t *thread) bool {
	for i := t.robHead; i < len(t.rob); i++ {
		if t.rob[i].state != stSquashed {
			return false
		}
	}
	for _, u := range t.fetchBuf[t.fbHead:] {
		if u.state != stSquashed {
			return false
		}
	}
	return true
}

// oldestLive returns the oldest live thread, or nil.
func (e *Engine) oldestLive() *thread {
	if ts := e.liveByOrder(); len(ts) > 0 {
		return ts[0]
	}
	return nil
}

// CheckedCommits returns the number of useful commits verified against the
// lockstep oracle (0 when checking is disabled).
func (e *Engine) CheckedCommits() uint64 {
	if e.checker == nil {
		return 0
	}
	return e.checker.Verified()
}

// FinalCheck compares end-of-run architectural state (surviving register
// file and the memory image) against the oracle. It is meaningful after a
// run that committed HALT, where the halting thread's stores have all
// settled into memory; with checking disabled it reports nothing.
func (e *Engine) FinalCheck() error {
	if e.checker == nil {
		return nil
	}
	regs, ok := e.ArchRegs()
	if !ok {
		return nil
	}
	return e.checker.Final(regs, e.mem)
}
