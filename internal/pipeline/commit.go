package pipeline

import (
	"slices"

	"mtvp/internal/isa"
	"mtvp/internal/trace"
)

// commitWidth is the per-cycle bandwidth of both commit and dispatch:
// each stage spends this budget every cycle. Table 1 does not give it and
// no experiment varies it, so it is a constant of the modelled machine.
const commitWidth = 8

// commit retires done instructions in order from each thread's ROB, oldest
// thread first, within the shared commit bandwidth. This is the stage that
// gives threaded value prediction its advantage: a spawned thread commits
// past the stalled load (into its store buffer), while a single thread
// would be blocked behind it.
func (e *Engine) commit() {
	budget := commitWidth
	// Indexed, not ranged: freeRetiring removes t from ordered in place.
	for i := 0; i < len(e.ordered); i++ {
		t := e.ordered[i]
		for budget > 0 {
			if t.robHead >= len(t.rob) {
				break
			}
			u := t.rob[t.robHead]
			if u.state == stSquashed {
				t.robHead++
				continue
			}
			if u.state != stDone {
				break
			}
			e.commitOne(t, u)
			budget--
			if e.finished {
				return
			}
		}
		e.compactROB(t)
		if t.retiring && t.robEmpty() {
			e.freeRetiring(t)
			if e.finished { // a drained elder released a buffered HALT
				return
			}
			i-- // t's successor moved into its place
		}
	}
}

func (e *Engine) commitOne(t *thread, u *uop) {
	if e.auditOn {
		e.auditCommit(t, u)
	}
	e.setUopState(u, stCommitted)
	t.robHead++
	e.robUsed--
	if u.usesRename {
		e.renameUsed--
	}
	t.committed++
	e.st.Committed++
	e.lastProgress = e.now
	e.noteCommitProgress()
	// Event edge: freed ROB/rename/store resources and the advanced head
	// make the next cycle actionable (more commits, blocked dispatch).
	e.wake(e.now + 1)
	if e.commitHook != nil {
		e.commitHook(u)
	}
	if e.checker != nil {
		e.checkCommit(t, u)
	}
	e.emit(trace.KCommit, u)

	switch {
	case u.dec.IsLoad:
		// Commit-time value-predictor training, as in the paper — but
		// only from the non-speculative lineage: speculative threads
		// commit out of program order relative to each other (and may be
		// wrong-path entirely), and letting them train garbles the value
		// history and pattern tables.
		if t.promoted {
			e.vp.Train(u.dec.InstAddr, u.ex.Value)
		}
	case u.dec.IsStore:
		e.commitStore(t, u)
	case u.dec.Inst.Op == isa.HALT:
		// The run ends only once the halting thread is the oldest live
		// thread: a promoted thread can commit HALT while a confirmed-away
		// elder is still draining older work, and finishing then would
		// freeze architectural state (and the checker's commit stream)
		// with that older work permanently missing.
		t.haltCommitted = true
		if t.promoted && e.oldestLive() == t {
			e.finishAt(t)
		}
	}
}

// commitStore retires a store: a non-speculative thread's store leaves the
// buffer and writes the cache; a speculative thread's store stays buffered
// (occupying its entry) until the thread is confirmed all the way up.
func (e *Engine) commitStore(t *thread, u *uop) {
	for i := range t.storeQ {
		if t.storeQ[i].u == u {
			if t.promoted {
				if e.auditOn {
					e.auditStoreDrain(t, t.storeQ[i].addr)
				}
				e.hier.Store(t.storeQ[i].addr)
				t.storeQ = append(t.storeQ[:i], t.storeQ[i+1:]...)
				e.noteStoreFree(1)
			} else {
				t.storeQ[i].u = nil // data committed, entry retained
			}
			return
		}
	}
}

// freeRetiring releases a confirmed-away parent once its final commits have
// drained, splicing its heir into its place in the thread lineage. The heir
// is looked up in the confirmed event's child list at drain time: if the
// original survivor has itself confirmed away in the meantime, the list
// already names its replacement.
func (e *Engine) freeRetiring(t *thread) {
	var heir *thread
	if ev := t.confirmEvent; ev != nil {
		for _, c := range ev.children {
			if heir = c.liveThread(); heir != nil {
				break
			}
		}
		t.confirmEvent = nil
		ev.pinned = false
		e.releaseEvent(ev)
	}
	defer e.freeThread(t)
	t.retiring = false
	t.live = false
	// Event edge: the freed context, the heir's promotion, and any drained
	// stores change what the next cycle can do.
	e.wake(e.now + 1)
	e.slots[t.id] = nil
	e.threadRemoved(t)
	t.overlay.Release()
	// The drained ROB holds only committed/squashed uops; recycle them. Any
	// remaining storeQ entries carry u == nil (their stores committed before
	// the drain finished), so the transfer below never revives a freed uop.
	e.freeROB(t)

	if heir == nil {
		// Every child of the confirmed event died with a mispredicted
		// ancestor before the drain finished; nothing inherits. Any
		// still-buffered checker records die with the lineage — this
		// stream will be refetched (under new sequence numbers) by the
		// surviving ancestor.
		t.checkBuf = t.checkBuf[:0]
		e.flushOldestCheck()
		return
	}
	heir.parent = t.parent
	heir.spawn = t.spawn
	heir.committed += t.committed
	if len(t.checkBuf) > 0 {
		// A parent that retired while itself still speculative hands its
		// unverified commits to the heir along with its lineage slot.
		heir.checkBuf = slices.Insert(heir.checkBuf, 0, t.checkBuf...)
		t.checkBuf = t.checkBuf[:0]
	}
	if sp := t.spawn.get(); sp != nil {
		for i, c := range sp.children {
			if c.get() == t {
				sp.children[i] = refThread(heir)
			}
		}
	}
	// Older buffered stores transfer to the heir so load forwarding and
	// buffer occupancy stay correct.
	if len(t.storeQ) > 0 {
		heir.storeQ = slices.Insert(heir.storeQ, 0, t.storeQ...)
	}
	e.promoteReady()
}

// promoteReady promotes every thread whose ancestry has become fully
// non-speculative: its buffered committed stores drain to the cache and
// whatever its overlay chain no longer shares with a live path settles into
// memory.
func (e *Engine) promoteReady() {
	for _, t := range e.liveByOrder() {
		if t.promoted || t.isSpec() {
			continue
		}
		t.promoted = true
		e.emitContext(trace.KPromote, t.id, t, nil, "non-speculative; store buffer drains")
		kept := t.storeQ[:0]
		for _, se := range t.storeQ {
			if se.u == nil || se.u.state == stCommitted {
				if e.auditOn {
					e.auditStoreDrain(t, se.addr)
				}
				e.hier.Store(se.addr)
				e.noteStoreFree(1)
			} else {
				kept = append(kept, se)
			}
		}
		t.storeQ = kept
		t.overlay.Settle()
	}
	// A buffered HALT fires once its thread surfaces as the oldest live
	// thread — every elder drained and freed, so the program truly is over.
	if ts := e.liveByOrder(); !e.finished && len(ts) > 0 && ts[0].promoted && ts[0].haltCommitted {
		e.haltReleases++
		e.finishAt(ts[0])
	}
	e.flushOldestCheck()
}

// finishAt ends the simulation: a non-speculative thread committed HALT.
// Outstanding speculative threads are wrong-path by definition (the program
// is over) and are killed, leaving t the only live context, so its whole
// overlay chain settles and memory holds the final architectural image.
func (e *Engine) finishAt(t *thread) {
	e.finished = true
	e.halted = true
	base := e.pushDescendants(t)
	for i := base; i < len(e.victims); i++ {
		e.killSubtree(e.victims[i])
	}
	e.popVictims(base)
	t.overlay.Settle()
}
