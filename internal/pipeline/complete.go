package pipeline

import (
	"fmt"

	"mtvp/internal/crit"
	"mtvp/internal/trace"
)

// windowMinCycles is the minimum ILP-pred measurement window. Windows run
// from prediction to at least this many cycles later even when the load
// returns quickly, so the handoff costs and drain bursts around a spawn are
// inside the measurement rather than after it.
const windowMinCycles = 256

// deferWindow schedules the event's forward-progress observation for when
// its measurement window closes.
func (e *Engine) deferWindow(ev *vpEvent) {
	if e.now >= ev.startCycle+windowMinCycles {
		e.observeWindow(ev)
		return
	}
	e.pendingWindows = append(e.pendingWindows, ev)
	ev.inWindow = true
	// Event edge: flushWindows must observe the window on exactly the
	// cycle its minimum length elapses (the selector is fed e.now).
	e.wake(ev.startCycle + windowMinCycles)
}

// observeWindow reports one closed window to the selector. Forward progress
// is measured in net useful committed instructions (the paper's
// committed-count ILP-pred variant): issued counts would credit wrong-path
// work from children that are about to be killed.
func (e *Engine) observeWindow(ev *vpEvent) {
	var progress uint64
	if e.st.Committed > ev.startProgress {
		progress = e.st.Committed - ev.startProgress
	}
	e.sel.Observe(ev.pc, ev.mode, progress, uint64(e.now-ev.startCycle))
}

// flushWindows observes every pending window whose minimum length has
// elapsed, releasing its event.
func (e *Engine) flushWindows() {
	kept := e.pendingWindows[:0]
	for _, ev := range e.pendingWindows {
		if e.now >= ev.startCycle+windowMinCycles {
			e.observeWindow(ev)
			ev.inWindow = false
			e.releaseEvent(ev)
		} else {
			kept = append(kept, ev)
		}
	}
	clear(e.pendingWindows[len(kept):])
	e.pendingWindows = kept
}

// complete retires finished executions: it marks results available,
// releases branch-blocked fetch, and resolves value-prediction events when
// the predicted load's real value returns from the memory system.
func (e *Engine) complete() {
	e.flushWindows()
	for {
		u, ok := e.completions.pop(e.now)
		if !ok {
			return
		}
		e.setUopState(u, stDone)
		// Event edge: the result unblocks consumers (issue), the ROB head
		// (commit), and possibly branch-blocked fetch, all next cycle.
		e.wake(e.now + 1)
		e.emit(trace.KComplete, u)
		if u.mispredicted && u.thread.live && u.thread.blockedOn == u {
			u.thread.blockedOn = nil
			if u.thread.fetchBlocked < e.now+1 {
				u.thread.fetchBlocked = e.now + 1
			}
		}
		if ev := u.vp.get(); ev != nil && !ev.resolved {
			e.resolveEvent(ev)
		}
	}
}

// resolveEvent handles a value prediction whose load has returned: it
// feeds the ILP-pred measurement window, verifies the prediction, and
// confirms or kills speculative threads. It releases the event, which the
// pool frees unless its window is still open or a confirmation pinned it.
func (e *Engine) resolveEvent(ev *vpEvent) {
	ev.resolved = true
	e.deferWindow(ev)
	defer e.releaseEvent(ev)
	if ev.measureOnly {
		return
	}

	switch ev.mode {
	case crit.DecideSTVP:
		t := ev.load.thread
		t.unverifiedSTVP--
		e.noteOutcome(t, ev.correct)
		if ev.correct {
			e.st.VPCorrect++
			return
		}
		e.st.VPWrong++
		e.noteWrongButPresent(ev)
		e.selectiveReissue(ev.load)
		// A thread spawned after this load forked register state that
		// embedded the wrong value; it cannot be repaired by reissue
		// (it may have committed dependents), so it dies and the parent
		// re-executes its stream itself.
		if sp := t.pendingSpawn; sp != nil && sp.load != nil && sp.load.seq > ev.load.seq {
			e.abandonEvent(sp)
			t.stallFetch = false
			if t.fetchBlocked < e.now+1 {
				t.fetchBlocked = e.now + 1
			}
		}

	case crit.DecideMTVP:
		t := ev.load.thread
		t.pendingSpawn = nil

		var survivor *thread
		for i, c := range ev.children {
			if c := c.liveThread(); c != nil && ev.childVals[i] == ev.actual {
				survivor = c
				break
			}
		}
		if ev.spawnOnly && len(ev.children) > 0 {
			if c := ev.children[0].liveThread(); c != nil {
				survivor = c
			}
		}

		if survivor == nil {
			// Every followed value was wrong: kill the children and
			// let the parent proceed past the load with the real value.
			if !ev.spawnOnly {
				e.st.VPWrong++
				e.noteWrongButPresent(ev)
				e.noteOutcome(t, false)
			}
			for _, c := range ev.children {
				if c := c.liveThread(); c != nil {
					e.killSubtree(c)
				}
			}
			// The fork point is t's alone again.
			t.overlay.Settle()
			t.stallFetch = false
			if t.fetchBlocked < e.now+1 {
				t.fetchBlocked = e.now + 1
			}
			return
		}

		if !ev.spawnOnly {
			e.st.VPCorrect++
			if survivor != ev.children[0].get() {
				e.st.MultiValueSaves++
			}
			e.noteOutcome(t, true)
		}
		e.st.Confirms++
		for _, c := range ev.children {
			if c := c.liveThread(); c != nil && c != survivor {
				e.killSubtree(c)
			}
		}
		// The parent drains its remaining commits (through the load)
		// and then hands its place in the lineage to the survivor. Any
		// redundant post-load work the parent did under the no-stall
		// policy is squashed now.
		if e.tracer != nil {
			e.emitContext(trace.KConfirm, survivor.id, survivor, t, fmt.Sprintf("prediction at pc %d confirmed; T%d/%d retiring",
				ev.load.ex.PC, t.id, t.order))
		}
		e.squashYoungerThan(t, ev.load.seq)
		t.retiring = true
		t.stallFetch = false
		// The survivor (or whatever live thread replaces it in the
		// event's child list by drain time) inherits t's lineage slot.
		t.confirmEvent = ev
		ev.pinned = true
	}
}

// noteWrongButPresent implements the Figure 5 measurement: the primary
// prediction was wrong, but the correct value was in the predictor and over
// threshold as an alternate.
func (e *Engine) noteWrongButPresent(ev *vpEvent) {
	for _, alt := range ev.alternates {
		if alt.Value == ev.actual {
			e.st.VPWrongButPresent++
			return
		}
	}
}

// selectiveReissue models single-threaded value-prediction recovery: every
// instruction that (transitively) consumed the mispredicted load's value
// re-executes once the real value is available. Instructions that never
// issued are untouched — they will simply issue with the right value.
//
// The walk needs no visited set: a uop reached again is already stWaiting
// from its first visit, and dependence edges run old to young, so the load
// cannot recur.
func (e *Engine) selectiveReissue(load *uop) {
	work := e.reissueBuf[:0]
	for _, cr := range load.consumers {
		// A stale ref names a recycled uop whose old lifetime already
		// committed or squashed — exactly the states the walk skips.
		if c := cr.get(); c != nil {
			work = append(work, c)
		}
	}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		switch u.state {
		case stIssued, stDone:
			// Consumed a (possibly) wrong value: squash the result
			// and return to the queue. Taking a done result back
			// re-arms u's own consumers.
			e.setUopState(u, stWaiting)
			u.issueGen++
			e.qUsed[u.queue]++
			u.thread.icount++
			e.wake(e.now + 1) // may re-issue next cycle
			e.st.Reissues++
			e.emit(trace.KReissue, u)
			for _, cr := range u.consumers {
				if c := cr.get(); c != nil {
					work = append(work, c)
				}
			}
		default:
			// Waiting, fetched, or squashed: never executed with the
			// wrong value; its consumers cannot have either.
		}
	}
	e.reissueBuf = work
}

// squashYoungerThan squashes every uop in t younger than seq (exclusive):
// the redundant post-spawn stream of a confirmed parent under the no-stall
// fetch policy. It also unwinds any value-prediction events those uops
// carried.
func (e *Engine) squashYoungerThan(t *thread, seq uint64) {
	for i := len(t.rob) - 1; i >= t.robHead; i-- {
		u := t.rob[i]
		if u.seq <= seq {
			break
		}
		e.squashUop(u)
	}
	// Drop squashed entries from the fetch buffer and store queue.
	fb := t.fetchBuf[:0]
	for _, u := range t.fetchBuf[t.fbHead:] {
		if u.state != stSquashed {
			fb = append(fb, u)
		}
	}
	for i := len(fb); i < len(t.fetchBuf); i++ {
		t.fetchBuf[i] = nil
	}
	t.fetchBuf = fb
	t.fbHead = 0
	sq := t.storeQ[:0]
	for _, se := range t.storeQ {
		if se.u == nil || se.u.state != stSquashed {
			sq = append(sq, se)
		} else {
			e.noteStoreFree(1)
		}
	}
	t.storeQ = sq
}

// squashUop removes one uop from the machine, releasing whatever resources
// its state holds. Committed uops cannot be squashed here (thread kills
// handle committed-work accounting separately).
func (e *Engine) squashUop(u *uop) {
	if u.state == stSquashed || u.state == stCommitted {
		return
	}
	switch u.state {
	case stFetched:
		u.thread.icount--
	case stWaiting:
		u.thread.icount--
		e.qUsed[u.queue]--
		e.robUsed--
		if u.usesRename {
			e.renameUsed--
		}
	case stIssued, stDone:
		e.robUsed--
		if u.usesRename {
			e.renameUsed--
		}
	}
	e.setUopState(u, stSquashed)
	u.issueGen++
	// Event edge: a squashed ROB or fetch-buffer head is consumed for free
	// next cycle, and the released resources may unblock dispatch.
	e.wake(e.now + 1)
	e.st.Squashed++
	e.emit(trace.KSquash, u)
	if ev := u.vp.get(); ev != nil && !ev.resolved {
		e.abandonEvent(ev)
	}
}

// abandonEvent resolves an event whose load was squashed: its children are
// wrong-path threads of a wrong-path prediction and die with it. No window
// is measured, so the event is freed here.
func (e *Engine) abandonEvent(ev *vpEvent) {
	ev.resolved = true
	if ev.load != nil {
		t := ev.load.thread
		switch ev.mode {
		case crit.DecideSTVP:
			t.unverifiedSTVP--
		case crit.DecideMTVP:
			if t.pendingSpawn == ev {
				t.pendingSpawn = nil
			}
		}
	}
	for _, c := range ev.children {
		if c := c.liveThread(); c != nil {
			e.killSubtree(c)
		}
	}
	e.releaseEvent(ev)
}

// killSubtree kills t and every live descendant of t, the descendants
// oldest first and t last. The dead threads go back to the pool only once
// the whole subtree is dead, so no live thread's lineage ever names a
// recycled thread.
func (e *Engine) killSubtree(t *thread) {
	base := e.pushDescendants(t)
	e.victims = append(e.victims, t)
	for i := base; i < len(e.victims); i++ {
		if !e.killOne(e.victims[i]) {
			e.victims[i] = nil // already dead: a cascade killed and freed it
		}
	}
	for _, v := range e.victims[base:] {
		if v != nil {
			e.freeThread(v)
		}
	}
	e.popVictims(base)
}

// pushDescendants pushes t's live descendants, oldest first, onto the
// victims stack and returns the index of the first. Killers collect their
// victims before killing any, because each kill changes ordered in place;
// a kill that cascades into further kills (an abandoned event's children)
// pushes its own victims above these and pops them before returning. Kills
// allocate nothing, so a victim killed by such a cascade stays a dead,
// unreused carcass that killOne skips.
func (e *Engine) pushDescendants(t *thread) int {
	base := len(e.victims)
	for _, o := range e.ordered {
		if o != t && descendsFrom(o, t) {
			e.victims = append(e.victims, o)
		}
	}
	return base
}

// popVictims drops the victims pushed since base.
func (e *Engine) popVictims(base int) {
	clear(e.victims[base:])
	e.victims = e.victims[:base]
}

func descendsFrom(t, anc *thread) bool {
	for cur := t.parent; cur != nil; cur = cur.parent {
		if cur == anc {
			return true
		}
	}
	return false
}

// killOne destroys a single speculative thread: all of its in-flight work
// is squashed, its committed instructions are discounted from useful IPC,
// and its store-buffer overlay is released. It reports whether t was alive;
// the caller frees the thread.
func (e *Engine) killOne(t *thread) bool {
	if !t.live {
		return false
	}
	for i := t.robHead; i < len(t.rob); i++ {
		e.squashUop(t.rob[i])
	}
	if t.pendingSpawn != nil && !t.pendingSpawn.resolved {
		// The spawn load may already have completed; make sure the
		// event cannot fire later against a dead thread.
		e.abandonEvent(t.pendingSpawn)
	}
	e.st.Squashed += t.committed
	e.st.Committed -= t.committed
	e.st.Kills++
	if e.tracer != nil {
		e.emitContext(trace.KKill, t.id, t, nil, fmt.Sprintf("committed %d discounted", t.committed))
	}
	t.live = false
	t.killed = true
	t.retiring = false
	if ev := t.confirmEvent; ev != nil {
		// A retiring thread dies before its heir takes over.
		t.confirmEvent = nil
		ev.pinned = false
		e.releaseEvent(ev)
	}
	// Event edge: the freed context and resources change what the next
	// cycle can do (spawns, dispatch, the parent's fetch restart).
	e.wake(e.now + 1)
	e.threadRemoved(t)
	e.noteStoreFree(len(t.storeQ))
	clear(t.fetchBuf)
	t.fetchBuf = t.fetchBuf[:0]
	t.fbHead = 0
	t.storeQ = t.storeQ[:0]
	// The thread's commits were discounted from useful work above; the
	// checker must never verify them.
	t.checkBuf = t.checkBuf[:0]
	t.overlay.Release()
	e.slots[t.id] = nil
	if e.auditOn {
		e.auditKill(t)
	}
	// Recycle after the kill audit so dangling-rename checks still see the
	// dead uops' original generations.
	e.freeROB(t)
	return true
}
