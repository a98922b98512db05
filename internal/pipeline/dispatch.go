package pipeline

import (
	"mtvp/internal/crit"
	"mtvp/internal/fault"
	"mtvp/internal/trace"
)

// dispatch renames and inserts fetched uops into the issue queues and the
// ROB, oldest thread first, until the cycle's bandwidth (commitWidth, the
// same budget commit spends) or a shared resource (ROB entries, rename
// registers, queue slots, store-buffer entries) runs out. Instructions
// become dispatchable FrontEndDepth cycles after fetch, modelling the deep
// front end of the 30-stage pipe.
func (e *Engine) dispatch() {
	budget := commitWidth
	for _, t := range e.liveByOrder() {
		if t.dispatchHold > e.now {
			continue
		}
		for budget > 0 && t.fetchBufLen() > 0 {
			u := t.fetchBuf[t.fbHead]
			if u.state == stSquashed {
				t.fetchBuf[t.fbHead] = nil
				t.fbHead++
				continue
			}
			if u.fetchCycle+int64(e.cfg.FrontEndDepth) > e.now {
				break
			}
			if !e.tryDispatch(t, u) {
				break
			}
			t.fetchBuf[t.fbHead] = nil
			t.fbHead++
			budget--
		}
	}
}

// tryDispatch allocates resources and dependence links for u. It returns
// false when a structural resource is exhausted (the thread stalls).
func (e *Engine) tryDispatch(t *thread, u *uop) bool {
	if e.robUsed >= e.cfg.ROBSize {
		return false
	}
	if e.qUsed[u.queue] >= e.qCap[u.queue] {
		return false
	}
	u.usesRename = u.hasDest
	if u.usesRename && e.renameUsed >= e.cfg.RenameRegs {
		return false
	}
	isStore := u.dec.IsStore
	if isStore && e.storeBufFull(t) {
		return false
	}

	// Register dependences. The last-writer table may point at producers
	// in ancestor threads (state copied at spawn). A stale ref names a
	// recycled uop that committed or was squashed in a past lifetime, which
	// the pre-pool code skipped by state check.
	for _, r := range u.dec.Srcs() {
		w := t.lastWriter[r].get()
		if w == nil || w.state == stCommitted || w.state == stSquashed {
			continue
		}
		u.prods[u.nProds] = ref(w)
		u.nProds++
		w.consumers = append(w.consumers, ref(u))
		if !producerReady(w) {
			u.unready++
		}
	}

	// Loads: find a forwarding store on the speculation chain, if any.
	if u.dec.IsLoad {
		src, ok := t.forwardSource(u.seq, u.ex.Addr, u.dec.MemSize)
		if e.auditOn {
			e.auditForward(t, u, src, ok)
		}
		if ok {
			u.fwdStore = true
			if src != nil && src.state != stCommitted && src.state != stSquashed {
				u.fwdFrom = ref(src)
				src.consumers = append(src.consumers, ref(u))
				if !producerReady(src) {
					u.unready++
				}
			}
		}
	}

	if u.hasDest {
		t.lastWriter[u.ex.Inst.Rd] = ref(u)
	}
	if isStore {
		if e.injectFault(fault.StoreDrop) {
			// Timing-level store-buffer entry lost: no forwarding to
			// younger loads and no drain traffic. Functional state is
			// untouched — the store's value already lives in the
			// thread's overlay — so only timing suffers.
		} else {
			se := storeEntry{
				addr: u.ex.Addr,
				size: u.dec.MemSize,
				u:    u,
			}
			if e.injectFault(fault.StoreCorrupt) {
				// Corrupted address tag: forwarding matches and drain
				// traffic hit the wrong line. Again timing-only — load
				// values come from the functional layer.
				se.addr ^= 1 + e.inj.Rand64()&63
			}
			t.storeQ = append(t.storeQ, se)
			e.noteStoreAlloc()
		}
	}

	// A followed single-thread prediction makes the load's destination
	// speculatively available to consumers immediately. Rename maps name
	// only dispatched uops, so no consumer should be linked yet; waking
	// any that is keeps the counts exact whatever the linking order.
	if ev := u.vp.get(); ev != nil && ev.mode == crit.DecideSTVP && !u.specReady {
		u.specReady = true
		e.producerChanged(u, true)
	}

	if e.injectFault(fault.IQStick) {
		// Wedged issue-queue slot: the uop refuses to issue until the
		// stick elapses or the recovery controller force-clears it.
		u.stuckUntil = e.now + int64(e.inj.Profile().StickCycles)
		e.stuck = append(e.stuckUops(), ref(u))
		e.wake(u.stuckUntil)
	}

	e.setUopState(u, stWaiting)
	u.dispatchCycle = e.now
	e.robUsed++
	e.qUsed[u.queue]++
	if u.usesRename {
		e.renameUsed++
	}
	// Event edge: the dispatched uop (or a consumer its STVP specReady just
	// unblocked) may issue next cycle, and the thread's next head may
	// dispatch.
	e.wake(e.now + 1)
	e.emit(trace.KDispatch, u)
	return true
}
