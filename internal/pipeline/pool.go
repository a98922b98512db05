package pipeline

// The uop free list. Steady-state simulation churns through one uop per
// dynamic instruction; recycling them through a per-engine pool removes
// that allocation entirely (TestZeroAllocSteadyState pins it).
//
// Discipline:
//
//   - A uop may be freed only once it is stCommitted or stSquashed and has
//     been removed from every engine-owned container that stores bare
//     pointers (its thread's rob, fetchBuf, storeQ, and — by the
//     stage-ordering argument below — the waiting lists).
//   - Fields are reset at ALLOCATION, not at free. Between free and reuse
//     the carcass keeps its terminal state, so any ghost entry still
//     naming it (a waiting-list slot not yet compacted) reads
//     stCommitted/stSquashed and drops it, just as it would have before
//     pooling. Frees happen in the commit/complete stages (and in the
//     end-of-cycle recovery path); reuse happens only in the fetch stage,
//     which every ghost-purging compactQueue pass precedes.
//   - gen is bumped at free, invalidating every uopRef into the old
//     lifetime. issueGen is never reset: completion-heap entries from a
//     previous lifetime can therefore never match a recycled uop.
//   - Every uop owns a permanent pool slot indexing the engine's
//     struct-of-arrays mirrors (soaState, soaStuck); the mirrors follow
//     the same discipline — reset at allocation, terminal state preserved
//     across free — so a slot held by a stale waiting-list entry reads
//     exactly what the stale pointer would have.
func (e *Engine) allocUop() *uop {
	n := len(e.uopFree)
	if n == 0 {
		u := &uop{slot: int32(len(e.slotUops))}
		e.slotUops = append(e.slotUops, u)
		e.soaState = append(e.soaState, stFetched)
		e.soaStuck = append(e.soaStuck, 0)
		return u
	}
	u := e.uopFree[n-1]
	e.uopFree[n-1] = nil
	e.uopFree = e.uopFree[:n-1]
	gen, issueGen, slot := u.gen, u.issueGen, u.slot
	prods, consumers := u.prods[:0], u.consumers[:0]
	*u = uop{gen: gen, issueGen: issueGen, slot: slot, prods: prods, consumers: consumers}
	e.soaState[slot] = stFetched
	e.soaStuck[slot] = 0
	return u
}

// setUopState is the single write path for a uop's pipeline state, keeping
// the struct field and the slot-indexed mirror in lockstep. The mirror is
// what the issue scan and the calendar's standing-edge refresh read.
func (e *Engine) setUopState(u *uop, s uopState) {
	u.state = s
	e.soaState[u.slot] = s
}

// setStuckUntil is the single write path for a uop's IQStick deadline,
// mirrored like setUopState.
func (e *Engine) setStuckUntil(u *uop, c int64) {
	u.stuckUntil = c
	e.soaStuck[u.slot] = c
}

// freeUop returns u to the pool. The caller must have unlinked u from every
// bare-pointer container first; uopRefs elsewhere go stale via the gen bump.
func (e *Engine) freeUop(u *uop) {
	if u.pooled {
		panic("pipeline: uop double-free")
	}
	if u.state != stCommitted && u.state != stSquashed {
		panic("pipeline: freeing an in-flight uop")
	}
	u.pooled = true
	u.gen++
	e.uopFree = append(e.uopFree, u)
}

// freeROB frees every uop in t.rob and drops the slice. Valid only when the
// thread is done: each entry committed or squashed, the fetch buffer empty
// or abandoned, and the store queue free of in-flight entries.
func (e *Engine) freeROB(t *thread) {
	for _, u := range t.rob {
		e.freeUop(u)
	}
	t.rob = nil
	t.robHead = 0
}

// compactROB drops committed/squashed prefix entries once they dominate the
// slice, recycling them through the pool.
func (e *Engine) compactROB(t *thread) {
	if t.robHead > 256 && t.robHead > len(t.rob)/2 {
		for _, u := range t.rob[:t.robHead] {
			e.freeUop(u)
		}
		n := copy(t.rob, t.rob[t.robHead:])
		tail := t.rob[n:]
		for i := range tail {
			tail[i] = nil
		}
		t.rob = t.rob[:n]
		t.robHead = 0
	}
}

// compactFetchBuf slides the fetch buffer's unconsumed suffix down once the
// consumed prefix dominates, so the slice never grows without bound while
// staying allocation-free in steady state.
func (t *thread) compactFetchBuf() {
	if t.fbHead > 64 && t.fbHead > len(t.fetchBuf)/2 {
		n := copy(t.fetchBuf, t.fetchBuf[t.fbHead:])
		tail := t.fetchBuf[n:]
		for i := range tail {
			tail[i] = nil
		}
		t.fetchBuf = t.fetchBuf[:n]
		t.fbHead = 0
	}
}
