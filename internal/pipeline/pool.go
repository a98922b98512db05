package pipeline

// The uop free list. Steady-state simulation churns through one uop per
// dynamic instruction; recycling them through a per-engine pool removes
// that allocation entirely (TestZeroAllocSteadyState pins it).
//
// Discipline:
//
//   - A uop may be freed only once it is stCommitted or stSquashed and has
//     been removed from every engine-owned container that stores bare
//     pointers (its thread's rob, fetchBuf, storeQ). The ready set and the
//     stuck list hold uopRefs and drop stale entries lazily.
//   - Fields are reset at ALLOCATION, not at free. Between free and reuse
//     the carcass keeps its terminal state.
//   - gen is bumped at free, invalidating every uopRef into the old
//     lifetime: a ready-set entry left behind by the width limits may name
//     a uop that is squashed, freed and reallocated before the next issue,
//     and the gen check drops it without touching the new occupant.
//     issueGen is never reset: completion-heap entries from a previous
//     lifetime can therefore never match a recycled uop.
func (e *Engine) allocUop() *uop {
	n := len(e.uopFree)
	if n == 0 {
		return &uop{}
	}
	u := e.uopFree[n-1]
	e.uopFree[n-1] = nil
	e.uopFree = e.uopFree[:n-1]
	gen, issueGen := u.gen, u.issueGen
	prods, consumers := u.prods[:0], u.consumers[:0]
	*u = uop{gen: gen, issueGen: issueGen, prods: prods, consumers: consumers}
	return u
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
