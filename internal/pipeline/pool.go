package pipeline

import "mtvp/internal/isa"

// uopConsumerCap is the consumer-list capacity a fresh uop starts with,
// read off consumer counts over whole uop lifetimes: two consumers or
// fewer covers 92-100% of uops by workload, four covers 99.9% or more on
// the fig3 stand-ins (baseline and MTVP8) and on the steady-state
// benchmarks, and 98.9% on twolf, the widest fan-out measured. A pooled
// uop keeps whatever capacity it reached.
const uopConsumerCap = 4

// uopSlabLen is the number of fresh uops carved from one slab. It is 63,
// not 64, because the Go runtime puts an 8-byte header in front of every
// allocation over 512 bytes that holds pointers: 64 uops of 256 bytes
// would take 16,392 bytes and round up to the 18,432-byte size class,
// while 63 uops fit the 16 KB class and their 4,032-byte consumer array
// the 4 KB class.
const uopSlabLen = 63

// Free lists. Steady-state simulation churns through one uop per dynamic
// instruction, and MTVP through one spawned thread (with its context,
// overlays and event) per followed prediction. Recycling all of them
// through per-engine pools removes that allocation entirely
// (TestZeroAllocSteadyState pins it). Overlays recycle through the engine's
// storebuf.Pool on the same discipline.
//
// The uop pool fills from slabs: when the free list is empty, allocUop
// carves the next uop from a []uop of uopSlabLen entries, and its consumer
// list from a shared []uopRef of uopSlabLen*uopConsumerCap entries, as a
// 3-index slice of capacity uopConsumerCap. A list that outgrows its slot
// reallocates on append and leaves the slot unused. Two heap objects thus
// serve uopSlabLen fresh uops, where one uop and one array each cost two.
// A slab lives as long as any uop carved from it, which is the engine's
// lifetime, since the engine never releases a uop to the heap.
//
// Discipline:
//
//   - An object may be freed only once nothing engine-owned holds a bare
//     pointer to it: a uop once it is stCommitted or stSquashed and out of
//     its thread's rob, fetchBuf and storeQ; a thread once it is dead and
//     out of slots and ordered; an event once it is resolved, its ILP-pred
//     window is closed, and no retiring thread names it as its
//     confirmEvent. The ready set, the stuck list, ev.children, thread.spawn
//     and uop.vp hold generation-checked refs and treat a stale one as the
//     terminal state (committed or squashed, dead, resolved).
//   - Fields are reset at ALLOCATION, not at free. Between free and reuse
//     the carcass keeps its terminal state, so a walk that meets it in the
//     middle of a kill (a victim an earlier kill of the same walk already
//     killed and freed) still reads what it read before pooling.
//   - gen is bumped at free, invalidating every ref into the old lifetime:
//     a ready-set entry left behind by the width limits may name a uop that
//     is squashed, freed and reallocated before the next issue, and the gen
//     check drops it without touching the new occupant. issueGen is never
//     reset: completion-heap entries from a previous lifetime can therefore
//     never match a recycled uop.
//   - Slices an object owns keep their capacity across lifetimes.
func (e *Engine) allocUop() *uop {
	n := len(e.uopFree)
	if n == 0 {
		return e.carveUop()
	}
	u := e.uopFree[n-1]
	e.uopFree[n-1] = nil
	e.uopFree = e.uopFree[:n-1]
	// Zero in place and restore the kept fields: assigning a composite
	// literal would build it in a temporary and copy it over.
	gen, issueGen, consumers := u.gen, u.issueGen, u.consumers[:0]
	*u = uop{}
	u.gen, u.issueGen, u.consumers = gen, issueGen, consumers
	return u
}

// carveUop returns a fresh, zeroed uop from the current slab, starting a
// new slab when it is used up.
func (e *Engine) carveUop() *uop {
	if len(e.uopSlab) == 0 {
		e.uopSlab = make([]uop, uopSlabLen)
		e.consumerSlab = make([]uopRef, uopSlabLen*uopConsumerCap)
	}
	u := &e.uopSlab[0]
	e.uopSlab = e.uopSlab[1:]
	u.consumers = e.consumerSlab[:0:uopConsumerCap]
	e.consumerSlab = e.consumerSlab[uopConsumerCap:]
	e.freshUops++
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

// freeROB frees every uop in t.rob and empties the slice and the store
// list, keeping their capacity. Valid only when the thread is done: each
// entry committed or squashed, the fetch buffer empty or abandoned, and the
// store queue free of in-flight entries.
func (e *Engine) freeROB(t *thread) {
	for _, u := range t.rob {
		e.freeUop(u)
	}
	clear(t.rob)
	t.rob = t.rob[:0]
	t.robHead = 0
	clear(t.stores)
	t.stores = t.stores[:0]
}

// compactROB drops committed/squashed prefix entries once they dominate the
// slice, recycling them through the pool, and trims the store list's
// prefix those frees made stale.
func (e *Engine) compactROB(t *thread) {
	if t.robHead > 256 && t.robHead > len(t.rob)/2 {
		for _, u := range t.rob[:t.robHead] {
			e.freeUop(u)
		}
		n := copy(t.rob, t.rob[t.robHead:])
		clear(t.rob[n:])
		t.rob = t.rob[:n]
		t.robHead = 0

		k := 0
		for k < len(t.stores) && t.stores[k].get() == nil {
			k++
		}
		n = copy(t.stores, t.stores[k:])
		clear(t.stores[n:])
		t.stores = t.stores[:n]
	}
}

// allocThread returns a thread with every field zeroed except its
// generation, its context and the capacity of its slices.
func (e *Engine) allocThread() *thread {
	n := len(e.threadFree)
	if n == 0 {
		return &thread{ctx: &isa.Context{}}
	}
	t := e.threadFree[n-1]
	e.threadFree[n-1] = nil
	e.threadFree = e.threadFree[:n-1]
	gen, ctx := t.gen, t.ctx
	rob, fetchBuf, stores := t.rob[:0], t.fetchBuf[:0], t.stores[:0]
	storeQ, checkBuf := t.storeQ[:0], t.checkBuf[:0]
	*t = thread{}
	t.gen, t.ctx = gen, ctx
	t.rob, t.fetchBuf, t.stores = rob, fetchBuf, stores
	t.storeQ, t.checkBuf = storeQ, checkBuf
	return t
}

// freeThread returns a dead thread to the pool. The caller must have
// removed it from slots and ordered and freed its ROB; threadRefs to it go
// stale via the gen bump.
func (e *Engine) freeThread(t *thread) {
	if t.pooled {
		panic("pipeline: thread double-free")
	}
	if t.live {
		panic("pipeline: freeing a live thread")
	}
	t.pooled = true
	t.gen++
	e.threadFree = append(e.threadFree, t)
}

// allocEvent returns an event with every field zeroed except its
// generation and the capacity of its slices.
func (e *Engine) allocEvent() *vpEvent {
	n := len(e.eventFree)
	if n == 0 {
		return &vpEvent{}
	}
	ev := e.eventFree[n-1]
	e.eventFree[n-1] = nil
	e.eventFree = e.eventFree[:n-1]
	gen := ev.gen
	children, childVals, alternates := ev.children[:0], ev.childVals[:0], ev.alternates[:0]
	*ev = vpEvent{}
	ev.gen = gen
	ev.children, ev.childVals, ev.alternates = children, childVals, alternates
	return ev
}

// releaseEvent frees ev once nothing needs it any more: it is resolved, its
// measurement window is closed, and no retiring thread still looks up its
// heir in ev.children. Every site that drops one of those holds calls it.
func (e *Engine) releaseEvent(ev *vpEvent) {
	if !ev.resolved || ev.inWindow || ev.pinned {
		return
	}
	if ev.pooled {
		panic("pipeline: event double-free")
	}
	ev.pooled = true
	ev.gen++
	e.eventFree = append(e.eventFree, ev)
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
