// Package pipeline implements the execution-driven, cycle-level SMT
// out-of-order processor the paper evaluates on, including the threaded
// value prediction machinery itself: spawn, confirm, and kill of
// speculative hardware threads, single-fetch-path and no-stall fetch
// policies, selective reissue for single-threaded value prediction, and
// speculative store buffering via overlay chains.
//
// The functional layer is execute-at-fetch: every instruction is
// interpreted in its thread's architectural context the moment it is
// fetched, and the timing layer then models when its result becomes
// visible. Value-predicted spawns fork the functional context with the
// predicted value substituted, so a wrong prediction genuinely sends the
// child thread down a divergent data path until it is killed.
package pipeline

import (
	"mtvp/internal/cache"
	"mtvp/internal/isa"
)

type uopState uint8

const (
	stFetched uopState = iota // in the front-end pipe
	stWaiting                 // dispatched into an issue queue
	stIssued                  // executing
	stDone                    // result available
	stCommitted
	stSquashed
)

type queueKind uint8

const (
	qInt queueKind = iota
	qFP
	qMem
	numQueues
)

func queueFor(c isa.Class) queueKind {
	switch c {
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
		return qFP
	case isa.ClassLoad, isa.ClassStore:
		return qMem
	default:
		return qInt
	}
}

// uop is one in-flight instruction. uops are recycled through the engine's
// free list (pool.go): `gen` is bumped every time a uop is freed, so a
// uopRef taken in a previous lifetime can be detected as stale instead of
// silently aliasing the new occupant.
type uop struct {
	seq    uint64
	thread *thread
	ex     isa.Exec
	dec    *isa.Decoded // predecode-table entry for ex.Inst
	class  isa.Class
	queue  queueKind

	state    uopState
	gen      uint32 // pool lifetime; incremented on free
	issueGen uint32 // invalidates stale completion-heap entries

	fetchCycle    int64
	dispatchCycle int64
	doneCycle     int64

	// Register producers, the first nProds entries (fwdFrom is the other
	// edge). A uop reads at most three registers (isa.Decoded.SrcRegs),
	// so they live in the uop and dispatch never allocates for them.
	prods     [3]uopRef
	consumers []uopRef // uops that depend on this one's result, once per edge
	nProds    uint8

	// Wakeup. unready counts the edges (prods plus fwdFrom, a duplicated
	// source once per edge) whose producer is not producerReady; producers
	// keep it current as their readiness changes (issue.go). inReady marks
	// a current-lifetime entry in the engine's ready set.
	inReady bool
	unready int32

	// Memory.
	fwdFrom  uopRef // store this load forwards from (zero = cache access)
	hitLevel cache.HitLevel
	fwdStore bool // load forwards from a store buffer / queue entry

	// Branch.
	mispredicted bool

	hasDest    bool
	usesRename bool
	pooled     bool // on the free list (double-free guard)

	// Value prediction.
	specReady bool  // STVP: dest usable by consumers before the load returns
	vp        evRef // set if this load drives a VP event or window

	// Fault injection: an IQStick fault wedges the uop's queue slot until
	// this cycle (0 = not stuck). The recovery controller may clear it.
	stuckUntil int64
}

// uopRef is a generation-validated reference to a pooled uop. A ref goes
// stale when its target is freed — which only happens after the target
// committed or was squashed — so every consumer of a stale ref treats it
// exactly as it treated a committed/squashed pointer before pooling.
type uopRef struct {
	u   *uop
	gen uint32
}

func ref(u *uop) uopRef { return uopRef{u: u, gen: u.gen} }

// get returns the referenced uop, or nil when the ref is empty or stale.
func (r uopRef) get() *uop {
	if r.u == nil || r.u.gen != r.gen {
		return nil
	}
	return r.u
}

// producerReady reports whether a producer no longer blocks its consumers:
// it has a result (done or committed), offers a speculative value (STVP),
// or was squashed (its consumers' functional values were already captured
// at fetch, so timing must not deadlock on it).
func producerReady(p *uop) bool {
	switch p.state {
	case stDone, stCommitted, stSquashed:
		return true
	}
	return p.specReady
}

// uopHeap orders pending completions by doneCycle. It is a hand-rolled
// binary min-heap rather than container/heap because the latter boxes every
// pushed and popped element through interface{}, allocating twice per issued
// uop. The sift-up/sift-down below replicate container/heap's algorithm
// move for move (same comparisons, same swap order), so the pop order among
// equal-cycle entries — and therefore every simulated outcome — is
// bit-identical to the previous implementation.
type uopHeap struct {
	items []heapItem
}

type heapItem struct {
	cycle int64
	gen   uint32
	u     *uop
}

func (h *uopHeap) Len() int { return len(h.items) }

func (h *uopHeap) schedule(u *uop, cycle int64) {
	h.items = append(h.items, heapItem{cycle: cycle, gen: u.issueGen, u: u})
	// Sift up, as container/heap.Push would.
	j := len(h.items) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h.items[j].cycle < h.items[i].cycle) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

// popTop removes and returns the minimum element, replicating
// container/heap.Pop's swap-to-end-then-sift-down exactly.
func (h *uopHeap) popTop() heapItem {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.items[j2].cycle < h.items[j1].cycle {
			j = j2
		}
		if !(h.items[j].cycle < h.items[i].cycle) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
	it := h.items[n]
	h.items[n] = heapItem{}
	h.items = h.items[:n]
	return it
}

// pop returns the next uop whose completion is due at or before now,
// skipping entries invalidated by squash or reissue.
func (h *uopHeap) pop(now int64) (*uop, bool) {
	for h.Len() > 0 {
		top := h.items[0]
		if top.cycle > now {
			return nil, false
		}
		h.popTop()
		if top.u.state == stIssued && top.u.issueGen == top.gen {
			return top.u, true
		}
	}
	return nil, false
}
