package pipeline

import (
	"mtvp/internal/crit"
	"mtvp/internal/isa"
	"mtvp/internal/oracle"
	"mtvp/internal/storebuf"
	"mtvp/internal/vpred"
)

// storeEntry tracks one store's occupancy in a thread's store buffer for
// timing-level forwarding and capacity stalls.
type storeEntry struct {
	addr uint64
	size int
	u    *uop // nil once the store has committed (data definitely ready)
}

// vpEvent is one followed (or measured) value prediction: the load, the mode
// chosen, the spawned children if any, and the measurement window ILP-pred
// consumes. Events resolve when the load's real value returns from memory.
// Events recycle through the engine's pool (pool.go).
type vpEvent struct {
	pc         uint64
	mode       crit.Decision
	load       *uop
	predicted  uint64
	actual     uint64
	correct    bool
	spawnOnly  bool
	alternates []vpred.Candidate // alternate confident values at predict time
	children   []threadRef       // spawned threads (MTVP), primary first

	childVals []uint64 // value each child is following, parallel to children

	resolved      bool
	startCycle    int64
	startProgress uint64 // net useful commits at prediction time (ILP-pred window)
	measureOnly   bool   // DecideNone calibration window: nothing speculated

	// Pool holds: the event is freed once it is resolved and neither hold
	// remains.
	inWindow bool // on the engine's pendingWindows list
	pinned   bool // a retiring thread's confirmEvent
	gen      uint32
	pooled   bool // on the free list (double-free guard)
}

// evRef is a generation-validated reference to a pooled event. Events are
// freed only after they resolve, so a stale ref reads as resolved.
type evRef struct {
	ev  *vpEvent
	gen uint32
}

func refEv(ev *vpEvent) evRef { return evRef{ev: ev, gen: ev.gen} }

// get returns the referenced event, or nil when the ref is empty or stale.
func (r evRef) get() *vpEvent {
	if r.ev == nil || r.ev.gen != r.gen {
		return nil
	}
	return r.ev
}

// unresolved reports whether the ref names an event still awaiting its load.
func (r evRef) unresolved() bool {
	ev := r.get()
	return ev != nil && !ev.resolved
}

// thread is one hardware context. Threads recycle through the engine's pool
// (pool.go), each keeping its context and the capacity of its slices.
type thread struct {
	id   int // hardware context slot
	live bool

	ctx     *isa.Context
	overlay *storebuf.Overlay

	parent *thread
	spawn  evRef // event that created this thread (empty for the root)
	order  int64 // global speculation order; larger = younger

	// Reorder buffer: this thread's uops in fetch order. head indexes the
	// oldest un-committed entry; the slice is compacted periodically.
	rob     []*uop
	robHead int

	// Front end. fetchBuf is consumed from fbHead (a head index instead of
	// re-slicing keeps dispatch allocation-free; the consumed prefix is
	// compacted away periodically).
	fetchBuf     []*uop // fetched, not yet dispatched; live from fbHead
	fbHead       int
	fetchBlocked int64 // no fetch until this cycle
	blockedOn    *uop  // mispredicted branch gating fetch (nil = time gate)
	stallFetch   bool  // SFP: stalled after spawning, until resolution
	retiring     bool  // confirmed-away parent draining its final commits
	icount       int   // uops in front end + queues (ICOUNT fetch policy)
	// pipeWarm models the paper's single-fetch-path handoff: the spawn
	// happens at the rename stage, so the front end's already-fetched
	// post-load instructions are delivered to the child with no bubble.
	// While pipeWarm > 0, fetched uops dispatch without front-end delay.
	pipeWarm int
	// dispatchHold delays the child's first dispatch by the spawn latency
	// (the rename-map copy / copy-on-write setup of §5.2).
	dispatchHold int64

	// Per-architectural-register last writer, for dependence tracking.
	// Generation-checked refs: a stale entry names a recycled uop that
	// committed or was squashed in a previous lifetime, which dependence
	// tracking always skipped anyway.
	lastWriter [isa.NumRegs]uopRef

	// Return-address stack for predicting JR targets. Per-context state,
	// copied on spawn like the register map.
	ras   [rasDepth]int64
	rasSP int

	// Store buffer (timing view).
	storeQ []storeEntry

	// stores lists this thread's store uops in fetch order, for the
	// forwarding search. Entries older than the first uncommitted one are
	// stale or committed; compactROB trims the stale prefix.
	stores []uopRef

	// Value prediction bookkeeping.
	pendingSpawn   *vpEvent // this thread's unresolved MTVP spawn (max one)
	unverifiedSTVP int      // in-flight single-thread predictions
	confirmEvent   *vpEvent // confirmed spawn whose surviving child replaces this thread after drain
	promoted       bool     // has become non-speculative (store buffer drains at commit)
	haltCommitted  bool     // committed a HALT while still speculative

	committed uint64 // instructions committed since spawn (squashable)
	killed    bool   // destroyed on a misprediction (its commits were discounted)

	// checkBuf holds this thread's committed instructions that the
	// lockstep checker cannot verify yet (the thread is speculative or an
	// older thread is still draining). Flushed when the thread becomes the
	// oldest promoted thread, inherited by the heir at retirement, dropped
	// on kill. Empty unless cfg.Check is set.
	checkBuf []oracle.Record

	gen    uint32 // pool lifetime; incremented on free
	pooled bool   // on the free list (double-free guard)
}

// threadRef is a generation-validated reference to a pooled thread. Threads
// are freed only once dead, so a stale ref reads as a dead thread.
type threadRef struct {
	t   *thread
	gen uint32
}

func refThread(t *thread) threadRef { return threadRef{t: t, gen: t.gen} }

// get returns the referenced thread, or nil when the ref is empty or stale.
func (r threadRef) get() *thread {
	if r.t == nil || r.t.gen != r.gen {
		return nil
	}
	return r.t
}

// liveThread returns the referenced thread if it is alive, else nil.
func (r threadRef) liveThread() *thread {
	if t := r.get(); t != nil && t.live {
		return t
	}
	return nil
}

// isSpec reports whether the thread's existence still depends on an
// unresolved value prediction somewhere in its ancestry.
func (t *thread) isSpec() bool {
	for cur := t; cur != nil; cur = cur.parent {
		if cur.spawn.unresolved() {
			return true
		}
	}
	return false
}

// fetchBufLen returns the number of unconsumed fetch-buffer entries.
func (t *thread) fetchBufLen() int { return len(t.fetchBuf) - t.fbHead }

// robEmpty reports whether every fetched uop has committed or been squashed.
func (t *thread) robEmpty() bool {
	return t.robHead >= len(t.rob) && t.fetchBufLen() == 0
}

// robOccupied returns the number of live, uncommitted uops.
func (t *thread) robOccupied() int { return len(t.rob) - t.robHead }

// storeQFull reports whether the thread's store buffer is at capacity.
func (t *thread) storeQFull(capacity int) bool {
	return capacity > 0 && len(t.storeQ) >= capacity
}

// forwardSource finds the newest store visible to a load on this thread's
// speculation chain that overlaps [addr, addr+size). It searches the
// thread's own in-flight stores (newest first), then its store buffer, then
// ancestors — exactly the paper's "store buffer must be searched by every
// load" rule extended over the thread list.
//
// The in-flight stores are the uncommitted entries of the thread's store
// list. Commit is in order within a thread, so the newest-first walk stops
// at the first stale or committed entry: everything older has left the ROB.
func (t *thread) forwardSource(loadSeq uint64, addr uint64, size int) (*uop, bool) {
	for cur := t; cur != nil; cur = cur.parent {
		// In-flight stores, newest first, older than the load.
		for i := len(cur.stores) - 1; i >= 0; i-- {
			s := cur.stores[i].get()
			if s == nil || s.state == stCommitted {
				break
			}
			if s.seq >= loadSeq || s.state == stSquashed {
				continue
			}
			if overlaps(s.ex.Addr, s.dec.MemSize, addr, size) {
				return s, true
			}
		}
		// Buffered committed stores, newest first.
		for i := len(cur.storeQ) - 1; i >= 0; i-- {
			se := cur.storeQ[i]
			if se.u != nil && se.u.seq >= loadSeq {
				continue
			}
			if overlaps(se.addr, se.size, addr, size) {
				return se.u, true
			}
		}
	}
	return nil, false
}

// rasDepth is the return-address stack depth.
const rasDepth = 16

// rasPush records a call's return address.
func (t *thread) rasPush(ret int64) {
	t.ras[t.rasSP%rasDepth] = ret
	t.rasSP++
}

// rasPop predicts a return target; an empty stack predicts -1 (always
// wrong, charging the mispredict penalty).
func (t *thread) rasPop() int64 {
	if t.rasSP == 0 {
		return -1
	}
	t.rasSP--
	return t.ras[t.rasSP%rasDepth]
}

func overlaps(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}
