package pipeline

import (
	"fmt"
	"slices"

	"mtvp/internal/isa"
	"mtvp/internal/storebuf"
)

// The invariant auditor is the structural half of the correctness net (the
// lockstep oracle in check.go is the architectural half). It is enabled by
// cfg.Check — the same knob the test suite and the -check CLI flag use — so
// normal performance runs pay nothing. Cheap site assertions (commit from a
// dead thread, speculative store drain, rename-map state at spawn and kill)
// run at every occurrence; the full machine scan runs every auditInterval
// cycles. The first violation aborts the run with a description.

// auditInterval is the cycle stride of the full invariant scan. Site
// assertions are not rate-limited.
const auditInterval = 64

// auditFail records the first invariant violation.
func (e *Engine) auditFail(format string, args ...interface{}) {
	if e.auditErr == nil {
		e.auditErr = fmt.Errorf("pipeline: invariant violation at cycle %d: %s",
			e.now, fmt.Sprintf(format, args...))
	}
}

// auditCycle is called once per simulated cycle when auditing is enabled.
func (e *Engine) auditCycle() error {
	if e.auditErr == nil && e.now%auditInterval == 0 {
		e.auditScan()
	}
	return e.auditErr
}

// auditCommit checks per-commit invariants: only live, never-killed threads
// may commit, and a thread's commit stream is strictly age-ordered.
func (e *Engine) auditCommit(t *thread, u *uop) {
	if t.killed || !t.live {
		e.auditFail("T%d/%d committed seq %d (pc %d) after being killed/freed",
			t.id, t.order, u.seq, u.ex.PC)
	}
	if u.thread != t {
		e.auditFail("T%d/%d committed seq %d belonging to T%d",
			t.id, t.order, u.seq, u.thread.id)
	}
}

// auditStoreDrain guards the store-buffer containment invariant at the two
// drain sites: a store may reach the cache hierarchy only from a thread
// whose entire ancestry is non-speculative.
func (e *Engine) auditStoreDrain(t *thread, addr uint64) {
	if !t.promoted || t.isSpec() {
		e.auditFail("speculative T%d/%d drained store addr %#x to the cache (promoted=%v spec=%v)",
			t.id, t.order, addr, t.promoted, t.isSpec())
	}
}

// auditSpawn checks rename-map consistency at spawn: the child's last-writer
// table must be the parent's flash copy with exactly the load destination
// rewritten (to nil for a followed prediction — the value is architecturally
// in the child's forked register file — or to the load itself in spawn-only
// mode, where dependents wait for the real value).
func (e *Engine) auditSpawn(parent, child *thread, rd isa.Reg, loadU *uop, spawnOnly bool) {
	for r := 0; r < isa.NumRegs; r++ {
		want := parent.lastWriter[r]
		if isa.Reg(r) == rd {
			want = uopRef{}
			if spawnOnly {
				want = ref(loadU)
			}
		}
		if child.lastWriter[r] != want {
			e.auditFail("spawned T%d/%d rename map reg %d inconsistent with parent T%d/%d",
				child.id, child.order, r, parent.id, parent.order)
			return
		}
	}
	if child.parent != parent {
		e.auditFail("spawned T%d/%d does not point at parent T%d/%d",
			child.id, child.order, parent.id, parent.order)
	}
}

// auditKill checks rename-map consistency after a thread kill: no surviving
// thread outside the dying subtree may still name one of its uops as a
// register's last writer (the dependence graph would dangle into squashed
// state). Threads that descend from the killed thread are skipped — they
// are killed next within the same killSubtree walk.
func (e *Engine) auditKill(t *thread) {
	for _, o := range e.liveByOrder() {
		if o == t || descendsFrom(o, t) {
			continue
		}
		for r := 0; r < isa.NumRegs; r++ {
			if w := o.lastWriter[r].get(); w != nil && w.thread == t {
				e.auditFail("surviving T%d/%d rename map reg %d names uop seq %d of killed T%d/%d",
					o.id, o.order, r, w.seq, t.id, t.order)
				return
			}
		}
	}
}

// auditForward cross-checks the store-list forwarding search against a
// reference that scans every uncommitted uop of the load's thread and its
// ancestors: both must pick the same source.
func (e *Engine) auditForward(t *thread, load, src *uop, ok bool) {
	want, wantOK := forwardSourceROB(t, load.seq, load.ex.Addr, load.dec.MemSize)
	if src != want || ok != wantOK {
		e.auditFail("T%d/%d load seq %d forwards from %v (found %v), ROB walk says %v (found %v)",
			t.id, t.order, load.seq, uopSeq(src), ok, uopSeq(want), wantOK)
	}
}

// forwardSourceROB is thread.forwardSource searching the in-flight stores
// in the ROB instead of the store list.
func forwardSourceROB(t *thread, loadSeq uint64, addr uint64, size int) (*uop, bool) {
	for cur := t; cur != nil; cur = cur.parent {
		for i := len(cur.rob) - 1; i >= cur.robHead; i-- {
			s := cur.rob[i]
			if s.seq >= loadSeq || !s.dec.IsStore || s.state == stSquashed {
				continue
			}
			if overlaps(s.ex.Addr, s.dec.MemSize, addr, size) {
				return s, true
			}
		}
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

// uopSeq names a uop in an audit message: its sequence number, or -1.
func uopSeq(u *uop) int64 {
	if u == nil {
		return -1
	}
	return int64(u.seq)
}

// auditPools fails if anything the engine still uses is on a free list:
// a live slot or ordered entry, a live thread's parent chain, the events a
// live thread names, an unresolved event's children, or an in-flight uop's
// thread or event. Refs are checked through get, so only a free that
// forgot its generation bump shows through them.
func (e *Engine) auditPools() {
	for i, t := range e.slots {
		if t != nil && t.pooled {
			e.auditFail("slot %d holds a recycled thread", i)
			return
		}
	}
	for _, t := range e.ordered {
		for cur := t; cur != nil; cur = cur.parent {
			if cur.pooled {
				e.auditFail("live T%d/%d has a recycled thread in its lineage (T%d/%d)",
					t.id, t.order, cur.id, cur.order)
				return
			}
		}
		for _, ev := range [...]*vpEvent{t.spawn.get(), t.pendingSpawn, t.confirmEvent} {
			if ev == nil {
				continue
			}
			if ev.pooled {
				e.auditFail("live T%d/%d names a recycled event", t.id, t.order)
				return
			}
			if ev.resolved {
				continue
			}
			for _, c := range ev.children {
				if c := c.get(); c != nil && c.pooled {
					e.auditFail("unresolved event of T%d/%d has a recycled child", t.id, t.order)
					return
				}
			}
		}
		for _, u := range t.rob[t.robHead:] {
			if u.state == stSquashed {
				continue
			}
			if u.thread.pooled {
				e.auditFail("in-flight seq %d belongs to a recycled thread", u.seq)
				return
			}
			if ev := u.vp.get(); ev != nil && ev.pooled {
				e.auditFail("in-flight seq %d names a recycled event", u.seq)
				return
			}
		}
	}
}

// auditScan is the full structural walk: pool hygiene, the recovery
// controller's unhealthy-slot list, ROB age ordering,
// shared resource counter reconciliation, rename-map liveness, per-thread
// ICOUNT, wakeup counts and ready-set membership, overlay and context
// isolation, a common bottom overlay, and speculative/promoted exclusion.
func (e *Engine) auditScan() {
	e.auditPools()
	if e.auditErr != nil {
		return
	}
	var unhealthy []int
	for slot := range e.rec.ladders {
		if !e.rec.healthy(slot) {
			unhealthy = append(unhealthy, slot)
		}
	}
	if !slices.Equal(unhealthy, e.rec.unhealthy) {
		e.auditFail("recovery lists unhealthy context slots %v, the unhealthy ones are %v", e.rec.unhealthy, unhealthy)
		return
	}
	var robN, renameN, storeN int
	var qN [numQueues]int
	overlays := make(map[*storebuf.Overlay]*thread)
	contexts := make(map[*isa.Context]*thread)
	var bottom *storebuf.Overlay // Settle's premise: one bottom under every live chain
	inReady := make(map[*uop]bool)
	for _, r := range e.ready {
		if u := r.get(); u != nil {
			inReady[u] = true
		}
	}

	for _, t := range e.liveByOrder() {
		if t.killed {
			e.auditFail("T%d/%d is live but marked killed", t.id, t.order)
			return
		}
		if t.promoted && t.isSpec() {
			e.auditFail("T%d/%d is promoted while still speculative", t.id, t.order)
			return
		}
		if t.overlay.Frozen() {
			e.auditFail("T%d/%d executes against a frozen overlay", t.id, t.order)
			return
		}
		b, err := t.overlay.CheckChain()
		if err != nil {
			e.auditFail("T%d/%d overlay chain corrupt: %v", t.id, t.order, err)
			return
		}
		if bottom == nil {
			bottom = b
		} else if b != bottom {
			e.auditFail("T%d/%d overlay chain ends in another bottom overlay than the oldest live thread's", t.id, t.order)
			return
		}
		if prev, dup := overlays[t.overlay]; dup {
			e.auditFail("T%d/%d and T%d/%d share a store-buffer overlay",
				t.id, t.order, prev.id, prev.order)
			return
		}
		overlays[t.overlay] = t
		if prev, dup := contexts[t.ctx]; dup {
			e.auditFail("T%d/%d and T%d/%d share an architectural context",
				t.id, t.order, prev.id, prev.order)
			return
		}
		contexts[t.ctx] = t

		// ROB age ordering: fetch sequence strictly increases front to
		// back (squashed entries keep their place and their seq).
		for i := 1; i < len(t.rob); i++ {
			if t.rob[i].seq <= t.rob[i-1].seq {
				e.auditFail("T%d/%d ROB age order broken at index %d: seq %d after %d",
					t.id, t.order, i, t.rob[i].seq, t.rob[i-1].seq)
				return
			}
		}

		// Rename map must not dangle into killed threads.
		for r := 0; r < isa.NumRegs; r++ {
			if w := t.lastWriter[r].get(); w != nil && w.thread.killed {
				e.auditFail("T%d/%d rename map reg %d names uop seq %d of killed T%d/%d",
					t.id, t.order, r, w.seq, w.thread.id, w.thread.order)
				return
			}
		}

		// Shared-resource occupancy contributed by this thread.
		icount := 0
		for i := t.robHead; i < len(t.rob); i++ {
			u := t.rob[i]
			switch u.state {
			case stWaiting:
				robN++
				qN[u.queue]++
				icount++
				if u.usesRename {
					renameN++
				}
				if n := unreadyEdges(u); n != u.unready {
					e.auditFail("T%d/%d waiting seq %d counts %d unready producers, recount %d (lost or spurious wakeup)",
						t.id, t.order, u.seq, u.unready, n)
					return
				}
				if u.unready == 0 && (!u.inReady || !inReady[u]) {
					e.auditFail("T%d/%d waiting seq %d has no unready producer but is not in the ready set",
						t.id, t.order, u.seq)
					return
				}
			case stIssued, stDone:
				robN++
				if u.usesRename {
					renameN++
				}
			}
		}
		for _, u := range t.fetchBuf[t.fbHead:] {
			if u.state == stFetched {
				icount++
			}
		}
		if icount != t.icount {
			e.auditFail("T%d/%d icount %d, recount %d", t.id, t.order, t.icount, icount)
			return
		}
		storeN += len(t.storeQ)
	}

	if robN != e.robUsed {
		e.auditFail("ROB occupancy %d, recount %d", e.robUsed, robN)
		return
	}
	if renameN != e.renameUsed {
		e.auditFail("rename register occupancy %d, recount %d", e.renameUsed, renameN)
		return
	}
	for q := queueKind(0); q < numQueues; q++ {
		if qN[q] != e.qUsed[q] {
			e.auditFail("queue %d occupancy %d, recount %d", q, e.qUsed[q], qN[q])
			return
		}
	}
	if e.cfg.VP.SharedStoreBufEntries > 0 && storeN != e.sharedStoreUsed {
		e.auditFail("shared store buffer occupancy %d, recount %d", e.sharedStoreUsed, storeN)
	}
}

// unreadyEdges recounts u's dependence edges whose producer still blocks
// it, the count the wakeup path keeps in u.unready.
func unreadyEdges(u *uop) int32 {
	var n int32
	for _, pr := range u.prods[:u.nProds] {
		if p := pr.get(); p != nil && !producerReady(p) {
			n++
		}
	}
	if f := u.fwdFrom.get(); f != nil && !producerReady(f) {
		n++
	}
	return n
}
