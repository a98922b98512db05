package pipeline

// The event-driven engine core. Every stage enqueues its own next
// activation into a calendar — completions, store-buffer window flushes,
// dispatch delays, fetch unblocks, spawn holds, squash/kill edges — and the
// engine advances directly to the earliest scheduled event instead of
// executing every idle cycle.
//
// Soundness rests on one asymmetry: a SPURIOUS wake (the calendar names a
// cycle where nothing happens) is harmless, because an executed inert cycle
// is observationally identical to a skipped one — every stage no-ops, fetch
// counts exactly one FetchBlocked cycle either way, and the telemetry sampler
// closes the same sample buckets with the same frozen snapshot. A LOST
// wakeup (the calendar sleeps past a cycle where a stage could act) would
// change simulated behaviour, so every mutation that can make a stage
// actionable wakes the calendar (the catalog lives in DESIGN.md §16).
// Per-cycle stepping (Config.PerCycle) is the reference: the equivalence
// suite and FuzzEventSchedule run both engines in lockstep and compare
// their state on every cycle, skipped ones included.
//
// eqWindow is the calendar horizon in cycles. Every enqueue is clamped to
// at most eqWindow cycles ahead, which buys two properties at the price of
// an occasional spurious "horizon hop" (a wake that just re-arms a farther
// edge): the dedup ring covers every entry, so the heap can never hold more
// than eqWindow distinct cycles regardless of how often a far edge is
// re-announced, and the backing arrays reach a fixed point quickly — zero
// steady-state allocations (test-enforced).
const eqWindow = 1 << 12

// eventQueue is a monotone cycle-keyed calendar: a hand-rolled binary
// min-heap of bare int64 cycles (no per-event payload — the wake cycle
// re-runs the normal stage loop, which rediscovers whatever work is due)
// fronted by a mark ring that drops duplicate enqueues of the same cycle in
// O(1). Cycles only move forward, so a fired mark can never falsely match a
// later enqueue: slot aliases differ in the full cycle value the ring
// stores.
type eventQueue struct {
	heap []int64
	mark [eqWindow]int64 // mark[c&(eqWindow-1)] == c ⇒ c already enqueued
}

// add schedules a wake at cycle c (clamped into (now, now+eqWindow]).
// Duplicate adds of the same cycle are dropped in O(1).
func (q *eventQueue) add(c, now int64) {
	if c > now+eqWindow {
		// Beyond the horizon: arm a hop at the horizon instead. The hop
		// cycle is inert (harmless), and wakeStandingEdges re-announces
		// every far-capable edge on each executed cycle until it is
		// inside the horizon.
		c = now + eqWindow
	}
	s := c & (eqWindow - 1)
	if q.mark[s] == c {
		return
	}
	q.mark[s] = c
	q.heap = append(q.heap, c)
	// Sift up (container/heap's algorithm, monomorphized on int64).
	j := len(q.heap) - 1
	for j > 0 {
		i := (j - 1) / 2
		if q.heap[i] <= q.heap[j] {
			break
		}
		q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
		j = i
	}
}

// drain pops every entry at or before now. Fired entries need no handling:
// the cycle that just executed performed whatever work they announced.
func (q *eventQueue) drain(now int64) {
	for len(q.heap) > 0 && q.heap[0] <= now {
		q.popTop()
	}
}

// popTop removes the minimum entry (sift-down, container/heap order).
func (q *eventQueue) popTop() int64 {
	top := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.heap[j2] < q.heap[j] {
			j = j2
		}
		if q.heap[i] <= q.heap[j] {
			break
		}
		q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
		i = j
	}
	return top
}

// depth reports the number of pending calendar entries.
func (q *eventQueue) depth() int { return len(q.heap) }

// wake schedules the calendar for cycle c (clamped to the future). Nil-safe
// under the per-cycle reference so the stage code can announce edges
// unconditionally.
func (e *Engine) wake(c int64) {
	if e.evq == nil {
		return
	}
	if c <= e.now {
		c = e.now + 1
	}
	e.evq.add(c, e.now)
}

// wakeStandingEdges re-announces, at the end of every executed cycle, the
// edges that can outlive the calendar horizon or that are cheaper to
// rediscover than to track through every mutation. This is the other half
// of the horizon-clamp contract in add(): a far edge's clamped hop is only
// sound because the edge's owner re-announces it on each executed cycle
// until it is inside the horizon. The standing edges:
//
//   - per-thread front-end edges: a fetch-eligible thread (or one gated
//     only by a known fetchBlocked cycle, which mem-jitter faults can push
//     past the horizon), and a squashed fetch-buffer head awaiting its free
//     consumption by dispatch (re-announced every cycle, also under a spawn
//     hold, where the wake is spurious and so harmless);
//   - stuck issue-queue slots: fault-injected stuckUntil cycles reach 120k
//     cycles out, dwarfing the horizon;
//   - the earliest pending completion, which memory-jitter faults can
//     delay past the horizon;
//   - pending store-buffer windows: their minimum-flush edge can be past
//     due while the window waits on another condition, so the event engine
//     keeps waking cycle by cycle until the window flushes.
//
// Cost is O(live threads + stuck uops + pending windows) per executed
// cycle, and the dedup ring absorbs the repeats. Idle (skipped) cycles pay
// nothing; that is the point.
func (e *Engine) wakeStandingEdges() {
	q := e.evq
	for _, t := range e.ordered {
		if t.fetchBufLen() > 0 && t.fetchBuf[t.fbHead].state == stSquashed {
			q.add(e.now+1, e.now)
		}
		if t.retiring || t.stallFetch || t.blockedOn != nil || t.ctx.Halted ||
			t.fetchBufLen() >= e.fbufCap {
			continue
		}
		if t.fetchBlocked > e.now {
			q.add(t.fetchBlocked, e.now)
		} else {
			q.add(e.now+1, e.now)
		}
	}
	for _, r := range e.stuckUops() {
		q.add(r.u.stuckUntil, e.now)
	}
	if len(e.completions.items) > 0 {
		if c := e.completions.items[0].cycle; c > e.now {
			q.add(c, e.now)
		} else {
			q.add(e.now+1, e.now)
		}
	}
	for _, ev := range e.pendingWindows {
		if c := ev.startCycle + windowMinCycles; c > e.now {
			q.add(c, e.now)
		} else {
			q.add(e.now+1, e.now)
		}
	}
}

// eventForward retires the cycle's fired entries and jumps `now` to the
// cycle before the earliest pending event, bounded by the computed edges no
// stage enqueues (the commit-progress watchdog, the Observe poll, the audit
// stride, the cycle budget). The skipped range is provably inert — every
// actionable cycle has a calendar entry, by the wake-edge catalog — so its
// only effects are replayed here: one FetchBlocked count per skipped cycle
// (fetch counts exactly one per cycle in which no thread is fetch-eligible)
// and the telemetry sampler's idle-range bucket closes.
func (e *Engine) eventForward() {
	q := e.evq
	q.drain(e.now)
	if len(q.heap) > 0 && q.heap[0] == e.now+1 {
		// Something is already scheduled next cycle, so no jump is
		// possible and the standing-edge refresh can wait: far edges only
		// need to be current when a jump target is computed, and the next
		// executed cycle re-evaluates from scratch. This is the busy-phase
		// fast path.
		return
	}
	e.wakeStandingEdges()
	// The watchdog edge always exists and bounds the jump.
	wake := e.lastProgress + e.rec.watchdogBase*e.rec.backoff.Multiplier() + 1
	if len(q.heap) > 0 && q.heap[0] < wake {
		wake = q.heap[0]
	}
	if e.cfg.Observe != nil {
		if p := (e.now | observeMask) + 1; p < wake {
			wake = p
		}
	}
	if e.auditOn {
		if a := e.now + auditInterval - e.now%auditInterval; a < wake {
			wake = a
		}
	}
	target := wake - 1
	// Never skip past the cycle-budget boundary: the per-cycle machine
	// still executes cycle MaxCycles before stopping.
	if mc := e.cfg.MaxCycles; mc <= uint64(1)<<62 && target > int64(mc)-1 {
		target = int64(mc) - 1
	}
	if target <= e.now {
		return
	}
	if e.sampler != nil {
		e.telemetrySkip(e.now+1, target)
	}
	skipped := uint64(target - e.now)
	e.st.FetchBlocked += skipped
	e.ffSkipped += skipped
	e.now = target
}
