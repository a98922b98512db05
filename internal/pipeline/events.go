package pipeline

import "math/bits"

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
// at most eqWindow cycles ahead, at the price of an occasional spurious
// "horizon hop" (a wake that just re-arms a farther edge). The clamp is
// what lets a fixed ring of one bit per cycle hold the whole calendar: no
// allocation, ever, and no depth to bound.
const eqWindow = 1 << 12

// eqRing is the ring length in cycles: twice the horizon. While cycle now
// executes its own bit is still set, and a stage may announce now+eqWindow;
// a ring of eqWindow slots would put both in one bit, and draining now
// would then lose the later wake. With 2×eqWindow slots every cycle the
// calendar can hold, [now, now+eqWindow], has a slot of its own.
const eqRing = 2 * eqWindow

// eventQueue is a monotone cycle-keyed calendar stored as an occupancy
// bitmap over a ring of cycles (a one-bit-per-slot timing wheel): bit
// c&(eqRing-1) is set exactly when cycle c is scheduled. There is no
// per-event payload — the wake cycle re-runs the normal stage loop, which
// rediscovers whatever work is due — so the set bit is the whole entry and
// also its own dedup. Entries are only ever added after now and the engine
// executes the earliest one before it moves past it, so after drain every
// set bit lies in (now, now+eqWindow] and maps back to a unique cycle.
type eventQueue struct {
	bits [eqRing / 64]uint64
}

// add schedules a wake at cycle c > now, clamped to at most now+eqWindow.
// Adding a scheduled cycle again is a no-op.
func (q *eventQueue) add(c, now int64) {
	if c > now+eqWindow {
		// Beyond the horizon: arm a hop at the horizon instead. The hop
		// cycle is inert (harmless), and wakeStandingEdges re-announces
		// every far-capable edge on each executed cycle until it is
		// inside the horizon.
		c = now + eqWindow
	}
	s := c & (eqRing - 1)
	q.bits[s>>6] |= 1 << (s & 63)
}

// has reports whether cycle c is scheduled.
func (q *eventQueue) has(c int64) bool {
	s := c & (eqRing - 1)
	return q.bits[s>>6]&(1<<(s&63)) != 0
}

// drain retires the executed cycle's entry: the cycle that just executed
// performed whatever work it announced. No other cycle at or before now
// can be set, since skipped cycles hold no entries by construction.
func (q *eventQueue) drain(now int64) {
	s := now & (eqRing - 1)
	q.bits[s>>6] &^= 1 << (s & 63)
}

// next returns the earliest scheduled cycle after now, and false when the
// calendar is empty. It scans forward from now+1's slot over the horizon:
// the rest of that word, then eqWindow/64 whole words.
func (q *eventQueue) next(now int64) (int64, bool) {
	s := (now + 1) & (eqRing - 1)
	w := s >> 6
	if word := q.bits[w] >> (s & 63); word != 0 {
		return now + 1 + int64(bits.TrailingZeros64(word)), true
	}
	c := now + 1 + (64 - s&63) // the cycle of the next word's bit 0
	for range eqWindow / 64 {
		w = (w + 1) & (eqRing/64 - 1)
		if word := q.bits[w]; word != 0 {
			return c + int64(bits.TrailingZeros64(word)), true
		}
		c += 64
	}
	return 0, false
}

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
// cycle, and a repeat just sets a bit already set. Idle (skipped) cycles
// pay nothing; that is the point.
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
	if q.has(e.now + 1) {
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
	if c, ok := q.next(e.now); ok && c < wake {
		wake = c
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
