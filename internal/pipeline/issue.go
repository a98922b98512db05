package pipeline

import (
	"cmp"
	"slices"

	"mtvp/internal/fault"
	"mtvp/internal/isa"
	"mtvp/internal/trace"
)

// issue selects ready instructions oldest-first across the shared queues,
// subject to the total issue width and per-class limits (6 integer, 2 FP,
// 4 load/store), and schedules their completions. The candidates come from
// the ready set that producers wake their consumers into.
func (e *Engine) issue() {
	if len(e.ready) == 0 {
		return
	}
	// Drop entries that stopped being ready after they were woken: stale
	// refs (the uop was freed, perhaps reallocated), squashed uops, and
	// uops a selective reissue re-armed. A fault-stuck uop stays.
	ready := e.ready[:0]
	for _, r := range e.ready {
		u := r.get()
		if u == nil {
			continue
		}
		if u.state != stWaiting || u.unready != 0 {
			u.inReady = false
			continue
		}
		ready = append(ready, r)
	}
	slices.SortFunc(ready, func(a, b uopRef) int { return cmp.Compare(a.u.seq, b.u.seq) })

	// Issuing changes no uop's readiness (stWaiting and stIssued are both
	// unready states), so the set is fixed for the whole selection.
	total := e.cfg.IssueWidth
	intLeft, fpLeft, memLeft := e.cfg.IntIssue, e.cfg.FPIssue, e.cfg.MemIssue
	kept := ready[:0]
	for i, r := range ready {
		if total == 0 {
			kept = append(kept, ready[i:]...)
			break
		}
		u := r.u
		left := &intLeft
		switch u.queue {
		case qFP:
			left = &fpLeft
		case qMem:
			left = &memLeft
		}
		if *left == 0 || u.stuckUntil > e.now {
			kept = append(kept, r)
			continue
		}
		*left--
		total--
		u.inReady = false
		e.issueOne(u)
	}
	e.ready = kept
}

// setUopState is the single write path for a uop's pipeline state. A
// change of the uop's readiness as a producer wakes or re-arms its
// consumers, and a uop entering stWaiting joins the ready set if nothing
// blocks it.
func (e *Engine) setUopState(u *uop, s uopState) {
	was := producerReady(u)
	u.state = s
	if now := producerReady(u); now != was {
		e.producerChanged(u, now)
	}
	if s == stWaiting {
		e.markReady(u)
	}
}

// producerChanged moves every live consumer's unready count by one edge
// per consumer entry of p: down when p became ready, up when a reissue
// took its result back. A stale ref names a consumer freed after it
// committed or was squashed; nothing reads its count again.
func (e *Engine) producerChanged(p *uop, ready bool) {
	for _, cr := range p.consumers {
		c := cr.get()
		if c == nil {
			continue
		}
		if !ready {
			c.unready++
			continue
		}
		c.unready--
		if c.unready == 0 {
			e.markReady(c)
		}
	}
}

// markReady adds u to the ready set if it waits in a queue with no unready
// producer and is not there already.
func (e *Engine) markReady(u *uop) {
	if u.state == stWaiting && u.unready == 0 && !u.inReady {
		u.inReady = true
		e.ready = append(e.ready, ref(u))
	}
}

// stuckUops drops the stuck-list entries that no longer wedge a queue slot
// (issued, squashed, freed, or past their stuckUntil) and returns the rest.
// A uop is stuck only from its dispatch, so a dropped entry never returns.
func (e *Engine) stuckUops() []uopRef {
	kept := e.stuck[:0]
	for _, r := range e.stuck {
		if u := r.get(); u != nil && u.state == stWaiting && u.stuckUntil > e.now {
			kept = append(kept, r)
		}
	}
	e.stuck = kept
	return kept
}

func (e *Engine) issueOne(u *uop) {
	e.setUopState(u, stIssued)
	u.issueGen++
	u.thread.icount--
	e.qUsed[u.queue]--
	e.st.Issued++

	done := e.now + e.latencyOf(u)
	u.doneCycle = done
	e.completions.schedule(u, done)
	// Event edges: the completion fires at done, and the freed queue slot
	// (plus any width-limited ready peers) makes the next cycle actionable.
	e.wake(done)
	e.wake(e.now + 1)
	e.emit(trace.KIssue, u)
}

// Functional-unit latencies in cycles. Table 1 does not give them and no
// experiment varies them, so they are constants of the modelled machine.
const (
	latIntALU = 1
	latIntMul = 3
	latIntDiv = 20
	latFPAdd  = 4
	latFPMul  = 4
	latFPDiv  = 16
)

// latencyOf computes the execution latency of u, performing the cache
// access for loads (this is where the prefetcher trains, in issue order).
func (e *Engine) latencyOf(u *uop) int64 {
	switch u.class {
	case isa.ClassLoad:
		if u.fwdStore {
			e.st.StoreBufHits++
			return int64(e.cfg.DL1.Latency)
		}
		pcAddr := u.dec.InstAddr
		ready, lvl := e.hier.Load(pcAddr, u.ex.Addr, e.now)
		u.hitLevel = lvl
		lat := ready - e.now
		if e.injectFault(fault.MemDelay) {
			// Memory-system hiccup: the completion is late by a large
			// constant, stressing the watchdog and resolve paths.
			lat += int64(e.inj.Profile().MemDelayCycles)
		}
		return lat
	case isa.ClassStore:
		return 1
	case isa.ClassIntMul:
		return latIntMul
	case isa.ClassIntDiv:
		return latIntDiv
	case isa.ClassFPAdd:
		return latFPAdd
	case isa.ClassFPMul:
		return latFPMul
	case isa.ClassFPDiv:
		return latFPDiv
	default:
		return latIntALU
	}
}
