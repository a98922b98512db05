package pipeline

import (
	"sort"

	"mtvp/internal/fault"
	"mtvp/internal/isa"
	"mtvp/internal/trace"
)

// issue selects ready instructions oldest-first across the shared queues,
// subject to the total issue width and per-class limits (6 integer, 2 FP,
// 4 load/store), and schedules their completions.
func (e *Engine) issue() {
	total := e.cfg.IssueWidth
	intLeft, fpLeft, memLeft := e.cfg.IntIssue, e.cfg.FPIssue, e.cfg.MemIssue

	ready := e.readyBuf[:0]
	for q := queueKind(0); q < numQueues; q++ {
		e.compactQueue(q)
		// The scan-and-wake loop reads only the flat SoA mirrors until a
		// candidate passes the state and stick checks; the uop struct
		// itself is touched just for the operand-readiness walk.
		for _, s := range e.waiting[q] {
			if e.soaState[s] != stWaiting || e.soaStuck[s] > e.now {
				continue
			}
			if u := e.slotUops[s]; e.uopReady(u) {
				ready = append(ready, u)
			}
		}
	}
	e.readyBuf = ready
	sort.Sort((*uopsBySeq)(&e.readyBuf))

	for _, u := range e.readyBuf {
		if total == 0 {
			break
		}
		if u.state != stWaiting {
			// A reissued uop can appear twice in the waiting lists (its
			// pre-issue entry plus the reissue append); the first issue
			// this cycle invalidates later duplicates.
			continue
		}
		switch u.queue {
		case qInt:
			if intLeft == 0 {
				continue
			}
			intLeft--
		case qFP:
			if fpLeft == 0 {
				continue
			}
			fpLeft--
		default:
			if memLeft == 0 {
				continue
			}
			memLeft--
		}
		total--
		e.issueOne(u)
	}
}

// uopReady reports whether all of u's producers have results (or offer
// speculative ones) and any forwarding store has executed.
func (e *Engine) uopReady(u *uop) bool {
	for _, pr := range u.prods {
		if p := pr.get(); p != nil && !producerReady(p) {
			return false
		}
	}
	if f := u.fwdFrom.get(); f != nil && !producerReady(f) {
		return false
	}
	return true
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

// latencyOf computes the execution latency of u, performing the cache
// access for loads (this is where the prefetcher trains, in issue order).
func (e *Engine) latencyOf(u *uop) int64 {
	cfg := e.cfg
	switch u.class {
	case isa.ClassLoad:
		if u.fwdStore {
			e.st.StoreBufHits++
			return int64(cfg.DL1.Latency)
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
		return int64(cfg.LatIntMul)
	case isa.ClassIntDiv:
		return int64(cfg.LatIntDiv)
	case isa.ClassFPAdd:
		return int64(cfg.LatFPAdd)
	case isa.ClassFPMul:
		return int64(cfg.LatFPMul)
	case isa.ClassFPDiv:
		return int64(cfg.LatFPDiv)
	default:
		return int64(cfg.LatIntALU)
	}
}

// compactQueue drops issued and squashed uops from a waiting list.
func (e *Engine) compactQueue(q queueKind) {
	w := e.waiting[q][:0]
	for _, s := range e.waiting[q] {
		if e.soaState[s] == stWaiting {
			w = append(w, s)
		}
	}
	e.waiting[q] = w
}
