package pipeline

import (
	"fmt"
	"slices"

	"mtvp/internal/config"
	"mtvp/internal/fault"
	"mtvp/internal/trace"
)

// The recovery controller generalises the PR 1 deadlock watchdog into a
// layered response to lost commit progress:
//
//  1. Bounded squash-and-retry. Each watchdog firing spends one unit of a
//     refillable break budget and doubles the watchdog's patience
//     (exponential backoff), then tries the cheapest repair first: clearing
//     stuck issue-queue slots, else killing the youngest speculative
//     subtree. Sustained commit progress refills the budget.
//  2. Graceful degradation. When the budget is exhausted and the machine is
//     still stuck, every hardware context steps down the speculation ladder
//     (MTVP -> STVP -> non-speculative), all speculative state is flushed,
//     and the budget is reset for the degraded machine. A cool-down of clean
//     commits earns the levels back.
//  3. Structured abort. A machine that cannot commit even with speculation
//     fully disabled returns a *fault.Report instead of hanging — the
//     campaign contract is "recover oracle-clean or abort structured".
//
// Orthogonally, a per-context misprediction-storm quarantine watches
// resolved predictions and first clamps (higher confidence bar), then fully
// disables, a context's use of the value predictor, rehabilitating it as the
// storm passes.
type recovery struct {
	backoff *fault.Backoff
	ladders []*fault.Ladder     // per hardware context slot
	quars   []*fault.Quarantine // per hardware context slot

	watchdogBase      int64  // cycles without commits before intervening
	clampConf         int    // confidence bar under QClamped
	commitsSinceBreak uint64 // refills the break budget at progressRefill

	// unhealthy lists, in increasing order, the slots whose ladder is
	// below LevelFull or whose quarantine holds a score. On every other
	// slot Ladder.Progress and Quarantine.Tick change nothing, so the
	// per-commit walk visits only these, and nothing while none is listed.
	unhealthy []int
}

// progressRefill is the number of useful commits since the last watchdog
// intervention after which the break budget refills: a machine making real
// progress gets its full allowance back for the next incident.
const progressRefill = 10_000

func newRecovery(cfg *config.Config, clampConf int) *recovery {
	base := cfg.Recovery.WatchdogCycles
	if base == 0 {
		base = int64(4*cfg.MemLatency) + 50_000
	}
	r := &recovery{
		backoff:      fault.NewBackoff(cfg.Recovery.DeadlockBudget, 8),
		ladders:      make([]*fault.Ladder, cfg.Contexts),
		watchdogBase: base,
		clampConf:    clampConf,
		quars:        make([]*fault.Quarantine, cfg.Contexts),
		unhealthy:    make([]int, 0, cfg.Contexts),
	}
	for i := range r.ladders {
		r.ladders[i] = fault.NewLadder(cfg.Recovery.CooldownCommits)
	}
	for i := range r.quars {
		r.quars[i] = fault.NewQuarantine()
	}
	return r
}

// injectFault rolls one injection opportunity for fault class k, doing the
// stats and trace bookkeeping on a hit. All injection sites go through here.
func (e *Engine) injectFault(k fault.Kind) bool {
	if !e.inj.Fire(k) {
		return false
	}
	e.st.FaultsInjected++
	switch k {
	case fault.PredBitFlip:
		e.st.FaultPredBitFlip++
	case fault.PredAlias:
		e.st.FaultPredAlias++
	case fault.StoreDrop:
		e.st.FaultStoreDrop++
	case fault.StoreCorrupt:
		e.st.FaultStoreCorrupt++
	case fault.SpawnLost:
		e.st.FaultSpawnLost++
	case fault.SpawnDup:
		e.st.FaultSpawnDup++
	case fault.MemDelay:
		e.st.FaultMemDelay++
	case fault.IQStick:
		e.st.FaultIQStick++
	}
	if e.tracer != nil {
		e.emitContext(trace.KFault, -1, nil, nil, "injected "+k.String())
	}
	return true
}

// effectiveMode caps the configured VP mode by the context slot's current
// degradation level.
func (e *Engine) effectiveMode(slot int) config.VPMode {
	mode := e.cfg.VP.Mode
	switch e.rec.ladders[slot].Level() {
	case fault.LevelSTVP:
		if mode > config.VPSTVP {
			mode = config.VPSTVP
		}
	case fault.LevelNone:
		mode = config.VPNone
	}
	return mode
}

// healthy reports whether slot is at full speculation with a clean
// quarantine score: the state in which the commit-time walk is a no-op.
func (r *recovery) healthy(slot int) bool {
	return r.ladders[slot].Level() == fault.LevelFull && r.quars[slot].Score() == 0
}

// updateUnhealthy updates the unhealthy list after slot's ladder or
// quarantine changed; was is what healthy(slot) returned before the
// change. The list never outgrows its capacity of one entry per slot, so
// this does not allocate.
func (r *recovery) updateUnhealthy(slot int, was bool) {
	now := r.healthy(slot)
	if was == now {
		return
	}
	i, _ := slices.BinarySearch(r.unhealthy, slot)
	if now {
		r.unhealthy = slices.Delete(r.unhealthy, i, i+1)
	} else {
		r.unhealthy = slices.Insert(r.unhealthy, i, slot)
	}
}

// noteOutcome feeds one resolved, followed prediction to the quarantine of
// the predicting thread's context slot.
func (e *Engine) noteOutcome(t *thread, correct bool) {
	r := e.rec
	q := r.quars[t.id]
	was := r.healthy(t.id)
	if correct {
		if q.OnCorrect() && e.tracer != nil {
			e.emitContext(trace.KQuarantine, t.id, nil, nil, "relaxed to "+q.State().String())
		}
	} else if q.OnWrong() {
		switch q.State() {
		case fault.QClamped:
			e.st.QuarantineClamps++
		case fault.QDisabled:
			e.st.QuarantineDisables++
		}
		if e.tracer != nil {
			e.emitContext(trace.KQuarantine, t.id, nil, nil, "escalated to "+q.State().String())
		}
	}
	r.updateUnhealthy(t.id, was)
}

// noteCommitProgress is called once per useful commit: it refills the break
// budget after sustained progress, decays the quarantines, and walks every
// degraded context slot back up the speculation ladder after its cool-down.
// The walk visits only the unhealthy slots, in slot order.
func (e *Engine) noteCommitProgress() {
	r := e.rec
	r.commitsSinceBreak++
	if r.commitsSinceBreak == progressRefill {
		r.backoff.Progress()
	}
	kept := r.unhealthy[:0]
	for _, slot := range r.unhealthy {
		if l := r.ladders[slot]; l.Progress(1) {
			e.st.Restorations++
			if e.tracer != nil {
				e.emitContext(trace.KRestore, slot, nil, nil, "speculation restored to "+l.Level().String())
			}
		}
		if q := r.quars[slot]; q.Tick() && e.tracer != nil {
			e.emitContext(trace.KQuarantine, slot, nil, nil, "decayed to "+q.State().String())
		}
		if !r.healthy(slot) {
			kept = append(kept, slot)
		}
	}
	r.unhealthy = kept
}

// recoverStall is the watchdog's response to lost commit progress. It
// returns false only when every recovery layer is exhausted — the caller
// then aborts with a structured fault report.
func (e *Engine) recoverStall() bool {
	e.rec.commitsSinceBreak = 0
	if e.rec.backoff.Allow() {
		if e.unstickQueues() {
			e.st.DeadlockBreaks++
			e.lastProgress = e.now
			return true
		}
		if e.breakDeadlock() {
			e.st.DeadlockBreaks++
			return true
		}
		// Budget allowed a break but there was nothing to unstick and no
		// speculation to kill; retrying cannot help, so escalate.
	}
	if e.degradeAll() {
		return true
	}
	return false
}

// unstickQueues clears every issue-queue slot wedged by an injected IQStick
// fault, the cheapest recovery action: the instructions become schedulable
// again without squashing any work.
func (e *Engine) unstickQueues() bool {
	stuck := e.stuckUops()
	n := len(stuck)
	if n == 0 {
		return false
	}
	for _, r := range stuck {
		r.u.stuckUntil = 0
	}
	e.stuck = stuck[:0]
	// Event edge: the unstuck uops may issue next cycle.
	e.wake(e.now + 1)
	e.st.RecoveryUnsticks += uint64(n)
	if e.tracer != nil {
		e.emitContext(trace.KRecover, -1, nil, nil, fmt.Sprintf("force-cleared %d stuck issue-queue slots", n))
	}
	return true
}

// degradeAll steps every hardware context down the speculation ladder until
// its effective mode actually drops (on an STVP-configured machine the first
// rung is a no-op), flushes all speculative state, and grants the degraded
// machine a fresh break budget. It returns false when there was nothing
// left to give up.
func (e *Engine) degradeAll() bool {
	if e.cfg.VP.Mode == config.VPNone {
		return false
	}
	stepped := false
	for slot, l := range e.rec.ladders {
		before := e.effectiveMode(slot)
		if before == config.VPNone {
			continue
		}
		was := e.rec.healthy(slot)
		for l.Degrade() {
			e.st.Degradations++
			if e.effectiveMode(slot) != before {
				break
			}
		}
		e.rec.updateUnhealthy(slot, was)
		stepped = true
		if e.tracer != nil {
			e.emitContext(trace.KDegrade, slot, nil, nil, "speculation degraded to "+l.Level().String())
		}
	}
	if !stepped {
		return false
	}
	// The degraded machine must restart from a clean, non-speculative
	// state: clear wedged queue slots, kill all speculation, and refill
	// the break budget.
	e.unstickQueues()
	e.killAllSpec()
	e.rec.backoff.Reset()
	e.lastProgress = e.now
	return true
}

// killAllSpec kills every live speculative subtree, oldest first.
func (e *Engine) killAllSpec() {
	for {
		var victim *thread
		for _, t := range e.liveByOrder() {
			if t.live && t.isSpec() {
				victim = t
				break
			}
		}
		if victim == nil {
			return
		}
		e.killSubtree(victim)
	}
}

// faultReport builds the structured abort record for an unrecoverable run.
func (e *Engine) faultReport(reason string) error {
	return &fault.Report{
		Reason:       reason,
		Cycle:        e.now,
		Committed:    e.st.Committed,
		Injected:     e.inj.Counts(),
		Breaks:       e.st.DeadlockBreaks,
		Degradations: e.st.Degradations,
	}
}
