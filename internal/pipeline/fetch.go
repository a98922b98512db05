package pipeline

import (
	"fmt"

	"mtvp/internal/config"
	"mtvp/internal/crit"
	"mtvp/internal/fault"
	"mtvp/internal/isa"
	"mtvp/internal/trace"
)

// fetch implements the ICOUNT.n.m front end: each cycle up to FetchBlocks
// threads are selected by lowest in-flight count, and each fetches up to
// FetchWidth/FetchBlocks instructions, stopping at taken branches,
// mispredictions, value-prediction spawns (single fetch path), instruction
// cache misses, and front-end capacity.
func (e *Engine) fetch() {
	perThread := e.cfg.FetchWidth / e.cfg.FetchBlocks
	if perThread < 1 {
		perThread = 1
	}
	picked := e.pickedBuf[:0]
	for b := 0; b < e.cfg.FetchBlocks; b++ {
		t := e.pickFetchThread(picked)
		if t == nil {
			if b == 0 {
				e.st.FetchBlocked++ // no thread could fetch this cycle
			}
			break
		}
		picked = append(picked, t)
		e.fetchFrom(t, perThread)
	}
	e.pickedBuf = picked
}

func (e *Engine) pickFetchThread(picked []*thread) *thread {
	var best *thread
next:
	for _, t := range e.liveByOrder() {
		for _, p := range picked {
			if p == t {
				continue next
			}
		}
		if !e.canFetch(t) {
			continue
		}
		if best == nil || t.icount < best.icount {
			best = t
		}
	}
	return best
}

func (e *Engine) canFetch(t *thread) bool {
	return !t.retiring &&
		!t.stallFetch &&
		t.blockedOn == nil &&
		t.fetchBlocked <= e.now &&
		!t.ctx.Halted &&
		t.fetchBufLen() < e.fbufCap
}

func (e *Engine) fetchFrom(t *thread, max int) {
	var lastLine uint64 = ^uint64(0)
	for n := 0; n < max; n++ {
		if !e.canFetch(t) {
			return
		}
		pc := t.ctx.PC
		if pc < 0 || pc >= int64(len(e.dec)) {
			return // past the end of the program; Step will halt the context
		}
		d := &e.dec[pc]

		// Instruction cache: one access per line touched.
		line := d.InstAddr &^ uint64(e.cfg.ICache.LineBytes-1)
		if line != lastLine {
			ready := e.hier.InstFetch(line, e.now)
			if ready > e.now+int64(e.cfg.ICache.Latency) {
				t.fetchBlocked = ready
				return
			}
			lastLine = line
		}

		// Value prediction hook: decide before the load executes so a
		// spawned thread can fork from the pre-load register state.
		var ev *vpEvent
		if d.IsLoad && e.cfg.VP.Mode != config.VPNone {
			ev = e.vpDecide(t, d)
		}

		ex, ok := t.ctx.Step()
		if !ok {
			if ev != nil {
				ev.resolved = true
				e.releaseEvent(ev)
			}
			return
		}
		u := e.newUop(t, ex, d)
		if ev != nil {
			u.vp = refEv(ev)
			ev.load = u
			if !ev.measureOnly {
				e.emit(trace.KPredict, u)
			}
			if ev.mode == crit.DecideMTVP {
				e.spawn(t, u, ev)
			}
		}

		if d.IsBranch {
			e.st.Branches++
			pred := e.bp.Predict(d.InstAddr)
			e.bp.Update(d.InstAddr, ex.Taken)
			if pred != ex.Taken {
				e.st.BranchWrong++
				u.mispredicted = true
				t.blockedOn = u
				return
			}
			if ex.Taken {
				return // taken branch ends this thread's fetch block
			}
		} else if d.IsControl {
			switch d.Inst.Op {
			case isa.JAL:
				t.rasPush(pc + 1)
			case isa.JR:
				// Indirect jumps are predicted by the return-address
				// stack; a wrong prediction blocks fetch until the
				// jump resolves, like a branch mispredict.
				e.st.Branches++
				if t.rasPop() != ex.NextPC {
					e.st.BranchWrong++
					u.mispredicted = true
					t.blockedOn = u
					return
				}
			}
			return // jumps redirect fetch; end the block
		}
	}
}

func (e *Engine) newUop(t *thread, ex isa.Exec, d *isa.Decoded) *uop {
	e.seqCtr++
	fetchCycle := e.now
	if t.pipeWarm > 0 {
		// Delivered from the parent's warm front end: dispatchable now.
		fetchCycle = e.now - int64(e.cfg.FrontEndDepth)
		t.pipeWarm--
	}
	u := e.allocUop()
	u.seq = e.seqCtr
	u.thread = t
	u.ex = ex
	u.dec = d
	u.class = d.Class
	u.queue = queueFor(d.Class)
	e.setUopState(u, stFetched)
	u.fetchCycle = fetchCycle
	// Event edge: the uop becomes dispatchable once its front-end delay
	// elapses (a pipe-warm backdated cycle clamps to next cycle).
	e.wake(fetchCycle + int64(e.cfg.FrontEndDepth))
	u.hasDest = d.HasDest
	t.rob = append(t.rob, u)
	if d.IsStore {
		t.stores = append(t.stores, ref(u))
	}
	t.compactFetchBuf()
	t.fetchBuf = append(t.fetchBuf, u)
	t.icount++
	e.st.Fetched++
	e.emit(trace.KFetch, u)
	return u
}

// vpDecide consults the value predictor and the criticality selector for
// the load the thread is about to execute, returning the event to attach to
// the load's uop (nil when nothing is predicted or measured).
func (e *Engine) vpDecide(t *thread, dec *isa.Decoded) *vpEvent {
	// The degradation ladder may have capped this context's speculation
	// below the configured mode (recover.go).
	mode := e.effectiveMode(t.id)
	if mode == config.VPNone {
		return nil
	}
	in := dec.Inst
	addr := t.ctx.EffAddr(in)
	actual := t.ctx.Mem.Load(addr, dec.MemSize)
	pcAddr := dec.InstAddr

	e.st.VPLookups++
	lookupPC := pcAddr
	if e.injectFault(fault.PredAlias) {
		// Aliasing storm: the lookup indexes someone else's table entry.
		// Training (by ev.pc) still uses the real PC, so the corrupted
		// prediction competes with legitimately trained state.
		lookupPC ^= 1 + e.inj.Rand64()%1023
	}
	pr := e.vp.Lookup(lookupPC, actual)
	if pr.Valid && e.injectFault(fault.PredBitFlip) {
		// Value-table soft error: one bit of the predicted value flips.
		// It is followed like any prediction and caught at resolve.
		pr.Value ^= 1 << (e.inj.Rand64() & 63)
	}
	if !e.cfg.VP.SpawnOnly {
		if !pr.Valid || !pr.Confident {
			return nil
		}
		e.st.VPConfident++

		// Misprediction-storm quarantine: a clamped context only follows
		// predictions well above the normal confidence bar; a disabled
		// context follows none.
		switch e.rec.quars[t.id].State() {
		case fault.QDisabled:
			e.st.QuarantineSuppressed++
			return nil
		case fault.QClamped:
			if pr.Conf < e.rec.clampConf {
				e.st.QuarantineSuppressed++
				return nil
			}
		}
	}

	mtvpOK := mode == config.VPMTVP &&
		e.freeSlot() >= 0 &&
		t.pendingSpawn == nil
	level := e.hier.ProbeLevel(addr)
	decision := e.sel.Select(pcAddr, level, mtvpOK)
	if decision == crit.DecideSTVP && e.cfg.VP.SpawnOnly {
		return nil // the spawn-only machine never value-predicts
	}

	ev := e.allocEvent()
	ev.pc = pcAddr
	ev.mode = decision
	ev.predicted = pr.Value
	ev.actual = actual
	ev.correct = pr.Value == actual
	ev.alternates = append(ev.alternates, pr.Alternates...)
	ev.startCycle = e.now
	ev.startProgress = e.st.Committed
	switch decision {
	case crit.DecideNone:
		ev.measureOnly = true
	case crit.DecideSTVP:
		e.st.VPPredicted++
		e.st.STVPUsed++
		t.unverifiedSTVP++
	case crit.DecideMTVP:
		if e.cfg.VP.SpawnOnly {
			ev.spawnOnly = true
			ev.correct = true
		} else {
			e.st.VPPredicted++
		}
	}
	return ev
}

// spawn creates the speculative thread(s) for an MTVP event. The parent's
// functional context has not yet executed the load, so each child forks from
// the pre-load register state with the load destination overwritten by its
// predicted value (or left dependent on the real load in spawn-only mode).
func (e *Engine) spawn(t *thread, loadU *uop, ev *vpEvent) {
	if e.injectFault(fault.SpawnLost) {
		// The spawn event is lost in flight: no child is created and the
		// parent proceeds as if the selector had declined, exactly like
		// racing out of free contexts below.
		ev.measureOnly = true
		ev.mode = crit.DecideNone
		e.st.SpawnDenied++
		return
	}
	in := loadU.ex.Inst
	values := append(e.spawnVals[:0], ev.predicted)
	if ev.spawnOnly {
		values[0] = ev.actual
	} else {
		// Multi-value MTVP (§5.6) follows confident alternates too, up to
		// MaxValuesPerLoad values; at 1 (the baseline) it adds none.
		for _, alt := range ev.alternates {
			if len(values) >= e.cfg.VP.MaxValuesPerLoad || e.freeSlots() <= len(values) {
				break
			}
			values = append(values, alt.Value)
		}
	}
	if e.injectFault(fault.SpawnDup) {
		// Duplicated spawn event: a second child chases the primary value
		// and must lose the survivor selection at confirmation (or be
		// dropped here if no context is free).
		values = append(values, values[0])
	}

	// Fork the store-buffer overlay: the parent's current overlay is
	// frozen and shared; parent and children each get a fresh top.
	tops := t.overlay.Fork(e.spawnTops[:0], 1+len(values))
	e.spawnVals, e.spawnTops = values, tops
	t.overlay = tops[0]
	t.ctx.Mem = tops[0]

	for i, v := range values {
		slot := e.freeSlot()
		if slot < 0 {
			// No context for a secondary value; drop it.
			tops[1+i].Release()
			continue
		}
		e.ordCtr++
		c := e.allocThread()
		c.id = slot
		c.live = true
		c.overlay = tops[1+i]
		c.parent = t
		c.spawn = refEv(ev)
		c.order = e.ordCtr
		c.fetchBlocked = e.now + 1
		c.dispatchHold = e.now + int64(e.cfg.VP.SpawnLatency)
		c.lastWriter = t.lastWriter
		c.ras = t.ras
		c.rasSP = t.rasSP
		t.ctx.ForkInto(c.ctx, tops[1+i])
		if !ev.spawnOnly {
			c.ctx.SetReg(in.Rd, v)
		}
		c.ctx.PC = loadU.ex.PC + 1
		c.ctx.Halted = false

		if e.cfg.VP.FetchPolicy == config.FetchSFP && i == 0 {
			// §3.3: with a single fetch path, the spawned thread starts
			// at the next sequential PC and consumes instructions the
			// front end already fetched — no fetch interruption.
			c.pipeWarm = e.cfg.FrontEndDepth * (e.cfg.FetchWidth / e.cfg.FetchBlocks)
		}
		if ev.spawnOnly {
			// Dependents of the load wait for the real value.
			c.lastWriter[in.Rd] = ref(loadU)
		} else {
			// The predicted value is immediately available.
			c.lastWriter[in.Rd] = uopRef{}
		}
		e.slots[slot] = c
		e.threadAdded(c)
		ev.children = append(ev.children, refThread(c))
		ev.childVals = append(ev.childVals, v)
		if e.auditOn {
			e.auditSpawn(t, c, in.Rd, loadU, ev.spawnOnly)
		}
	}

	if len(ev.children) == 0 {
		// Spawn failed outright (raced out of contexts): degrade to a
		// plain measurement so resolution still happens cleanly.
		ev.measureOnly = true
		ev.mode = crit.DecideNone
		e.st.SpawnDenied++
		return
	}
	e.st.Spawns += uint64(len(ev.children))
	for i, c := range ev.children {
		if e.tracer != nil {
			e.emitThreadPeer(trace.KSpawn, c.t, t, fmt.Sprintf("from T%d/%d at pc %d value %#x",
				t.id, t.order, loadU.ex.PC, ev.childVals[i]))
		}
	}
	t.pendingSpawn = ev
	if e.cfg.VP.FetchPolicy == config.FetchSFP {
		t.stallFetch = true
	}
	// Event edge: the children's first dispatch waits out the spawn
	// latency (their fetch edges are re-announced every executed cycle).
	e.wake(e.now + int64(e.cfg.VP.SpawnLatency))
}
