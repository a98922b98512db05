package pipeline

import (
	"mtvp/internal/telemetry"
)

// SetTelemetry attaches a telemetry machine probe. Like tracing it is
// strictly observational: the engine feeds gauges, counters, and histograms
// but never reads them back, so results are identical with or without it
// (test-enforced in internal/core).
func (e *Engine) SetTelemetry(m *telemetry.Machine) { e.tel = m }

// telemetryCycle feeds the probe one simulated cycle: instantaneous
// occupancy gauges plus the cumulative counter snapshot the sampler
// differentiates into cycle-bucketed time series. The event-queue gauges
// are registry-only (not sampled into the time series), so the series stay
// bit-identical between the event-driven engine and the per-cycle reference.
func (e *Engine) telemetryCycle() {
	e.tel.Tick(e.now, e.telemetryGauges(), e.telemetryCounters())
	if e.evq != nil {
		e.tel.EventQDepth.Set(int64(e.evq.depth()))
		e.tel.EventQFired.Set(int64(e.evq.fired))
		e.tel.EventQDeduped.Set(int64(e.evq.deduped))
	}
}

// telemetrySkip feeds the probe an idle span the calendar skipped [from, to]. The
// engine's counters and gauges are frozen across the span (that is what made
// it skippable), so the probe can close every sample bucket that would have
// closed during it from the one snapshot, byte-identically to per-cycle Ticks.
func (e *Engine) telemetrySkip(from, to int64) {
	e.tel.TickIdleRange(from, to, e.telemetryGauges(), e.telemetryCounters())
}

// FinishTelemetry closes the probe's final partial sample bucket. Call
// once, after Run returns (the statistics of canceled and aborted runs are
// valid up to their final cycle, so their tail bucket is too).
func (e *Engine) FinishTelemetry() {
	if e.tel == nil {
		return
	}
	e.tel.Finish(e.now, e.telemetryGauges(), e.telemetryCounters())
}

func (e *Engine) telemetryGauges() telemetry.CycleGauges {
	g := telemetry.CycleGauges{
		ROBUsed:    e.robUsed,
		RenameUsed: e.renameUsed,
		IQUsed:     e.qUsed[qInt],
		FQUsed:     e.qUsed[qFP],
		MQUsed:     e.qUsed[qMem],
	}
	if e.cfg.VP.SharedStoreBuf {
		g.StoreBufUsed = e.sharedStoreUsed
	}
	for _, t := range e.slots {
		if t == nil || !t.live {
			continue
		}
		g.LiveThreads++
		if t.isSpec() {
			g.SpecThreads++
		}
		if !e.cfg.VP.SharedStoreBuf {
			g.StoreBufUsed += len(t.storeQ)
		}
	}
	return g
}

func (e *Engine) telemetryCounters() telemetry.CycleCounters {
	sh := e.vp.Stats()
	return telemetry.CycleCounters{
		Committed:      e.st.Committed,
		Squashed:       e.st.Squashed,
		Loads:          e.st.Loads,
		DL1Miss:        e.st.DL1Miss,
		VPCorrect:      e.st.VPCorrect,
		VPWrong:        e.st.VPWrong,
		Spawns:         e.st.Spawns,
		Confirms:       e.st.Confirms,
		Kills:          e.st.Kills,
		VPCrossLookups: sh.CrossLookups,
		VPCrossEvicts:  sh.CrossEvicts,
	}
}

// foldSharingStats copies the predictor bank's cross-context interference
// counters into the run's stats. Called once when Run returns.
func (e *Engine) foldSharingStats() {
	sh := e.vp.Stats()
	e.st.VPCrossLookups = sh.CrossLookups
	e.st.VPShareHelpful = sh.Constructive
	e.st.VPShareHarmful = sh.Destructive
	e.st.VPCrossTrains = sh.CrossTrains
	e.st.VPCrossEvictions = sh.CrossEvicts
}

// specDepth returns t's speculation-chain depth (the root thread is 0).
func specDepth(t *thread) uint64 {
	var d uint64
	for cur := t.parent; cur != nil; cur = cur.parent {
		d++
	}
	return d
}

// noteSpawnTelemetry records one spawned child's chain depth.
func (e *Engine) noteSpawnTelemetry(c *thread) {
	if e.tel == nil {
		return
	}
	e.tel.SpawnDepth.Observe(specDepth(c))
}

// noteConfirmTelemetry records a confirmed speculation: its lifetime in
// cycles and how far past the load the surviving child had committed.
func (e *Engine) noteConfirmTelemetry(survivor *thread, ev *vpEvent) {
	if e.tel == nil {
		return
	}
	e.tel.SpecLifetime.Observe(uint64(e.now - ev.startCycle))
	e.tel.ConfirmDistance.Observe(survivor.committed)
}

// noteKillTelemetry records a killed speculative thread: its lifetime in
// cycles and the committed instructions discounted with it.
func (e *Engine) noteKillTelemetry(t *thread) {
	if e.tel == nil || t.spawn == nil {
		return
	}
	e.tel.SpecLifetime.Observe(uint64(e.now - t.spawn.startCycle))
	e.tel.KillDistance.Observe(t.committed)
}

// noteLoadLatencyTelemetry records one load's issue-to-completion latency.
func (e *Engine) noteLoadLatencyTelemetry(lat int64) {
	if e.tel == nil {
		return
	}
	e.tel.LoadLatency.Observe(uint64(lat))
}
