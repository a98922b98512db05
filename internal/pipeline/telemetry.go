package pipeline

import (
	"mtvp/internal/telemetry"
)

// SetSampler attaches a time-series sampler. Like tracing it is strictly
// observational: the engine feeds it occupancy gauges and cumulative
// counters but never reads it back, so results are identical with or
// without it (test-enforced in internal/core).
func (e *Engine) SetSampler(s *telemetry.Sampler) { e.sampler = s }

// telemetryCycle feeds the sampler one executed cycle: instantaneous
// occupancy gauges plus the cumulative counter snapshot it differentiates
// into cycle-bucketed time series.
func (e *Engine) telemetryCycle() {
	e.sampler.Tick(e.now, e.telemetryGauges(), e.telemetryCounters())
}

// telemetrySkip feeds the sampler an idle span the calendar skipped [from,
// to]. The engine's counters and gauges are frozen across the span (that is
// what made it skippable), so the sampler can close every bucket that would
// have closed during it from the one snapshot, byte-identically to
// per-cycle Ticks.
func (e *Engine) telemetrySkip(from, to int64) {
	e.sampler.TickIdleRange(from, to, e.telemetryGauges(), e.telemetryCounters())
}

// FinishTelemetry closes the sampler's final partial bucket. Call once,
// after Run returns (the statistics of canceled and aborted runs are valid
// up to their final cycle, so their tail bucket is too).
func (e *Engine) FinishTelemetry() {
	if e.sampler == nil {
		return
	}
	e.sampler.Finish(e.now, e.telemetryGauges(), e.telemetryCounters())
}

func (e *Engine) telemetryGauges() telemetry.CycleGauges {
	g := telemetry.CycleGauges{
		ROBUsed:    e.robUsed,
		RenameUsed: e.renameUsed,
		IQUsed:     e.qUsed[qInt],
	}
	if e.cfg.VP.SharedStoreBufEntries > 0 {
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
		if e.cfg.VP.SharedStoreBufEntries == 0 {
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
