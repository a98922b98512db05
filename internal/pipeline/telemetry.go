package pipeline

import (
	"mtvp/internal/telemetry"
)

// SetSampler attaches a time-series sampler; attach it before Run, so its
// first bucket starts at cycle 0. Like tracing it is strictly
// observational: the engine hands it the Stats and occupancy gauges at
// every bucket edge but never reads it back, so results are identical with
// or without it (test-enforced in internal/core). Each edge is a computed
// edge of the event calendar (eventForward never jumps past one), so both
// engines execute it and sample there.
func (e *Engine) SetSampler(s *telemetry.Sampler) {
	e.sampler = s
	e.sampleAt = s.NextEdge(e.now)
}

// sample closes the bucket ending at this cycle, an edge, and arms the next.
func (e *Engine) sample() {
	e.sampler.Sample(e.now, e.st, e.telemetryGauges())
	e.sampleAt = e.sampler.NextEdge(e.now)
}

// FinishTelemetry closes the sampler's final partial bucket. Call once,
// after Run returns (the statistics of canceled and aborted runs are valid
// up to their final cycle, so their tail bucket is too).
func (e *Engine) FinishTelemetry() {
	if e.sampler == nil {
		return
	}
	e.sampler.Finish(e.now, e.st, e.telemetryGauges())
}

func (e *Engine) telemetryGauges() telemetry.Gauges {
	e.gaugeReads++
	g := telemetry.Gauges{
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
