package vpred

import (
	"mtvp/internal/config"
	"mtvp/internal/table"
)

// SharingStats counts cross-context interference observed on the bank's
// tables. All counters are observational: they never influence predictions
// or training, so every sharing mode simulates identically with the probe
// on or off. Outside shared mode the contexts touch disjoint predictor
// instances, so every counter stays zero.
type SharingStats struct {
	// CrossLookups counts valid lookups whose PC was last trained by a
	// different hardware context.
	CrossLookups uint64
	// Constructive counts confident cross-context lookups that were correct:
	// one context's training helped another (the upside of sharing).
	Constructive uint64
	// Destructive counts confident cross-context lookups that were wrong:
	// another context's training misled this one.
	Destructive uint64
	// CrossTrains counts trainings that refined state last trained by a
	// different context for the same PC.
	CrossTrains uint64
	// CrossEvicts counts trainings that displaced a different context's
	// state for a different PC aliasing to the same probe slot.
	CrossEvicts uint64
}

// ownerSlot tracks which context last trained a PC, for the observational
// interference probe. The probe is a fixed-size direct-mapped shadow table,
// not the predictor's own structure, so it approximates — never alters —
// the predictor's aliasing behaviour.
type ownerSlot struct {
	pc    uint64
	ctx   int32
	valid bool
}

// ownerProbeSlots sizes the shared-mode interference probe.
const ownerProbeSlots = 4096

// Bank organises the configured predictor's tables across hardware contexts
// according to config.VPParams.Sharing and fronts the pipeline's predict and
// train call sites, which carry the hardware context ID:
//
//   - shared: one full-size predictor instance serves every context —
//     maximum effective capacity, but contexts interfere;
//   - private: every context gets its own full-size instance — isolation at
//     a Contexts-fold hardware budget, and freshly spawned contexts start
//     cold;
//   - partitioned: one table budget is divided evenly across per-context
//     instances — isolation at constant cost, with smaller tables.
//
// In shared mode the bank also runs the interference probe behind the
// lookups and trainings. The probe classifies confident cross-context hits
// as constructive or destructive using the load's actual value; like the
// oracle predictor this reads the actual at lookup time, but strictly for
// telemetry — the returned Prediction is untouched.
type Bank struct {
	mode  config.SharingMode
	preds []Predictor
	owner table.Paged[ownerSlot] // no entries unless the probe runs
	stats SharingStats
}

// NewBank builds the predictor bank for the configuration's predictor,
// sharing mode, and context count.
func NewBank(cfg *config.Config) *Bank {
	b := &Bank{mode: cfg.VP.Sharing}
	contexts := cfg.Contexts
	if contexts < 1 {
		contexts = 1
	}
	switch {
	case b.mode == config.ShareShared || contexts == 1:
		b.preds = []Predictor{New(cfg)}
		if b.mode == config.ShareShared && contexts > 1 {
			b.owner = table.New[ownerSlot](ownerProbeSlots)
		}
	case b.mode == config.SharePrivate:
		b.preds = make([]Predictor, contexts)
		for i := range b.preds {
			b.preds[i] = New(cfg)
		}
	default: // SharePartitioned
		b.preds = make([]Predictor, contexts)
		for i := range b.preds {
			b.preds[i] = newScaled(cfg, contexts)
		}
	}
	return b
}

func (b *Bank) pred(ctx int) Predictor {
	if len(b.preds) == 1 {
		return b.preds[0]
	}
	return b.preds[ctx%len(b.preds)]
}

// Lookup predicts the value of the load at pc fetched by hardware context
// ctx. As for Predictor.Lookup, actual is only consumed by the oracle
// predictor and by the observational interference probe.
func (b *Bank) Lookup(ctx int, pc, actual uint64) Prediction {
	pr := b.pred(ctx).Lookup(pc, actual)
	if b.owner.Len() > 0 && pr.Valid {
		o := b.owner.Peek(b.ownerIndex(pc))
		if o != nil && o.valid && o.pc == pc && int(o.ctx) != ctx {
			b.stats.CrossLookups++
			if pr.Confident {
				if pr.Value == actual {
					b.stats.Constructive++
				} else {
					b.stats.Destructive++
				}
			}
		}
	}
	return pr
}

// Train trains context ctx's predictor state with the committed value of
// the load at pc.
func (b *Bank) Train(ctx int, pc, actual uint64) {
	if b.owner.Len() > 0 {
		o := b.owner.At(b.ownerIndex(pc))
		if o.valid && int(o.ctx) != ctx {
			if o.pc == pc {
				b.stats.CrossTrains++
			} else {
				b.stats.CrossEvicts++
			}
		}
		*o = ownerSlot{pc: pc, ctx: int32(ctx), valid: true}
	}
	b.pred(ctx).Train(pc, actual)
}

func (b *Bank) ownerIndex(pc uint64) int {
	return int(pc % uint64(b.owner.Len()))
}

// Stats returns the interference counters accumulated so far.
func (b *Bank) Stats() SharingStats { return b.stats }

// Mode returns the bank's table sharing mode.
func (b *Bank) Mode() config.SharingMode { return b.mode }

// Footprint implements Sizer: total table entries across every instance in
// the bank, plus the probe.
func (b *Bank) Footprint() int {
	n := b.owner.Len()
	for _, p := range b.preds {
		if s, ok := p.(Sizer); ok {
			n += s.Footprint()
		}
	}
	return n
}

// scaleDiv divides a table size by the partition count, keeping at least
// one entry.
func scaleDiv(n, div int) int {
	if n /= div; n < 1 {
		n = 1
	}
	return n
}

// newScaled builds the configured predictor with every table sized at
// 1/div of its configured budget, for way-partitioned banks.
func newScaled(cfg *config.Config, div int) Predictor {
	if div <= 1 {
		return New(cfg)
	}
	c := *cfg
	c.VP.WF.VHTEntries = scaleDiv(c.VP.WF.VHTEntries, div)
	c.VP.WF.ValPHTEntries = scaleDiv(c.VP.WF.ValPHTEntries, div)
	c.VP.DFCM.L1Entries = scaleDiv(c.VP.DFCM.L1Entries, div)
	c.VP.DFCM.L2Entries = scaleDiv(c.VP.DFCM.L2Entries, div)
	c.VP.VPQ.TableEntries = scaleDiv(c.VP.VPQ.TableEntries, div)
	c.VP.VPQ.QueueEntries = scaleDiv(c.VP.VPQ.QueueEntries, div)
	c.VP.Equality.TableEntries = scaleDiv(c.VP.Equality.TableEntries, div)
	return New(&c)
}
