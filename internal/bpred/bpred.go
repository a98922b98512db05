// Package bpred implements the 2bcgskew branch predictor of Table 1: a
// 16K-entry bimodal table, two 64K-entry gskew banks indexed by skewed
// hashes of the PC and global history, and a 64K-entry meta table that
// chooses between the bimodal prediction and the e-gskew majority vote.
package bpred

import "mtvp/internal/config"

// Predictor predicts conditional branch directions.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the branch's actual direction and
	// advances the global history.
	Update(pc uint64, taken bool)
}

// counter is a 2-bit saturating counter stored XOR 2, so that the zero
// byte is the "weakly taken" state every counter starts in and a fresh
// table needs no initialisation pass. value decodes it to 0..3; taken when
// the value is >= 2.
type counter uint8

func (c counter) value() uint8 { return uint8(c) ^ 2 }

func (c counter) taken() bool { return c.value() >= 2 }

func (c counter) train(taken bool) counter {
	v := c.value()
	if taken && v < 3 {
		v++
	} else if !taken && v > 0 {
		v--
	}
	return counter(v ^ 2)
}

// histBits is the global history length the skewed and meta indexes hash.
// Table 1 sizes the tables but not the history, and no experiment varies
// it, so it is a constant of the modelled machine.
const (
	histBits = 14
	histMask = 1<<histBits - 1
)

// TwoBcgskew is the 2bcgskew predictor.
type TwoBcgskew struct {
	bim  []counter
	g0   []counter
	g1   []counter
	meta []counter
	hist uint64
}

// New2bcgskew builds the predictor from the Table 1 sizing.
func New2bcgskew(p config.BranchParams) *TwoBcgskew {
	return &TwoBcgskew{
		bim:  make([]counter, p.BimodalEntries),
		g0:   make([]counter, p.GshareEntries),
		g1:   make([]counter, p.GshareEntries),
		meta: make([]counter, p.MetaEntries),
	}
}

// The three skewing functions decorrelate aliasing across the banks.
func (b *TwoBcgskew) idxBim(pc uint64) uint64 {
	return pc % uint64(len(b.bim))
}

func (b *TwoBcgskew) idxG0(pc uint64) uint64 {
	h := b.hist & histMask
	return (pc ^ h ^ (pc >> 7)) % uint64(len(b.g0))
}

func (b *TwoBcgskew) idxG1(pc uint64) uint64 {
	h := b.hist & histMask
	return (pc ^ (h << 3) ^ (pc >> 13) ^ (h >> 5)) % uint64(len(b.g1))
}

func (b *TwoBcgskew) idxMeta(pc uint64) uint64 {
	h := b.hist & histMask
	return (pc ^ (h << 1)) % uint64(len(b.meta))
}

func (b *TwoBcgskew) vote(pc uint64) (bim, skew, meta bool) {
	bimC := b.bim[b.idxBim(pc)]
	g0C := b.g0[b.idxG0(pc)]
	g1C := b.g1[b.idxG1(pc)]
	bim = bimC.taken()
	n := 0
	if bim {
		n++
	}
	if g0C.taken() {
		n++
	}
	if g1C.taken() {
		n++
	}
	skew = n >= 2
	meta = b.meta[b.idxMeta(pc)].taken()
	return
}

// Predict implements Predictor.
func (b *TwoBcgskew) Predict(pc uint64) bool {
	bim, skew, meta := b.vote(pc)
	if meta {
		return skew
	}
	return bim
}

// Update implements Predictor. It uses 2bcgskew's partial-update policy:
// on a correct prediction only agreeing banks are strengthened; on a
// misprediction every bank is trained toward the outcome, and the meta
// chooser moves toward whichever of bimodal/e-gskew was right.
func (b *TwoBcgskew) Update(pc uint64, taken bool) {
	bim, skew, meta := b.vote(pc)
	pred := bim
	if meta {
		pred = skew
	}
	ib, i0, i1, im := b.idxBim(pc), b.idxG0(pc), b.idxG1(pc), b.idxMeta(pc)

	if bim != skew {
		// The components disagree: train the chooser toward the one
		// that was correct.
		b.meta[im] = b.meta[im].train(skew == taken)
	}
	if pred == taken {
		// Partial update: strengthen only the banks that agreed.
		if bim == taken {
			b.bim[ib] = b.bim[ib].train(taken)
		}
		if b.g0[i0].taken() == taken {
			b.g0[i0] = b.g0[i0].train(taken)
		}
		if b.g1[i1].taken() == taken {
			b.g1[i1] = b.g1[i1].train(taken)
		}
	} else {
		b.bim[ib] = b.bim[ib].train(taken)
		b.g0[i0] = b.g0[i0].train(taken)
		b.g1[i1] = b.g1[i1].train(taken)
	}
	b.hist = (b.hist << 1) | boolBit(taken)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Static is a trivial always-taken predictor used in tests and as a
// baseline ablation.
type Static struct{ Taken bool }

// Predict returns the static direction.
func (s *Static) Predict(uint64) bool { return s.Taken }

// Update is a no-op.
func (s *Static) Update(uint64, bool) {}

var (
	_ Predictor = (*TwoBcgskew)(nil)
	_ Predictor = (*Static)(nil)
)
