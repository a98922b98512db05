// Package bpred implements the 2bcgskew branch predictor of Table 1: a
// 16K-entry bimodal table, two 64K-entry gskew banks indexed by skewed
// hashes of the PC and global history, and a 64K-entry meta table that
// chooses between the bimodal prediction and the e-gskew majority vote.
package bpred

import "mtvp/internal/config"

// counter is a 2-bit saturating counter stored XOR 2, so that the zero
// bits are the "weakly taken" state every counter starts in and a fresh
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

// bank is a table of n 2-bit counters packed four to a byte, counter i in
// bits 2*(i%4) and up of byte i/4. An all-zero byte is four weakly-taken
// counters, so make is the whole initialisation.
type bank struct {
	b []uint8
	n uint64
}

func newBank(n int) bank {
	return bank{b: make([]uint8, (n+3)/4), n: uint64(n)}
}

func (k bank) get(i uint64) counter {
	return counter(k.b[i>>2]>>(i&3*2)) & 3
}

func (k bank) set(i uint64, c counter) {
	sh := i & 3 * 2
	k.b[i>>2] = k.b[i>>2]&^(3<<sh) | uint8(c)<<sh
}

// train moves counter i toward the outcome.
func (k bank) train(i uint64, taken bool) {
	k.set(i, k.get(i).train(taken))
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
	bim  bank
	g0   bank
	g1   bank
	meta bank
	hist uint64
}

// New2bcgskew builds the predictor from the Table 1 sizing.
func New2bcgskew(p config.BranchParams) *TwoBcgskew {
	return &TwoBcgskew{
		bim:  newBank(p.BimodalEntries),
		g0:   newBank(p.GshareEntries),
		g1:   newBank(p.GshareEntries),
		meta: newBank(p.MetaEntries),
	}
}

// The three skewing functions decorrelate aliasing across the banks.
func (b *TwoBcgskew) idxBim(pc uint64) uint64 {
	return pc % b.bim.n
}

func (b *TwoBcgskew) idxG0(pc uint64) uint64 {
	h := b.hist & histMask
	return (pc ^ h ^ (pc >> 7)) % b.g0.n
}

func (b *TwoBcgskew) idxG1(pc uint64) uint64 {
	h := b.hist & histMask
	return (pc ^ (h << 3) ^ (pc >> 13) ^ (h >> 5)) % b.g1.n
}

func (b *TwoBcgskew) idxMeta(pc uint64) uint64 {
	h := b.hist & histMask
	return (pc ^ (h << 1)) % b.meta.n
}

func (b *TwoBcgskew) vote(pc uint64) (bim, skew, meta bool) {
	bimC := b.bim.get(b.idxBim(pc))
	g0C := b.g0.get(b.idxG0(pc))
	g1C := b.g1.get(b.idxG1(pc))
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
	meta = b.meta.get(b.idxMeta(pc)).taken()
	return
}

// Predict returns the predicted direction for the branch at pc.
func (b *TwoBcgskew) Predict(pc uint64) bool {
	bim, skew, meta := b.vote(pc)
	if meta {
		return skew
	}
	return bim
}

// Update trains the predictor with the branch's actual direction and
// advances the global history. It uses 2bcgskew's partial-update policy:
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
		b.meta.train(im, skew == taken)
	}
	if pred == taken {
		// Partial update: strengthen only the banks that agreed.
		if bim == taken {
			b.bim.train(ib, taken)
		}
		if b.g0.get(i0).taken() == taken {
			b.g0.train(i0, taken)
		}
		if b.g1.get(i1).taken() == taken {
			b.g1.train(i1, taken)
		}
	} else {
		b.bim.train(ib, taken)
		b.g0.train(i0, taken)
		b.g1.train(i1, taken)
	}
	b.hist = (b.hist << 1) | boolBit(taken)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
