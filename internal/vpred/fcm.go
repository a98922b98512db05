package vpred

import (
	"mtvp/internal/config"
	"mtvp/internal/table"
)

// FCM is an order-N finite context method predictor (Sazeides & Smith): the
// level-1 table, indexed by PC, keeps a hash of the last N values; the
// level-2 table, indexed by that hash, keeps the value that followed the
// context last time, with a confidence counter. Unlike DFCM it predicts
// values directly rather than strides, so it captures repeating value
// sequences but not unseen stride continuations.
type FCM struct {
	p  config.DFCMParams // same sizing knobs as DFCM
	l1 table.Paged[fcmL1]
	l2 table.Paged[fcmL2]
}

type fcmL1 struct {
	pc     uint64
	hist   []uint64 // most recent first
	warmed int
	valid  bool
}

type fcmL2 struct {
	value uint64
	conf  int
}

// NewFCM builds an order-p.Order FCM predictor.
func NewFCM(p config.DFCMParams) *FCM {
	return &FCM{
		p:  p,
		l1: table.New[fcmL1](p.L1Entries),
		l2: table.New[fcmL2](p.L2Entries),
	}
}

func (f *FCM) l1Index(pc uint64) int {
	return int(pc % uint64(f.l1.Len()))
}

// index folds the value history with Burtscher's select-fold-shift scheme.
func (f *FCM) index(e *fcmL1) uint64 {
	var h uint64
	for i, v := range e.hist {
		x := v ^ (v >> 16) ^ (v >> 32) ^ (v >> 48)
		h ^= (x & 0xffff) >> uint(i*2) << uint(i*5)
	}
	h ^= e.pc << 3
	return h % uint64(f.l2.Len())
}

// Lookup implements Predictor. The actual value is ignored.
func (f *FCM) Lookup(pc, _ uint64) Prediction {
	e := f.l1.Peek(f.l1Index(pc))
	if e == nil || !e.valid || e.pc != pc || e.warmed < f.p.Order {
		return Prediction{}
	}
	var l2 fcmL2 // a never-trained context predicts 0, conf 0
	if p := f.l2.Peek(int(f.index(e))); p != nil {
		l2 = *p
	}
	return Prediction{
		Valid:     true,
		Value:     l2.value,
		Conf:      l2.conf,
		Confident: l2.conf >= f.p.Threshold,
	}
}

// Train implements Predictor.
func (f *FCM) Train(pc, actual uint64) {
	e := f.l1.At(f.l1Index(pc))
	if !e.valid || e.pc != pc {
		*e = fcmL1{pc: pc, hist: make([]uint64, f.p.Order), valid: true}
	}
	if e.warmed >= f.p.Order {
		l2 := f.l2.At(int(f.index(e)))
		if l2.value == actual {
			if l2.conf < f.p.ConfMax {
				l2.conf += f.p.ConfInc
			}
		} else {
			l2.conf -= f.p.ConfDec
			if l2.conf <= 0 {
				l2.value = actual
				l2.conf = 1
			}
		}
	}
	copy(e.hist[1:], e.hist)
	e.hist[0] = actual
	if e.warmed < f.p.Order {
		e.warmed++
	}
}

// Footprint implements Sizer: level-1 plus level-2 entries.
func (f *FCM) Footprint() int { return f.l1.Len() + f.l2.Len() }

var _ Predictor = (*FCM)(nil)
