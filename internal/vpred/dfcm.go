package vpred

import (
	"mtvp/internal/config"
	"mtvp/internal/table"
)

// DFCM tuning. The −4 decrement and threshold of 8 make it more aggressive
// than Wang–Franklin's −8 and 12, as the paper observes.
const (
	dfcmOrder     = 3
	dfcmConfMax   = 32
	dfcmConfInc   = 1
	dfcmConfDec   = 4
	dfcmThreshold = 8
)

// DFCM is an order-3 differential finite context method predictor with
// Burtscher's improved index function: the level-1 table, indexed by PC,
// holds the last value and the recent stride history; the level-2 table,
// indexed by a hash of the stride history, holds the predicted next stride
// and a confidence counter. The paper (§5.4) finds it more aggressive than
// Wang–Franklin — more correct predictions but also more mispredictions.
type DFCM struct {
	l1 table.Paged[dfcmL1]
	l2 table.Paged[dfcmL2]
}

type dfcmL1 struct {
	pc     uint64
	last   uint64
	deltas []int64 // most recent first
	valid  bool
}

type dfcmL2 struct {
	delta int64
	conf  int
}

// NewDFCM builds the predictor from its configured table sizes.
func NewDFCM(p config.DFCMParams) *DFCM {
	return &DFCM{
		l1: table.New[dfcmL1](p.L1Entries),
		l2: table.New[dfcmL2](p.L2Entries),
	}
}

func (d *DFCM) l1Index(pc uint64) int {
	return int(pc % uint64(d.l1.Len()))
}

// index implements Burtscher's improved (D)FCM index function: each stride
// in the history is folded and shifted by a different amount before being
// combined, so older strides contribute fewer bits and the hash stays
// well distributed.
func (d *DFCM) index(e *dfcmL1) uint64 {
	var h uint64
	for i, dv := range e.deltas {
		v := uint64(dv)
		// select-fold-shift per Burtscher: fold the 64-bit stride to
		// ~16 bits, then shift by position so recent strides dominate.
		f := v ^ (v >> 16) ^ (v >> 32) ^ (v >> 48)
		h ^= (f & 0xffff) >> uint(i*2) << uint(i*5)
	}
	h ^= e.pc << 3
	return h % uint64(d.l2.Len())
}

// Lookup implements Predictor. The actual value is ignored.
func (d *DFCM) Lookup(pc, _ uint64) Prediction {
	e := d.l1.Peek(d.l1Index(pc))
	if e == nil || !e.valid || e.pc != pc || len(e.deltas) < dfcmOrder {
		return Prediction{}
	}
	var l2 dfcmL2 // a never-trained context predicts stride 0, conf 0
	if p := d.l2.Peek(int(d.index(e))); p != nil {
		l2 = *p
	}
	return Prediction{
		Valid:     true,
		Value:     uint64(int64(e.last) + l2.delta),
		Conf:      l2.conf,
		Confident: l2.conf >= dfcmThreshold,
	}
}

// Train implements Predictor.
func (d *DFCM) Train(pc, actual uint64) {
	e := d.l1.At(d.l1Index(pc))
	if !e.valid || e.pc != pc {
		*e = dfcmL1{pc: pc, last: actual, valid: true, deltas: make([]int64, 0, dfcmOrder)}
		return
	}
	delta := int64(actual) - int64(e.last)
	if len(e.deltas) >= dfcmOrder {
		l2 := d.l2.At(int(d.index(e)))
		if l2.delta == delta {
			if l2.conf < dfcmConfMax {
				l2.conf += dfcmConfInc
			}
		} else {
			l2.conf -= dfcmConfDec
			if l2.conf <= 0 {
				l2.delta = delta
				l2.conf = 1
			}
		}
	}
	// Shift the new stride into the history (most recent first).
	if len(e.deltas) < dfcmOrder {
		e.deltas = append(e.deltas, 0)
	}
	copy(e.deltas[1:], e.deltas)
	e.deltas[0] = delta
	e.last = actual
}

var _ Predictor = (*DFCM)(nil)
