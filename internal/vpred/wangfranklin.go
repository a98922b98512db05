package vpred

import (
	"mtvp/internal/config"
	"mtvp/internal/table"
)

// Wang–Franklin tuning: the paper's §5.4 values; wfHistLen counts outcomes.
const (
	wfLearnedValues = 5
	wfHistLen       = 6
	wfConfMax       = 32
	wfConfInc       = 1
	wfConfDec       = 8
	wfThreshold     = 12
)

// Slot identifiers inside one Wang–Franklin VHT entry. The learned values
// fill slots 0..4, followed by hardwired zero and one and a stride value —
// eight candidates, so a slot id fits in three bits of the pattern history.
const (
	wfSlotZero   = wfLearnedValues
	wfSlotOne    = wfLearnedValues + 1
	wfSlotStride = wfLearnedValues + 2
	wfSlots      = 8
	wfSlotBits   = 3
	wfHistMask   = 1<<(wfHistLen*wfSlotBits) - 1
)

type wfVHTEntry struct {
	pc     uint64
	values [wfLearnedValues]uint64
	last   uint64 // last value, for the stride component
	stride int64
	hist   uint64 // pattern history: wfHistLen slot ids, 3 bits each
	valid  bool
}

type wfPHTEntry struct {
	conf [wfSlots]int16
}

// WangFranklin is the hybrid value predictor of §5.4: a PC-indexed value
// history table (VHT) holding five learned values, hardwired zero and one,
// and a stride; and a pattern-indexed value pattern history table (ValPHT)
// holding a saturating confidence per candidate slot.
type WangFranklin struct {
	liberal int // secondary threshold for multi-value mode (0 = wfThreshold)
	vht     table.Paged[wfVHTEntry]
	pht     table.Paged[wfPHTEntry]
}

// NewWangFranklin builds the predictor. liberalThreshold, when nonzero,
// is the (lower) confidence bar applied to alternate values reported for
// multiple-value prediction.
func NewWangFranklin(p config.WangFranklinParams, liberalThreshold int) *WangFranklin {
	return &WangFranklin{
		liberal: liberalThreshold,
		vht:     table.New[wfVHTEntry](p.VHTEntries),
		pht:     table.New[wfPHTEntry](p.ValPHTEntries),
	}
}

func (w *WangFranklin) vhtIndex(pc uint64) int {
	return int(pc % uint64(w.vht.Len()))
}

func (w *WangFranklin) phtIndex(pc, hist uint64) uint64 {
	// Mix the pattern history with PC bits so different loads sharing a
	// pattern do not fully alias.
	h := hist ^ (pc << 7) ^ (pc >> 3)
	return h % uint64(w.pht.Len())
}

// slotValue returns the candidate value slot s proposes.
func (w *WangFranklin) slotValue(e *wfVHTEntry, s int) uint64 {
	switch s {
	case wfSlotZero:
		return 0
	case wfSlotOne:
		return 1
	case wfSlotStride:
		return uint64(int64(e.last) + e.stride)
	default:
		return e.values[s]
	}
}

// Lookup implements Predictor. The actual value is ignored.
func (w *WangFranklin) Lookup(pc, _ uint64) Prediction {
	e := w.vht.Peek(w.vhtIndex(pc))
	if e == nil || !e.valid || e.pc != pc {
		return Prediction{}
	}
	var ph wfPHTEntry // a never-trained pattern has zero confidence
	if p := w.pht.Peek(int(w.phtIndex(pc, e.hist))); p != nil {
		ph = *p
	}

	best, bestConf := -1, -1
	for s := 0; s < wfSlots; s++ {
		if int(ph.conf[s]) > bestConf {
			best, bestConf = s, int(ph.conf[s])
		}
	}
	// In multi-value mode the predictor itself is "more liberal" (§5.6):
	// the lowered bar applies to the primary prediction as well as to the
	// alternates, with the discriminating criticality selector expected to
	// keep the extra predictions focused on profitable loads.
	bar := wfThreshold
	if w.liberal > 0 && w.liberal < bar {
		bar = w.liberal
	}
	pr := Prediction{
		Valid:     true,
		Value:     w.slotValue(e, best),
		Conf:      bestConf,
		Confident: bestConf >= bar,
	}

	altBar := w.liberal
	if altBar <= 0 {
		altBar = wfThreshold
	}
	for s := 0; s < wfSlots; s++ {
		if s == best {
			continue
		}
		if int(ph.conf[s]) < altBar {
			continue
		}
		v := w.slotValue(e, s)
		if v == pr.Value {
			continue
		}
		dup := false
		for _, a := range pr.Alternates {
			if a.Value == v {
				dup = true
				break
			}
		}
		if !dup {
			pr.Alternates = append(pr.Alternates, Candidate{Value: v, Conf: int(ph.conf[s])})
		}
	}
	return pr
}

// Train implements Predictor: confidence update, pattern-history shift,
// learned-value replacement, and stride update, in the order the paper
// describes (stride speculatively at use, the rest at commit — the
// simulator trains in per-thread program order, which matches both).
func (w *WangFranklin) Train(pc, actual uint64) {
	e := w.vht.At(w.vhtIndex(pc))
	if !e.valid || e.pc != pc {
		*e = wfVHTEntry{pc: pc, last: actual, valid: true}
		for i := range e.values {
			e.values[i] = actual
		}
		return
	}
	ph := w.pht.At(int(w.phtIndex(pc, e.hist)))

	matched := -1
	for s := 0; s < wfSlots; s++ {
		if w.slotValue(e, s) == actual {
			if matched == -1 || ph.conf[s] > ph.conf[matched] {
				matched = s
			}
			if ph.conf[s] < wfConfMax {
				ph.conf[s] += wfConfInc
			}
		} else if ph.conf[s] >= wfThreshold {
			// This slot would have been (or nearly been) predicted
			// and was wrong: back off hard.
			ph.conf[s] -= wfConfDec
			if ph.conf[s] < 0 {
				ph.conf[s] = 0
			}
		}
	}

	histSlot := matched
	if matched == -1 {
		// No candidate matched: replace the globally least confident
		// learned value with the new one.
		victim := 0
		for s := 1; s < wfLearnedValues; s++ {
			if ph.conf[s] < ph.conf[victim] {
				victim = s
			}
		}
		e.values[victim] = actual
		ph.conf[victim] = 1
		histSlot = victim
	}

	e.hist = ((e.hist << wfSlotBits) | uint64(histSlot)) & wfHistMask
	e.stride = int64(actual) - int64(e.last)
	e.last = actual
}

var _ Predictor = (*WangFranklin)(nil)
