package vpred

import (
	"mtvp/internal/config"
	"mtvp/internal/table"
)

// Equality/LCV tuning: 3-bit dueling counters as in the exemplar design.
const (
	eqCounterMax = 7
	eqThreshold  = 5
)

// eqEntry is one equality predictor entry: the last committed value for the
// PC and a pair of dueling saturating counters voting "next value equals the
// last committed one" (eq) versus "it does not" (neq).
type eqEntry struct {
	pc      uint64
	value   uint64 // last committed value (LCV)
	eq, neq int
	valid   bool
}

// EqualityLCV is an equality predictor over a last-committed-value table,
// after the BALCVP exemplar design: instead of learning values directly, it
// predicts whether the next committed value will equal the last committed
// one, with per-PC dueling eq/neq counters and a periodic whole-table decay
// sweep that lets stale bias drain away.
//
// A prediction is confident only when the entry votes "equal" with high
// confidence in the exemplar's three-level scheme — eq strictly above
// 2*neq+1 — and the eq counter has reached eqThreshold.
type EqualityLCV struct {
	decayPeriod uint64
	table       table.Paged[eqEntry]
	trains      uint64 // total trainings, for the deterministic decay period
}

// NewEqualityLCV builds the predictor from its configured sizing.
func NewEqualityLCV(p config.EqualityParams) *EqualityLCV {
	return &EqualityLCV{decayPeriod: p.DecayPeriod, table: table.New[eqEntry](p.TableEntries)}
}

func (q *EqualityLCV) index(pc uint64) int {
	return int(pc % uint64(q.table.Len()))
}

// highEq reports whether the entry votes "equal" with high confidence:
// in the exemplar's low/medium/high formula, high in the taken direction
// means eq > 2*neq + 1.
func highEq(e *eqEntry) bool { return e.eq > 2*e.neq+1 }

// Lookup implements Predictor. The actual value is ignored.
func (q *EqualityLCV) Lookup(pc, _ uint64) Prediction {
	e := q.table.Peek(q.index(pc))
	if e == nil || !e.valid || e.pc != pc {
		return Prediction{}
	}
	return Prediction{
		Valid:     true,
		Value:     e.value,
		Conf:      e.eq,
		Confident: highEq(e) && e.eq >= eqThreshold,
	}
}

// Train implements Predictor: updates the dueling counters with the
// equality outcome, refreshes the LCV, and runs the periodic decay sweep.
func (q *EqualityLCV) Train(pc, actual uint64) {
	e := q.table.At(q.index(pc))
	if !e.valid || e.pc != pc {
		*e = eqEntry{pc: pc, value: actual, valid: true}
	} else {
		if e.value == actual {
			if e.eq < eqCounterMax {
				e.eq++
			} else if e.neq > 0 {
				e.neq--
			}
		} else {
			if e.neq < eqCounterMax {
				e.neq++
			} else if e.eq > 0 {
				e.eq--
			}
			e.value = actual
		}
	}
	q.trains++
	if q.trains%q.decayPeriod == 0 {
		q.decay()
	}
}

// decay drains one step of bias from every entry, sequentially per counter
// as in the exemplar (the second comparison sees the first decrement).
// Pages never written hold only invalid entries, so it skips them.
func (q *EqualityLCV) decay() {
	q.table.EachPage(func(page []eqEntry) {
		for i := range page {
			e := &page[i]
			if !e.valid {
				continue
			}
			if e.eq > e.neq {
				e.eq--
			}
			if e.neq > e.eq {
				e.neq--
			}
		}
	})
}

var _ Predictor = (*EqualityLCV)(nil)
