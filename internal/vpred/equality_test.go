package vpred

import (
	"testing"

	"mtvp/internal/config"
)

// TestEqualityConfidenceScheme walks the dueling-counter state machine: a
// constant value builds eq to threshold and predicts confidently; changing
// values push neq up, and confidence requires eq > 2*neq+1 — one lucky
// repeat among churn is not enough to predict.
func TestEqualityConfidenceScheme(t *testing.T) {
	q := NewEqualityLCV(config.DefaultEquality())
	const pc, val = 0x800, 42

	// Below threshold: valid but not confident. The first training
	// allocates the entry with zeroed counters, so eq lags by one.
	for i := 0; i < eqThreshold; i++ {
		q.Train(pc, val)
	}
	if pr := q.Lookup(pc, 0); !pr.Valid || pr.Confident {
		t.Fatalf("after %d equal trainings: %+v, want valid but not yet confident", eqThreshold, pr)
	}
	q.Train(pc, val)
	pr := q.Lookup(pc, 0)
	if !pr.Confident || pr.Value != val {
		t.Fatalf("at threshold: %+v, want confident prediction of %d", pr, val)
	}

	// Churn: the LCV follows the committed stream, neq rises, and once
	// eq <= 2*neq+1 the entry must stop predicting.
	for i := 0; i < eqCounterMax; i++ {
		q.Train(pc, uint64(100+i))
	}
	pr = q.Lookup(pc, 0)
	if pr.Confident {
		t.Fatalf("confident after sustained churn: %+v", pr)
	}
	if want := uint64(100 + eqCounterMax - 1); pr.Value != want {
		t.Fatalf("LCV = %d after churn, want last committed %d", pr.Value, want)
	}
}

// TestEqualityDecay: the periodic sweep drains counter bias so an entry
// whose PC went quiet loses its confidence instead of predicting a stale
// value forever.
func TestEqualityDecay(t *testing.T) {
	p := config.DefaultEquality()
	p.DecayPeriod = 8
	q := NewEqualityLCV(p)
	const quiet, busy = 0x900, 0x908

	for i := 0; i < eqCounterMax*2; i++ {
		q.Train(quiet, 7)
	}
	if pr := q.Lookup(quiet, 0); !pr.Confident {
		t.Fatalf("not confident after saturation: %+v", pr)
	}
	eq0 := q.table.Peek(q.index(quiet)).eq

	// Only the busy PC trains now; every 8th training decays the whole
	// table, including the quiet entry.
	for i := 0; i < int(p.DecayPeriod)*eqCounterMax; i++ {
		q.Train(busy, uint64(i))
	}
	e := q.table.Peek(q.index(quiet))
	if e.eq >= eq0 {
		t.Fatalf("quiet entry eq %d did not decay from %d", e.eq, eq0)
	}
	if pr := q.Lookup(quiet, 0); pr.Confident {
		t.Fatalf("quiet entry still confident after %d decay sweeps: %+v", eqCounterMax, pr)
	}
	// Decay converges the duel toward balance, never below zero.
	if e.eq < 0 || e.neq < 0 {
		t.Fatalf("decay drove counters negative: (%d,%d)", e.eq, e.neq)
	}
}
