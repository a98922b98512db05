package vpred

import (
	"testing"

	"mtvp/internal/config"
)

// trainStride retires count instances of pc walking by stride, starting at
// base, and returns the last retired value.
func trainStride(p Predictor, pc, base uint64, stride int64, count int) uint64 {
	v := base
	for i := 0; i < count; i++ {
		p.Train(pc, v)
		v = uint64(int64(v) + stride)
	}
	return uint64(int64(v) - stride)
}

// TestVPQInflightExtrapolation is the core VPQ property: with k earlier
// dynamic instances of a load still in flight, the prediction for the next
// instance extrapolates last + stride*(k+1), not just last + stride.
func TestVPQInflightExtrapolation(t *testing.T) {
	vq := NewVPQStride(config.DefaultVPQStride())
	const pc = 0x500
	last := trainStride(vq, pc, 1000, 8, 20) // stride locked in, confident

	for k := 0; k < 4; k++ {
		pr := vq.Lookup(pc, 0)
		if !pr.Valid || !pr.Confident {
			t.Fatalf("lookup %d: not confident after 20 stride trainings: %+v", k, pr)
		}
		want := uint64(int64(last) + 8*int64(k+1))
		if pr.Value != want {
			t.Errorf("lookup %d (with %d in flight): predicted %d, want %d", k, k, pr.Value, want)
		}
	}
	if got := vq.inflight(pc); got != 4 {
		t.Fatalf("inflight = %d after 4 untrained lookups, want 4", got)
	}

	// Retiring one instance shifts the extrapolation window down by one.
	vq.Train(pc, last+8)
	if got := vq.inflight(pc); got != 3 {
		t.Fatalf("inflight = %d after one retirement, want 3", got)
	}
	pr := vq.Lookup(pc, 0)
	if want := last + 8 + 8*4; pr.Value != want {
		t.Errorf("post-retire lookup: predicted %d, want %d", pr.Value, want)
	}
}

// TestVPQOrphanReclaim covers the squashed-speculative-lookup path: orphan
// VPQ slots beyond the queue's capacity are dropped oldest-first, so the
// occupancy never exceeds the ring and old orphans stop inflating the
// in-flight count.
func TestVPQOrphanReclaim(t *testing.T) {
	p := config.DefaultVPQStride()
	p.QueueEntries = 4
	vq := NewVPQStride(p)
	const pcA, pcB = 0x600, 0x608
	trainStride(vq, pcA, 0, 1, 4)
	trainStride(vq, pcB, 0, 1, 4)

	for i := 0; i < 10; i++ { // 10 speculative lookups, 4-slot ring
		vq.Lookup(pcA, 0)
	}
	if occ := vq.occupancy(); occ != 4 {
		t.Fatalf("occupancy = %d after orphan storm, want 4 (full)", occ)
	}
	if got := vq.inflight(pcA); got != 4 {
		t.Fatalf("inflight(A) = %d, want 4 (oldest orphans dropped)", got)
	}

	// A lookup for B evicts A's oldest orphan rather than being refused.
	vq.Lookup(pcB, 0)
	if got, gotB := vq.inflight(pcA), vq.inflight(pcB); got != 3 || gotB != 1 {
		t.Fatalf("after B's lookup: inflight(A)=%d inflight(B)=%d, want 3,1", got, gotB)
	}

	// Retirement tombstones the oldest live A instance and the head drains.
	vq.Train(pcA, 100)
	if got := vq.inflight(pcA); got != 2 {
		t.Fatalf("inflight(A) = %d after retirement, want 2", got)
	}
	// A train with no in-flight instance (never looked up) is harmless.
	before := vq.occupancy()
	vq.Train(0x610, 7)
	if occ := vq.occupancy(); occ > before {
		t.Fatalf("occupancy grew %d -> %d on a no-match retirement", before, occ)
	}
}

// TestVPQStrideHysteresis: a confident stride survives transient breaks —
// the new stride is adopted only once confidence is fully drained.
func TestVPQStrideHysteresis(t *testing.T) {
	vq := NewVPQStride(config.DefaultVPQStride())
	const pc = 0x700
	last := trainStride(vq, pc, 0, 8, 40) // conf saturated at ConfMax

	// One break: stride must still be 8 (conf took a hit but is not spent).
	vq.Train(pc, last+1000)
	if e := vq.table.Peek(vq.index(pc)); e.stride != 8 {
		t.Fatalf("stride flipped to %d after one break with saturated confidence", e.stride)
	}
	// Keep breaking until confidence is exhausted: then the stride flips.
	cur := last + 1000
	for i := 0; i < vpqConfMax/vpqConfDec+2; i++ {
		cur += 1000
		vq.Train(pc, cur)
	}
	if e := vq.table.Peek(vq.index(pc)); e.stride != 1000 {
		t.Fatalf("stride = %d after sustained breaks, want 1000 adopted", e.stride)
	}
}

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
