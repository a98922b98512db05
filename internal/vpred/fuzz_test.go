package vpred

import (
	"reflect"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/mem"
)

// fuzzStep decodes one op byte against a small PC/value universe. The low
// bits pick the action, the high bits the PC; values come from a per-PC
// rolling state seeded by the fuzzer so streams mix strides, repeats and
// noise.
type fuzzDriver struct {
	r     *mem.Rand
	state [8]uint64
}

func newFuzzDriver(seed uint64) *fuzzDriver {
	d := &fuzzDriver{r: mem.NewRand(seed | 1)}
	for i := range d.state {
		d.state[i] = d.r.Next()
	}
	return d
}

func (d *fuzzDriver) decode(op byte) (pc, value uint64, doLookup, doTrain bool) {
	p := int(op>>3) & 7
	switch op & 7 {
	case 0: // lookup only (a squashed speculative fetch: never retires)
		doLookup = true
	case 1: // train only (a load that was never looked up)
		doTrain = true
	case 7: // value jump: break the stride, then train
		d.state[p] = d.r.Next()
		doLookup, doTrain = true, true
	default: // the common retired-load path: lookup then train, stride walk
		d.state[p] += uint64(p) * 4
		doLookup, doTrain = true, true
	}
	return uint64(0x100 + p*8), d.state[p], doLookup, doTrain
}

// FuzzEqualityLCVPredictor drives a tiny equality/LCV predictor through
// arbitrary op streams with a short decay period so the sweep fires often.
// Invariants: both dueling counters stay in [0, CounterMax], a confident
// prediction always returns the last committed value for that entry, and a
// twin instance stays bit-identical.
func FuzzEqualityLCVPredictor(f *testing.F) {
	f.Add(uint64(15), []byte{0x02, 0x0a, 0x12, 0x1a, 0x02, 0x0a})
	f.Add(uint64(3), []byte{0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01}) // train-only: exercise decay
	f.Add(uint64(9), []byte{0x3f, 0x02, 0x3f, 0x02, 0x3f, 0x02})                   // alternating values duel the counters
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		p := config.DefaultEquality()
		p.TableEntries, p.DecayPeriod = 8, 4 // tiny table, near-constant decay pressure
		a, b := NewEqualityLCV(p), NewEqualityLCV(p)
		d := newFuzzDriver(seed)
		foot := a.Footprint()
		for i, op := range ops {
			pc, v, doLookup, doTrain := d.decode(op)
			if doLookup {
				pa, pb := a.Lookup(pc, v), b.Lookup(pc, v)
				if !reflect.DeepEqual(pa, pb) {
					t.Fatalf("op %d: twins diverge: %+v vs %+v", i, pa, pb)
				}
				if pa.Confident {
					e := a.table.Peek(a.index(pc))
					if e == nil || !e.valid || e.pc != pc || pa.Value != e.value {
						t.Fatalf("op %d: confident prediction %#x does not match stored entry", i, pa.Value)
					}
				}
			}
			if doTrain {
				a.Train(pc, v)
				b.Train(pc, v)
			}
			// Unwritten pages hold zero counters, inside the bound.
			a.table.EachPage(func(page []eqEntry) {
				for j := range page {
					e := &page[j]
					if e.eq < 0 || e.eq > eqCounterMax || e.neq < 0 || e.neq > eqCounterMax {
						t.Fatalf("op %d: entry %d counters (%d,%d) outside [0,%d]",
							i, j, e.eq, e.neq, eqCounterMax)
					}
				}
			})
		}
		if got := a.Footprint(); got != foot {
			t.Fatalf("footprint grew %d -> %d", foot, got)
		}
	})
}
