package vpred

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"mtvp/internal/config"
	"mtvp/internal/mem"
	"mtvp/internal/table"
)

// zooCase is one predictor under generic invariant test: a fresh-instance
// builder plus the ceiling its Lookup-visible confidence may reach.
type zooCase struct {
	name    string
	build   func() Predictor
	confMax int
}

// registeredZoo builds one case per predictor registered in the config
// registry, via the same constructor path the pipeline uses. A predictor
// added to the registry without property coverage fails here (the confMax
// table must name it).
func registeredZoo(t *testing.T) []zooCase {
	t.Helper()
	confMax := map[config.PredictorKind]int{
		config.PredOracle:       1 << 20,
		config.PredWangFranklin: wfConfMax,
		config.PredDFCM:         dfcmConfMax,
		config.PredEqualityLCV:  eqCounterMax,
	}
	var out []zooCase
	for _, name := range config.PredictorNames() {
		kind, err := config.ParsePredictor(name)
		if err != nil {
			t.Fatalf("registry name %q does not parse: %v", name, err)
		}
		cm, ok := confMax[kind]
		if !ok {
			t.Fatalf("predictor %q is registered but has no property-test confMax entry", name)
		}
		out = append(out, zooCase{
			name: name,
			build: func() Predictor {
				cfg := config.Baseline()
				cfg.VP.Predictor = kind
				return New(&cfg)
			},
			confMax: cm,
		})
	}
	return out
}

// sharedCase is one registered predictor built as an MTVP machine with
// four hardware contexts holds it: one table set shared by every context.
type sharedCase struct {
	name  string
	build func() Predictor
}

// registeredShared builds one shared-table case per registered predictor,
// from a four-context MTVP configuration through the constructor the
// pipeline uses.
func registeredShared(t *testing.T) []sharedCase {
	t.Helper()
	var out []sharedCase
	for _, pname := range config.PredictorNames() {
		kind, err := config.ParsePredictor(pname)
		if err != nil {
			t.Fatalf("registry name %q does not parse: %v", pname, err)
		}
		out = append(out, sharedCase{
			name: pname + "/shared",
			build: func() Predictor {
				cfg := config.Baseline().WithMTVP(4, kind, config.SelILPPred)
				return New(&cfg)
			},
		})
	}
	return out
}

// contextStream interleaves four contexts' load streams over the same PCs,
// as the spawned threads of one program reach the shared tables: each
// context walks its own values, so one PC's entry sees every context's
// history in turn.
func contextStream(seed uint64, n int) []struct{ pc, value uint64 } {
	const contexts = 4
	var per [contexts][]struct{ pc, value uint64 }
	for c := range per {
		per[c] = loadStream(seed+uint64(c), n)
	}
	r := mem.NewRand(seed ^ 0x5eed)
	var next [contexts]int
	out := make([]struct{ pc, value uint64 }, n)
	for i := range out {
		c := r.Intn(contexts)
		out[i] = per[c][next[c]]
		next[c]++
	}
	return out
}

// aliasStream alternates two PCs 4,096 apart, which share an entry of
// every default-sized table indexed by PC alone, so nearly every training
// hands the entry to the other PC.
func aliasStream(n int) []struct{ pc, value uint64 } {
	out := make([]struct{ pc, value uint64 }, n)
	for i := range out {
		out[i] = struct{ pc, value uint64 }{0x4000 + uint64(i%2)*4096, uint64(i) * 8}
	}
	return out
}

// loadStream yields a mixed pc/value stream: per-PC stride sequences with
// pseudorandom noise and repeats, so every predictor component (last value,
// stride, learned values, context history) gets exercised.
func loadStream(seed uint64, n int) []struct{ pc, value uint64 } {
	r := mem.NewRand(seed)
	const pcs = 48
	var state [pcs]uint64
	out := make([]struct{ pc, value uint64 }, n)
	for i := range out {
		p := r.Intn(pcs)
		pc := uint64(0x4000 + p*4)
		switch r.Intn(8) {
		case 0: // noise value
			state[p] = r.Next()
		case 1: // repeat (no update)
		default: // stride continuation
			state[p] += uint64(p%5) * 8
		}
		out[i] = struct{ pc, value uint64 }{pc, state[p]}
	}
	return out
}

// TestDeterministicPredictionSequence drives two identically-configured
// instances of every registered predictor with the same load stream and
// requires bit-identical prediction sequences: predictors hold no hidden
// nondeterministic state.
func TestDeterministicPredictionSequence(t *testing.T) {
	for _, zc := range registeredZoo(t) {
		zc := zc
		t.Run(zc.name, func(t *testing.T) {
			a, b := zc.build(), zc.build()
			for i, s := range loadStream(11, 20_000) {
				pa := a.Lookup(s.pc, s.value)
				pb := b.Lookup(s.pc, s.value)
				if !reflect.DeepEqual(pa, pb) {
					t.Fatalf("step %d: predictions diverge: %+v vs %+v", i, pa, pb)
				}
				a.Train(s.pc, s.value)
				b.Train(s.pc, s.value)
			}
		})
	}
}

// TestBankDeterministicSequence is the shared-table counterpart over every
// registered predictor: identical four-context lookup/train histories on the
// one table set the contexts share must give bit-identical prediction
// sequences.
func TestBankDeterministicSequence(t *testing.T) {
	for _, sc := range registeredShared(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			a, b := sc.build(), sc.build()
			for i, s := range contextStream(17, 20_000) {
				pa := a.Lookup(s.pc, s.value)
				pb := b.Lookup(s.pc, s.value)
				if !reflect.DeepEqual(pa, pb) {
					t.Fatalf("step %d: shared-table predictions diverge: %+v vs %+v", i, pa, pb)
				}
				a.Train(s.pc, s.value)
				b.Train(s.pc, s.value)
			}
		})
	}
}

// TestTrainPredictConsistency holds each PC's value constant: whatever a
// predictor's internal organisation, a confident prediction for a PC that
// has only ever committed one value must be that value. Runs over every
// registered predictor, alone and as four contexts' shared tables.
func TestTrainPredictConsistency(t *testing.T) {
	const pcs = 16
	pcOf := func(i int) uint64 { return uint64(0x1000 + i*8) }
	valOf := func(i int) uint64 { return uint64(0xABC0 + i*3) }

	for _, zc := range registeredZoo(t) {
		zc := zc
		t.Run(zc.name, func(t *testing.T) {
			p := zc.build()
			r := mem.NewRand(7)
			for i := 0; i < 20_000; i++ {
				k := r.Intn(pcs)
				pr := p.Lookup(pcOf(k), valOf(k))
				if pr.Valid && pr.Confident && pr.Value != valOf(k) {
					t.Fatalf("step %d pc %#x: confident prediction %#x for constant %#x",
						i, pcOf(k), pr.Value, valOf(k))
				}
				p.Train(pcOf(k), valOf(k))
			}
		})
	}
	for _, sc := range registeredShared(t) {
		sc := sc
		t.Run("bank/"+sc.name, func(t *testing.T) {
			p := sc.build()
			r := mem.NewRand(9)
			for i := 0; i < 20_000; i++ {
				k := r.Intn(pcs) // any of the four contexts commits the same constant
				pr := p.Lookup(pcOf(k), valOf(k))
				if pr.Valid && pr.Confident && pr.Value != valOf(k) {
					t.Fatalf("step %d pc %#x: confident prediction %#x for constant %#x",
						i, pcOf(k), pr.Value, valOf(k))
				}
				p.Train(pcOf(k), valOf(k))
			}
		})
	}
}

// TestConfidenceMonotonicity trains a single PC on a constant value: the
// Lookup-visible confidence must be non-decreasing (no predictor may lose
// faith in a value that keeps repeating) and must stay within [0, confMax].
// The training count stays below the equality predictor's decay period,
// which is the one sanctioned source of downward drift.
func TestConfidenceMonotonicity(t *testing.T) {
	for _, zc := range registeredZoo(t) {
		zc := zc
		t.Run(zc.name, func(t *testing.T) {
			p := zc.build()
			const pc, val = 0x2040, 42
			prev := -1
			for i := 0; i < 2_000; i++ {
				pr := p.Lookup(pc, val)
				if pr.Valid {
					if pr.Conf < 0 || pr.Conf > zc.confMax {
						t.Fatalf("step %d: confidence %d outside [0,%d]", i, pr.Conf, zc.confMax)
					}
					if pr.Conf < prev {
						t.Fatalf("step %d: confidence fell %d -> %d on a constant stream",
							i, prev, pr.Conf)
					}
					prev = pr.Conf
				}
				p.Train(pc, val)
			}
			if prev < 0 {
				t.Fatal("predictor never produced a valid prediction on a constant stream")
			}
		})
	}
}

// TestBoundedFootprint pins the bounded-table-size invariant: the heap
// bytes every registered predictor allocates over 100k mixed-stream
// lookups and trainings, alone, on two aliasing PCs, and as four
// contexts' shared tables, stay at or below the full size of its tables.
// Paged tables allocate on first write, so a predictor that keeps to its
// tables can never exceed that, while one that grows state with the
// stream (or allocates per lookup) soon does. The figure is the minimum
// over three fresh instances, which keeps stray runtime allocations out
// of it.
func TestBoundedFootprint(t *testing.T) {
	stream := loadStream(29, 100_000)
	for _, zc := range registeredZoo(t) {
		t.Run(zc.name, func(t *testing.T) {
			checkStreamAlloc(t, zc.build, stream)
		})
	}
	aliased := aliasStream(100_000)
	for _, zc := range registeredZoo(t) {
		t.Run("aliased/"+zc.name, func(t *testing.T) {
			checkStreamAlloc(t, zc.build, aliased)
		})
	}
	shared := contextStream(31, 100_000)
	for _, sc := range registeredShared(t) {
		t.Run("bank/"+sc.name, func(t *testing.T) {
			checkStreamAlloc(t, sc.build, shared)
		})
	}
}

// checkStreamAlloc runs stream through three fresh predictors and fails
// when the least any of them allocated exceeds its tables' full size.
func checkStreamAlloc(t *testing.T, build func() Predictor, stream []struct{ pc, value uint64 }) {
	t.Helper()
	least := uint64(1 << 62)
	var limit uint64
	for i := 0; i < 3; i++ {
		p := build()
		limit = fullTableBytes(t, p)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, e := range stream {
			p.Lookup(e.pc, e.value)
			p.Train(e.pc, e.value)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("allocated %d of %d table bytes", least, limit)
	if least > limit {
		t.Fatalf("allocated %d bytes over the stream, more than the %d bytes of its full tables", least, limit)
	}
}

// fullTableBytes is the heap size of p's tables with every page written:
// entries times entry size.
func fullTableBytes(t *testing.T, p Predictor) uint64 {
	t.Helper()
	switch p := p.(type) {
	case Oracle:
		return 0
	case *WangFranklin:
		return pagedBytes(&p.vht) + pagedBytes(&p.pht)
	case *DFCM:
		return pagedBytes(&p.l1) + pagedBytes(&p.l2)
	case *EqualityLCV:
		return pagedBytes(&p.table)
	}
	t.Fatalf("no table size for predictor %T", p)
	return 0
}

func pagedBytes[T any](tb *table.Paged[T]) uint64 {
	var zero T
	return uint64(tb.Len()) * uint64(unsafe.Sizeof(zero))
}

// TestConfidenceBounds scans every confidence counter after every training
// step: counters must saturate at ConfMax and never go negative, under a
// stream engineered to hammer both the increment and the hard-backoff paths.
func TestConfidenceBounds(t *testing.T) {
	wf := NewWangFranklin(config.DefaultWF(), 0)
	dfcm := NewDFCM(config.DefaultDFCM())
	eq := NewEqualityLCV(config.DefaultEquality())

	// The checks walk the written pages: entries on pages never written
	// read as zero, trivially inside every bound.
	checkWF := func(step int) {
		wf.pht.EachPage(func(page []wfPHTEntry) {
			for i := range page {
				for s, c := range page[i].conf {
					if c < 0 || c > wfConfMax {
						t.Fatalf("step %d: WF pht slot %d confidence %d outside [0,%d]",
							step, s, c, wfConfMax)
					}
				}
			}
		})
	}
	checkDFCM := func(step int) {
		dfcm.l2.EachPage(func(page []dfcmL2) {
			for i := range page {
				if c := page[i].conf; c < 0 || c > dfcmConfMax {
					t.Fatalf("step %d: dfcm l2 confidence %d outside [0,%d]",
						step, c, dfcmConfMax)
				}
			}
		})
	}
	checkEq := func(step int) {
		eq.table.EachPage(func(page []eqEntry) {
			for i := range page {
				e := &page[i]
				if e.eq < 0 || e.eq > eqCounterMax || e.neq < 0 || e.neq > eqCounterMax {
					t.Fatalf("step %d: eqlcv counters (%d,%d) outside [0,%d]",
						step, e.eq, e.neq, eqCounterMax)
				}
			}
		})
	}

	for i, s := range loadStream(23, 30_000) {
		wf.Train(s.pc, s.value)
		dfcm.Train(s.pc, s.value)
		eq.Train(s.pc, s.value)
		// A full table scan per step is quadratic; sample periodically but
		// always scan the first steps, where saturation bugs surface.
		if i < 64 || i%997 == 0 {
			checkWF(i)
			checkDFCM(i)
			checkEq(i)
		}
	}
}

// TestTableAliasingInBounds feeds adversarial PCs (extreme magnitudes, dense
// aliases onto deliberately tiny tables) and extreme values: every internal
// index stays within its table and lookups never panic.
func TestTableAliasingInBounds(t *testing.T) {
	wfp := config.DefaultWF()
	wfp.VHTEntries, wfp.ValPHTEntries = 8, 16 // force heavy aliasing
	dp := config.DefaultDFCM()
	dp.L1Entries, dp.L2Entries = 8, 16
	eqp := config.DefaultEquality()
	eqp.TableEntries, eqp.DecayPeriod = 8, 64

	preds := map[string]Predictor{
		"wf-tiny":    NewWangFranklin(wfp, 0),
		"dfcm-tiny":  NewDFCM(dp),
		"eqlcv-tiny": NewEqualityLCV(eqp),
	}
	pcs := []uint64{0, 1, ^uint64(0), 1 << 63, 0xdeadbeefdeadbeef, 1<<32 + 7, 3}
	vals := []uint64{0, 1, ^uint64(0), 1 << 63, 0x8000000000000001, 42}

	r := mem.NewRand(5)
	for name, p := range preds {
		for i := 0; i < 5_000; i++ {
			pc := pcs[r.Intn(len(pcs))] + uint64(r.Intn(3))
			v := vals[r.Intn(len(vals))] + r.Next()%7
			p.Lookup(pc, v) // must not panic on any alias pattern
			p.Train(pc, v)
		}
		_ = name
	}

	// Direct index checks on the hash functions with adversarial state.
	wf := preds["wf-tiny"].(*WangFranklin)
	for _, pc := range pcs {
		for _, hist := range vals {
			if idx := wf.phtIndex(pc, hist); idx >= uint64(wf.pht.Len()) {
				t.Fatalf("WF pht index %d out of bounds for pc %#x hist %#x", idx, pc, hist)
			}
		}
	}
	dfcm := preds["dfcm-tiny"].(*DFCM)
	e := &dfcmL1{pc: ^uint64(0), deltas: [dfcmOrder]int64{1 << 62, -(1 << 62), -1}, n: dfcmOrder}
	if idx := dfcm.index(e); idx >= uint64(dfcm.l2.Len()) {
		t.Fatalf("DFCM l2 index %d out of bounds", idx)
	}
}
