package vpred

import (
	"reflect"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/mem"
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
		config.PredVPQStride:    vpqConfMax,
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

// bankCase is one (predictor × sharing mode) bank over four hardware
// contexts.
type bankCase struct {
	name  string
	build func() *Bank
}

// registeredBanks crosses every registered predictor with every registered
// sharing mode, built through the same vpred.NewBank path the pipeline uses.
func registeredBanks(t *testing.T) []bankCase {
	t.Helper()
	var out []bankCase
	for _, pname := range config.PredictorNames() {
		kind, err := config.ParsePredictor(pname)
		if err != nil {
			t.Fatalf("registry name %q does not parse: %v", pname, err)
		}
		for _, sname := range config.SharingNames() {
			mode, err := config.ParseSharing(sname)
			if err != nil {
				t.Fatalf("sharing name %q does not parse: %v", sname, err)
			}
			kind, mode := kind, mode
			out = append(out, bankCase{
				name: pname + "/" + sname,
				build: func() *Bank {
					cfg := config.Baseline()
					cfg.Contexts = 4
					cfg.VP.Predictor = kind
					cfg.VP.Sharing = mode
					return NewBank(&cfg)
				},
			})
		}
	}
	return out
}

// loadStream yields a mixed pc/value stream: per-PC stride sequences with
// pseudorandom noise and repeats, so every predictor component (last value,
// stride, learned values, context history) gets exercised. The ctx column
// drives bank tests; plain predictors ignore it.
func loadStream(seed uint64, n int) []struct {
	pc, value uint64
	ctx       int
} {
	r := mem.NewRand(seed)
	const pcs = 48
	var state [pcs]uint64
	out := make([]struct {
		pc, value uint64
		ctx       int
	}, n)
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
		out[i] = struct {
			pc, value uint64
			ctx       int
		}{pc, state[p], r.Intn(4)}
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

// TestBankDeterministicSequence is the bank counterpart over every
// (predictor × sharing mode) pair: identical lookup/train histories across
// four contexts must give bit-identical prediction sequences and identical
// interference counters.
func TestBankDeterministicSequence(t *testing.T) {
	for _, bc := range registeredBanks(t) {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			a, b := bc.build(), bc.build()
			for i, s := range loadStream(17, 20_000) {
				pa := a.Lookup(s.ctx, s.pc, s.value)
				pb := b.Lookup(s.ctx, s.pc, s.value)
				if !reflect.DeepEqual(pa, pb) {
					t.Fatalf("step %d: bank predictions diverge: %+v vs %+v", i, pa, pb)
				}
				a.Train(s.ctx, s.pc, s.value)
				b.Train(s.ctx, s.pc, s.value)
			}
			if a.Stats() != b.Stats() {
				t.Fatalf("interference counters diverge: %+v vs %+v", a.Stats(), b.Stats())
			}
		})
	}
}

// TestTrainPredictConsistency holds each PC's value constant: whatever a
// predictor's internal organisation, a confident prediction for a PC that
// has only ever committed one value must be that value. Runs over every
// registered predictor and every bank (predictor × sharing mode).
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
	for _, bc := range registeredBanks(t) {
		bc := bc
		t.Run("bank/"+bc.name, func(t *testing.T) {
			b := bc.build()
			r := mem.NewRand(9)
			for i := 0; i < 20_000; i++ {
				k, ctx := r.Intn(pcs), r.Intn(4)
				pr := b.Lookup(ctx, pcOf(k), valOf(k))
				if pr.Valid && pr.Confident && pr.Value != valOf(k) {
					t.Fatalf("step %d pc %#x ctx %d: confident prediction %#x for constant %#x",
						i, pcOf(k), ctx, pr.Value, valOf(k))
				}
				b.Train(ctx, pcOf(k), valOf(k))
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

// TestBoundedFootprint pins the bounded-table-size invariant: every
// registered predictor (and every bank) implements Sizer, and its footprint
// after 100k mixed-stream trainings equals its footprint at construction —
// no predictor may grow state with the stream.
func TestBoundedFootprint(t *testing.T) {
	stream := loadStream(29, 100_000)
	for _, zc := range registeredZoo(t) {
		zc := zc
		t.Run(zc.name, func(t *testing.T) {
			p := zc.build()
			s, ok := p.(Sizer)
			if !ok {
				t.Fatalf("registered predictor %s does not implement Sizer", zc.name)
			}
			initial := s.Footprint()
			for _, e := range stream {
				p.Lookup(e.pc, e.value)
				p.Train(e.pc, e.value)
			}
			if got := s.Footprint(); got != initial {
				t.Fatalf("footprint grew %d -> %d over the stream", initial, got)
			}
		})
	}
	for _, bc := range registeredBanks(t) {
		bc := bc
		t.Run("bank/"+bc.name, func(t *testing.T) {
			b := bc.build()
			initial := b.Footprint()
			for _, e := range stream {
				b.Lookup(e.ctx, e.pc, e.value)
				b.Train(e.ctx, e.pc, e.value)
			}
			if got := b.Footprint(); got != initial {
				t.Fatalf("bank footprint grew %d -> %d over the stream", initial, got)
			}
		})
	}
}

// TestPartitionedFootprintConstant checks the partitioned bank's sizing
// contract: total footprint must not exceed the shared bank's (constant
// hardware budget), while the private bank's scales with the context count.
func TestPartitionedFootprintConstant(t *testing.T) {
	for _, pname := range config.PredictorNames() {
		kind, _ := config.ParsePredictor(pname)
		if kind == config.PredOracle {
			continue // stateless: every organisation has zero footprint
		}
		mk := func(mode config.SharingMode) *Bank {
			cfg := config.Baseline()
			cfg.Contexts = 4
			cfg.VP.Predictor = kind
			cfg.VP.Sharing = mode
			return NewBank(&cfg)
		}
		shared, private, part := mk(config.ShareShared), mk(config.SharePrivate), mk(config.SharePartitioned)
		sharedTables := shared.Footprint() - ownerProbeSlots // probe rides only on the shared bank
		if part.Footprint() > sharedTables {
			t.Errorf("%s: partitioned footprint %d exceeds shared budget %d",
				pname, part.Footprint(), sharedTables)
		}
		if private.Footprint() < sharedTables {
			t.Errorf("%s: private footprint %d below one full-size bank %d",
				pname, private.Footprint(), sharedTables)
		}
	}
}

// TestConfidenceBounds scans every confidence counter after every training
// step: counters must saturate at ConfMax and never go negative, under a
// stream engineered to hammer both the increment and the hard-backoff paths.
func TestConfidenceBounds(t *testing.T) {
	wf := NewWangFranklin(config.DefaultWF(), 0)
	dfcm := NewDFCM(config.DefaultDFCM())
	eq := NewEqualityLCV(config.DefaultEquality())
	vq := NewVPQStride(config.DefaultVPQStride())

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
	checkVQ := func(step int) {
		vq.table.EachPage(func(page []svpEntry) {
			for i := range page {
				if c := page[i].conf; c < 0 || c > vpqConfMax {
					t.Fatalf("step %d: vpq svp confidence %d outside [0,%d]",
						step, c, vpqConfMax)
				}
			}
		})
		if occ := vq.occupancy(); occ < 0 || occ > len(vq.queue) {
			t.Fatalf("step %d: VPQ occupancy %d outside [0,%d]", step, occ, len(vq.queue))
		}
	}

	for i, s := range loadStream(23, 30_000) {
		wf.Train(s.pc, s.value)
		dfcm.Train(s.pc, s.value)
		eq.Train(s.pc, s.value)
		vq.Lookup(s.pc, s.value) // VPQ enqueue path needs lookups to fill
		vq.Train(s.pc, s.value)
		// A full table scan per step is quadratic; sample periodically but
		// always scan the first steps, where saturation bugs surface.
		if i < 64 || i%997 == 0 {
			checkWF(i)
			checkDFCM(i)
			checkEq(i)
			checkVQ(i)
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
	vqp := config.DefaultVPQStride()
	vqp.TableEntries, vqp.QueueEntries = 8, 4
	eqp := config.DefaultEquality()
	eqp.TableEntries, eqp.DecayPeriod = 8, 64

	preds := map[string]Predictor{
		"wf-tiny":    NewWangFranklin(wfp, 0),
		"dfcm-tiny":  NewDFCM(dp),
		"vpq-tiny":   NewVPQStride(vqp),
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
	e := &dfcmL1{pc: ^uint64(0), deltas: []int64{1 << 62, -(1 << 62), -1}}
	if idx := dfcm.index(e); idx >= uint64(dfcm.l2.Len()) {
		t.Fatalf("DFCM l2 index %d out of bounds", idx)
	}
	vq := preds["vpq-tiny"].(*VPQStride)
	if occ := vq.occupancy(); occ < 0 || occ > len(vq.queue) {
		t.Fatalf("VPQ occupancy %d outside [0,%d] after aliasing storm", occ, len(vq.queue))
	}
}
