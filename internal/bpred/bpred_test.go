package bpred

import (
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/mem"
)

func params() config.BranchParams {
	return config.BranchParams{
		MetaEntries:    64 << 10,
		GshareEntries:  64 << 10,
		BimodalEntries: 16 << 10,
	}
}

// accuracy trains the predictor on a sequence and returns the fraction of
// correct predictions over the second half (after warmup).
func accuracy(p *TwoBcgskew, seq []struct {
	pc    uint64
	taken bool
}) float64 {
	correct, total := 0, 0
	for i, s := range seq {
		pred := p.Predict(s.pc)
		p.Update(s.pc, s.taken)
		if i >= len(seq)/2 {
			total++
			if pred == s.taken {
				correct++
			}
		}
	}
	return float64(correct) / float64(total)
}

func TestAlwaysTakenLoop(t *testing.T) {
	p := New2bcgskew(params())
	var seq []struct {
		pc    uint64
		taken bool
	}
	for i := 0; i < 2000; i++ {
		seq = append(seq, struct {
			pc    uint64
			taken bool
		}{0x40, true})
	}
	if acc := accuracy(p, seq); acc < 0.99 {
		t.Errorf("always-taken accuracy %.3f", acc)
	}
}

func TestLoopExitPattern(t *testing.T) {
	// Taken 7 times, not-taken once, repeating: history-based components
	// should learn the exit.
	p := New2bcgskew(params())
	var seq []struct {
		pc    uint64
		taken bool
	}
	for i := 0; i < 8000; i++ {
		seq = append(seq, struct {
			pc    uint64
			taken bool
		}{0x80, i%8 != 7})
	}
	if acc := accuracy(p, seq); acc < 0.95 {
		t.Errorf("loop-exit accuracy %.3f, want >= 0.95", acc)
	}
}

func TestAlternatingPattern(t *testing.T) {
	p := New2bcgskew(params())
	var seq []struct {
		pc    uint64
		taken bool
	}
	for i := 0; i < 4000; i++ {
		seq = append(seq, struct {
			pc    uint64
			taken bool
		}{0xC0, i%2 == 0})
	}
	if acc := accuracy(p, seq); acc < 0.97 {
		t.Errorf("alternating accuracy %.3f", acc)
	}
}

func TestRandomBranchNearChance(t *testing.T) {
	p := New2bcgskew(params())
	r := mem.NewRand(5)
	var seq []struct {
		pc    uint64
		taken bool
	}
	for i := 0; i < 8000; i++ {
		seq = append(seq, struct {
			pc    uint64
			taken bool
		}{0x100, r.Intn(2) == 0})
	}
	acc := accuracy(p, seq)
	if acc < 0.40 || acc > 0.62 {
		t.Errorf("random-branch accuracy %.3f, expected near 0.5", acc)
	}
}

func TestBiasedBranches(t *testing.T) {
	p := New2bcgskew(params())
	r := mem.NewRand(9)
	var seq []struct {
		pc    uint64
		taken bool
	}
	for i := 0; i < 8000; i++ {
		seq = append(seq, struct {
			pc    uint64
			taken bool
		}{0x140, r.Intn(100) < 90})
	}
	if acc := accuracy(p, seq); acc < 0.85 {
		t.Errorf("90%%-biased accuracy %.3f", acc)
	}
}

func TestManyBranchesNoCatastrophicAliasing(t *testing.T) {
	// Hundreds of strongly biased branches at distinct PCs: the skewed
	// banks should keep them apart.
	p := New2bcgskew(params())
	var seq []struct {
		pc    uint64
		taken bool
	}
	for round := 0; round < 40; round++ {
		for b := 0; b < 400; b++ {
			pc := uint64(0x1000 + b*4)
			seq = append(seq, struct {
				pc    uint64
				taken bool
			}{pc, b%2 == 0}) // bias direction by PC
		}
	}
	if acc := accuracy(p, seq); acc < 0.97 {
		t.Errorf("multi-branch accuracy %.3f", acc)
	}
}

func TestCounterSaturation(t *testing.T) {
	var c counter
	if v := c.value(); v != 2 {
		t.Fatalf("zero counter decodes to %d, want 2 (weakly taken)", v)
	}
	for i := 0; i < 10; i++ {
		c = c.train(true)
	}
	if v := c.value(); v != 3 {
		t.Errorf("counter did not saturate at 3: %d", v)
	}
	for i := 0; i < 10; i++ {
		c = c.train(false)
	}
	if v := c.value(); v != 0 {
		t.Errorf("counter did not saturate at 0: %d", v)
	}
}

// TestFreshPredictorPredictsTaken pins the initial state: every counter of
// a new predictor starts weakly taken, so every PC predicts taken.
func TestFreshPredictorPredictsTaken(t *testing.T) {
	p := New2bcgskew(config.Baseline().Branch)
	for pc := uint64(0); pc < 1<<18; pc++ {
		if !p.Predict(pc) {
			t.Fatalf("fresh predictor predicts not-taken at pc %#x", pc)
		}
	}
}

// refPredictor is the 2bcgskew with one counter per byte, as the model
// stored it before the banks were packed four to a byte. It is kept as the
// reference the packed predictor must match prediction for prediction.
type refPredictor struct {
	bim, g0, g1, meta []counter
	hist              uint64
}

func newRef(p config.BranchParams) *refPredictor {
	return &refPredictor{
		bim:  make([]counter, p.BimodalEntries),
		g0:   make([]counter, p.GshareEntries),
		g1:   make([]counter, p.GshareEntries),
		meta: make([]counter, p.MetaEntries),
	}
}

func (b *refPredictor) idx(pc uint64) (ib, i0, i1, im uint64) {
	h := b.hist & histMask
	ib = pc % uint64(len(b.bim))
	i0 = (pc ^ h ^ (pc >> 7)) % uint64(len(b.g0))
	i1 = (pc ^ (h << 3) ^ (pc >> 13) ^ (h >> 5)) % uint64(len(b.g1))
	im = (pc ^ (h << 1)) % uint64(len(b.meta))
	return
}

func (b *refPredictor) vote(pc uint64) (bim, skew, meta bool) {
	ib, i0, i1, im := b.idx(pc)
	bim = b.bim[ib].taken()
	n := 0
	for _, t := range []bool{bim, b.g0[i0].taken(), b.g1[i1].taken()} {
		if t {
			n++
		}
	}
	return bim, n >= 2, b.meta[im].taken()
}

func (b *refPredictor) Predict(pc uint64) bool {
	bim, skew, meta := b.vote(pc)
	if meta {
		return skew
	}
	return bim
}

func (b *refPredictor) Update(pc uint64, taken bool) {
	bim, skew, meta := b.vote(pc)
	pred := bim
	if meta {
		pred = skew
	}
	ib, i0, i1, im := b.idx(pc)
	if bim != skew {
		b.meta[im] = b.meta[im].train(skew == taken)
	}
	if pred == taken {
		if bim == taken {
			b.bim[ib] = b.bim[ib].train(taken)
		}
		if b.g0[i0].taken() == taken {
			b.g0[i0] = b.g0[i0].train(taken)
		}
		if b.g1[i1].taken() == taken {
			b.g1[i1] = b.g1[i1].train(taken)
		}
	} else {
		b.bim[ib] = b.bim[ib].train(taken)
		b.g0[i0] = b.g0[i0].train(taken)
		b.g1[i1] = b.g1[i1].train(taken)
	}
	b.hist = (b.hist << 1) | boolBit(taken)
}

// TestPackedMatchesReference drives the packed predictor and the
// byte-per-counter reference in lockstep and requires the same prediction
// at every step, at the Table 1 sizes and at sizes that are not multiples
// of four (so the last byte of each bank is partly used).
func TestPackedMatchesReference(t *testing.T) {
	sizes := map[string]config.BranchParams{
		"table1": params(),
		"odd":    {MetaEntries: 1001, GshareEntries: 1003, BimodalEntries: 997},
		"tiny":   {MetaEntries: 5, GshareEntries: 7, BimodalEntries: 3},
	}
	streams := map[string]func(r *mem.Rand, i int) (uint64, bool){
		// Random PCs and outcomes: every bank and every counter slot in a
		// byte sees both directions.
		"random": func(r *mem.Rand, i int) (uint64, bool) {
			return r.Next() & 0xfffff, r.Intn(2) == 0
		},
		// A few hundred branches, each biased 90% toward its own
		// direction: counters saturate and the partial update engages.
		"biased": func(r *mem.Rand, i int) (uint64, bool) {
			b := r.Intn(300)
			return uint64(0x4000 + b*4), (r.Intn(100) < 90) == (b%2 == 0)
		},
		// Nested loops with exits every 7 and 13 iterations: the
		// history-indexed banks and the meta chooser carry the accuracy.
		"loops": func(r *mem.Rand, i int) (uint64, bool) {
			if i%2 == 0 {
				return 0x100, (i/2)%7 != 6
			}
			return 0x180, (i/2)%13 != 12
		},
	}
	for sname, sz := range sizes {
		for tname, next := range streams {
			t.Run(sname+"/"+tname, func(t *testing.T) {
				p, ref := New2bcgskew(sz), newRef(sz)
				r := mem.NewRand(7)
				for i := 0; i < 200_000; i++ {
					pc, taken := next(r, i)
					if got, want := p.Predict(pc), ref.Predict(pc); got != want {
						t.Fatalf("step %d pc %#x: packed predicts %v, reference %v", i, pc, got, want)
					}
					p.Update(pc, taken)
					ref.Update(pc, taken)
				}
			})
		}
	}
}

// TestBankPacking pins the storage layout: 2 bits per counter, four to a
// byte, and writing one counter leaves its byte neighbours alone.
func TestBankPacking(t *testing.T) {
	k := newBank(1001)
	if len(k.b) != 251 {
		t.Fatalf("1001 counters take %d bytes, want 251", len(k.b))
	}
	for i := uint64(0); i < k.n; i++ {
		k.set(i, counter(i*7%4))
	}
	for i := uint64(0); i < k.n; i++ {
		if got := k.get(i); got != counter(i*7%4) {
			t.Fatalf("counter %d reads %d, want %d", i, got, i*7%4)
		}
	}
}
