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
func accuracy(p Predictor, seq []struct {
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

func TestStaticPredictor(t *testing.T) {
	s := &Static{Taken: true}
	if !s.Predict(0x1234) {
		t.Error("static taken predictor predicted not-taken")
	}
	s.Update(0x1234, false) // must not panic or change anything
	if !s.Predict(0x1234) {
		t.Error("static predictor changed state on update")
	}
}
