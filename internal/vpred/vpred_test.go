package vpred

import (
	"fmt"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/mem"
)

func TestOracle(t *testing.T) {
	var p Predictor = Oracle{}
	pr := p.Lookup(0x10, 0xDEADBEEF)
	if !pr.Valid || !pr.Confident || pr.Value != 0xDEADBEEF {
		t.Errorf("oracle prediction %+v", pr)
	}
	p.Train(0x10, 1) // no-op, must not panic
}

func wfParams() config.WangFranklinParams { return config.DefaultWF() }

func TestWFConstantLoad(t *testing.T) {
	p := NewWangFranklin(wfParams(), 0)
	pc := uint64(0x100)
	for i := 0; i < 40; i++ {
		p.Train(pc, 42)
	}
	pr := p.Lookup(pc, 0)
	if !pr.Confident || pr.Value != 42 {
		t.Errorf("WF constant: %+v", pr)
	}
}

func TestWFZeroSlot(t *testing.T) {
	// The hardwired zero slot should carry mostly-zero loads.
	p := NewWangFranklin(wfParams(), 0)
	pc := uint64(0x104)
	for i := 0; i < 40; i++ {
		p.Train(pc, 0)
	}
	pr := p.Lookup(pc, 0)
	if !pr.Confident || pr.Value != 0 {
		t.Errorf("WF zero slot: %+v", pr)
	}
}

func TestWFStrideSlot(t *testing.T) {
	p := NewWangFranklin(wfParams(), 0)
	pc := uint64(0x108)
	for i := 0; i < 60; i++ {
		p.Train(pc, uint64(0x2000+i*64))
	}
	pr := p.Lookup(pc, 0)
	if !pr.Confident || pr.Value != uint64(0x2000+60*64) {
		t.Errorf("WF stride slot: got %#x conf=%d confident=%v, want %#x",
			pr.Value, pr.Conf, pr.Confident, 0x2000+60*64)
	}
}

func TestWFParamsMatchPaper(t *testing.T) {
	if wfLearnedValues != 5 || wfConfInc != 1 || wfConfDec != 8 ||
		wfThreshold != 12 || wfConfMax != 32 {
		t.Errorf("WF confidence parameters deviate from §5.4: learned %d, +%d/-%d, threshold %d, max %d",
			wfLearnedValues, wfConfInc, wfConfDec, wfThreshold, wfConfMax)
	}
}

func TestWFConfidenceSchedule(t *testing.T) {
	// With +1/-8 and threshold 12, a value needs 12 consecutive correct
	// outcomes before prediction, and two mistakes drop it back under.
	p := NewWangFranklin(wfParams(), 0)
	pc := uint64(0x10c)
	p.Train(pc, 5) // allocate
	for i := 0; i < 11; i++ {
		p.Train(pc, 5)
	}
	if pr := p.Lookup(pc, 0); pr.Confident {
		t.Errorf("confident after only 11 matches post-allocation: conf=%d", pr.Conf)
	}
	p.Train(pc, 5)
	if pr := p.Lookup(pc, 0); !pr.Confident {
		t.Errorf("not confident after 12 matches: conf=%d", pr.Conf)
	}
}

func TestWFRepeatingPatternViaHistory(t *testing.T) {
	// A short repeating value sequence: pattern history should allow the
	// right slot to be chosen per position. Accuracy should be high once
	// trained.
	p := NewWangFranklin(wfParams(), 0)
	pc := uint64(0x110)
	seq := []uint64{7, 7, 7, 9, 7, 7, 7, 9}
	for i := 0; i < 2000; i++ {
		p.Train(pc, seq[i%len(seq)])
	}
	correct, confident := 0, 0
	for i := 0; i < 400; i++ {
		v := seq[i%len(seq)]
		pr := p.Lookup(pc, 0)
		if pr.Confident {
			confident++
			if pr.Value == v {
				correct++
			}
		}
		p.Train(pc, v)
	}
	if confident == 0 {
		t.Fatal("never confident on a repeating pattern")
	}
	if acc := float64(correct) / float64(confident); acc < 0.85 {
		t.Errorf("pattern accuracy %.3f (%d/%d)", acc, correct, confident)
	}
}

func TestWFAccuracyGateUnpredictable(t *testing.T) {
	// Random values must not produce confident predictions under +1/-8.
	p := NewWangFranklin(wfParams(), 0)
	r := mem.NewRand(3)
	pc := uint64(0x114)
	confident := 0
	for i := 0; i < 4000; i++ {
		if p.Lookup(pc, 0).Confident {
			confident++
		}
		p.Train(pc, r.Next())
	}
	if frac := float64(confident) / 4000; frac > 0.02 {
		t.Errorf("confident on %.1f%% of random values", frac*100)
	}
}

func TestWFAlternatesForMultiValue(t *testing.T) {
	// Two strong modes mixed at random (so the pattern history cannot
	// fully separate them), with a liberal threshold: the secondary value
	// must appear in Alternates. A deterministic alternation would be
	// resolved by the pattern tables and correctly produce no alternates.
	p := NewWangFranklin(wfParams(), 2)
	r := mem.NewRand(17)
	pc := uint64(0x118)
	draw := func() uint64 {
		if r.Intn(3) == 0 {
			return 111
		}
		return 222
	}
	for i := 0; i < 3000; i++ {
		p.Train(pc, draw())
	}
	seen := false
	for i := 0; i < 256 && !seen; i++ {
		pr := p.Lookup(pc, 0)
		for _, alt := range pr.Alternates {
			if (alt.Value == 111 || alt.Value == 222) && alt.Value != pr.Value {
				seen = true
			}
		}
		p.Train(pc, draw())
	}
	if !seen {
		t.Error("mixed bimodal values produced no alternates under a liberal threshold")
	}
}

func TestDFCMStridePattern(t *testing.T) {
	p := NewDFCM(config.DefaultDFCM())
	pc := uint64(0x200)
	for i := 0; i < 100; i++ {
		p.Train(pc, uint64(5000+i*24))
	}
	pr := p.Lookup(pc, 0)
	if !pr.Confident || pr.Value != uint64(5000+100*24) {
		t.Errorf("DFCM stride: %+v", pr)
	}
}

func TestDFCMRepeatingDeltaPattern(t *testing.T) {
	// Deltas +1, +2, +100 repeating: an order-3 context predictor should
	// learn each position; a plain stride predictor cannot.
	p := NewDFCM(config.DefaultDFCM())
	pc := uint64(0x204)
	deltas := []uint64{1, 2, 100}
	v := uint64(0)
	train := func() {
		for _, d := range deltas {
			v += d
			p.Train(pc, v)
		}
	}
	for i := 0; i < 800; i++ {
		train()
	}
	correct, total := 0, 0
	for i := 0; i < 300; i++ {
		d := deltas[i%3]
		pr := p.Lookup(pc, 0)
		v += d
		if pr.Confident {
			total++
			if pr.Value == v {
				correct++
			}
		}
		p.Train(pc, v)
	}
	if total == 0 {
		t.Fatal("DFCM never confident on a repeating delta pattern")
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Errorf("DFCM pattern accuracy %.3f (%d/%d)", acc, correct, total)
	}
}

func TestDFCMMoreAggressiveThanWF(t *testing.T) {
	// §5.4: DFCM is "in general a more aggressive predictor — making more
	// correct predictions and more incorrect predictions". Feed both a
	// marginally predictable stream and compare coverage.
	wf := NewWangFranklin(wfParams(), 0)
	df := NewDFCM(config.DefaultDFCM())
	r := mem.NewRand(11)
	pc := uint64(0x208)
	v := uint64(1000)
	wfFollowed, dfFollowed := 0, 0
	for i := 0; i < 6000; i++ {
		if wf.Lookup(pc, 0).Confident {
			wfFollowed++
		}
		if df.Lookup(pc, 0).Confident {
			dfFollowed++
		}
		// 80% of the time a fixed stride; 20% a jump.
		if r.Intn(100) < 80 {
			v += 8
		} else {
			v += uint64(r.Intn(1000)) * 8
		}
		wf.Train(pc, v)
		df.Train(pc, v)
	}
	if dfFollowed <= wfFollowed {
		t.Errorf("DFCM followed %d <= WF %d; expected DFCM to be more aggressive",
			dfFollowed, wfFollowed)
	}
}

func TestNewSelectsConfiguredPredictor(t *testing.T) {
	cfg := config.Baseline()
	kinds := map[config.PredictorKind]string{
		config.PredOracle:       "vpred.Oracle",
		config.PredWangFranklin: "*vpred.WangFranklin",
		config.PredDFCM:         "*vpred.DFCM",
		config.PredEqualityLCV:  "*vpred.EqualityLCV",
	}
	for k, want := range kinds {
		cfg.VP.Predictor = k
		if got := fmt.Sprintf("%T", New(&cfg)); got != want {
			t.Errorf("New built %s for %v, want %s", got, k, want)
		}
	}
}
