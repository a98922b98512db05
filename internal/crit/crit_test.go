package crit

import (
	"testing"

	"mtvp/internal/cache"
	"mtvp/internal/config"
)

func TestL3OracleMapping(t *testing.T) {
	s := &L3Oracle{Mode: config.VPMTVP}
	if d := s.Select(0, cache.HitMem, true); d != DecideMTVP {
		t.Errorf("mem miss with context -> %v, want mtvp", d)
	}
	if d := s.Select(0, cache.HitMem, false); d != DecideSTVP {
		t.Errorf("mem miss without context -> %v, want stvp fallback", d)
	}
	if d := s.Select(0, cache.HitL2, true); d != DecideSTVP {
		t.Errorf("L2 hit -> %v, want stvp", d)
	}
	if d := s.Select(0, cache.HitL1, true); d != DecideNone {
		t.Errorf("L1 hit -> %v, want none", d)
	}
}

func TestAlways(t *testing.T) {
	a := &Always{Mode: config.VPMTVP}
	if d := a.Select(0, cache.HitL1, true); d != DecideMTVP {
		t.Errorf("always -> %v", d)
	}
	if d := a.Select(0, cache.HitL1, false); d != DecideSTVP {
		t.Errorf("always w/o context -> %v", d)
	}
}

// feed observes n windows of the given progress rate for a mode.
func feed(s *ILPPred, pc uint64, mode Decision, n int, insts, cycles uint64) {
	for i := 0; i < n; i++ {
		s.Observe(pc, mode, insts, cycles)
	}
}

func TestILPPredOptimisticStart(t *testing.T) {
	s := NewILPPred(64, config.VPMTVP)
	if d := s.Select(0x10, cache.HitMem, true); d != DecideMTVP {
		t.Errorf("cold entry -> %v, want optimistic mtvp", d)
	}
}

func TestILPPredVetoesUnprofitableMTVP(t *testing.T) {
	s := NewILPPred(64, config.VPMTVP)
	pc := uint64(0x20)
	feed(s, pc, DecideNone, 8, 500, 1000) // 0.5 insts/cycle without VP
	feed(s, pc, DecideMTVP, 8, 400, 1000) // worse with spawning
	feed(s, pc, DecideSTVP, 8, 900, 1000) // better with STVP
	got := map[Decision]int{}
	for i := 0; i < 64; i++ {
		got[s.Select(pc, cache.HitMem, true)]++
	}
	if got[DecideMTVP] != 0 {
		t.Errorf("unprofitable MTVP selected %d times", got[DecideMTVP])
	}
	if got[DecideSTVP] == 0 {
		t.Error("profitable STVP never selected")
	}
}

func TestILPPredPrefersMTVPWhenItWins(t *testing.T) {
	s := NewILPPred(64, config.VPMTVP)
	pc := uint64(0x24)
	feed(s, pc, DecideNone, 8, 300, 1000)
	feed(s, pc, DecideMTVP, 8, 900, 1000)
	feed(s, pc, DecideSTVP, 8, 400, 1000)
	mtvp := 0
	for i := 0; i < 64; i++ {
		if s.Select(pc, cache.HitMem, true) == DecideMTVP {
			mtvp++
		}
	}
	if mtvp < 48 {
		t.Errorf("winning MTVP selected only %d/64 times", mtvp)
	}
}

func TestILPPredMarginRejectsTies(t *testing.T) {
	s := NewILPPred(64, config.VPMTVP)
	pc := uint64(0x28)
	feed(s, pc, DecideNone, 8, 500, 1000)
	feed(s, pc, DecideMTVP, 8, 510, 1000) // within the margin: not a clear win
	feed(s, pc, DecideSTVP, 8, 505, 1000)
	for i := 0; i < 64; i++ {
		if d := s.Select(pc, cache.HitMem, true); d == DecideMTVP || d == DecideSTVP {
			t.Fatalf("marginal mode selected: %v", d)
		}
	}
}

func TestILPPredCalibrationSampling(t *testing.T) {
	s := NewILPPred(64, config.VPMTVP)
	pc := uint64(0x2c)
	none := 0
	for i := 0; i < 160; i++ {
		if s.Select(pc, cache.HitMem, true) == DecideNone {
			none++
		}
	}
	if none < 160/16 {
		t.Errorf("only %d calibration windows in 160 selections", none)
	}
}

func TestILPPredRespectsContextAvailability(t *testing.T) {
	s := NewILPPred(64, config.VPMTVP)
	pc := uint64(0x30)
	feed(s, pc, DecideNone, 8, 300, 1000)
	feed(s, pc, DecideMTVP, 8, 900, 1000)
	feed(s, pc, DecideSTVP, 8, 800, 1000)
	for i := 0; i < 32; i++ {
		if d := s.Select(pc, cache.HitMem, false); d == DecideMTVP {
			t.Fatal("selected MTVP with no free context")
		}
	}
}

func TestILPPredSTVPModeCap(t *testing.T) {
	s := NewILPPred(64, config.VPSTVP)
	pc := uint64(0x34)
	feed(s, pc, DecideNone, 8, 300, 1000)
	feed(s, pc, DecideMTVP, 8, 900, 1000)
	for i := 0; i < 32; i++ {
		if d := s.Select(pc, cache.HitMem, true); d == DecideMTVP {
			t.Fatal("STVP-mode machine selected MTVP")
		}
	}
}

func TestILPPredEntryReplacement(t *testing.T) {
	s := NewILPPred(4, config.VPMTVP)
	// Two PCs aliasing to the same entry: the newcomer resets state.
	feed(s, 0x0, DecideNone, 8, 100, 1000)
	feed(s, 0x0, DecideMTVP, 8, 50, 1000) // vetoed for pc 0
	if d := s.Select(0x4, cache.HitMem, true); d != DecideMTVP {
		t.Errorf("aliased fresh PC -> %v, want optimistic mtvp", d)
	}
}

func TestRateExactDivision(t *testing.T) {
	p := progress{insts: 100, cycles: 400}
	if r := p.rate(); r != 100*65536/400 {
		t.Errorf("rate = %d", r)
	}
	if (progress{}).rate() != 0 {
		t.Error("zero-cycle rate not zero")
	}
}

func TestNewSelectsConfiguredSelector(t *testing.T) {
	cfg := config.Baseline()
	for _, k := range []config.SelectorKind{
		config.SelILPPred, config.SelL3Oracle, config.SelAlways,
	} {
		cfg.VP.Selector = k
		if New(&cfg) == nil {
			t.Errorf("New returned nil for %v", k)
		}
	}
}

// TestNewPanicsOnUnknownSelector: an unregistered kind is a programming
// error (Validate rejects it first), never a silent fallback.
func TestNewPanicsOnUnknownSelector(t *testing.T) {
	cfg := config.Baseline()
	cfg.VP.Selector = config.SelAlways + 1
	defer func() {
		if recover() == nil {
			t.Error("New did not panic on an unknown selector kind")
		}
	}()
	New(&cfg)
}
