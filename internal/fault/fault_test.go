package fault

import (
	"errors"
	"fmt"
	"testing"
)

func TestByName(t *testing.T) {
	for _, p := range Profiles() {
		got, err := ByName(p.Name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", p.Name, err)
		}
		if got.Name != p.Name {
			t.Fatalf("ByName(%q) returned %q", p.Name, got.Name)
		}
		if got.Empty() {
			t.Fatalf("built-in profile %q injects nothing", p.Name)
		}
	}
	for _, name := range []string{"", "none"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if !p.Empty() {
			t.Fatalf("ByName(%q) should be empty", name)
		}
	}
	if _, err := ByName("no-such-profile"); err == nil {
		t.Fatal("ByName of unknown profile should error")
	}
}

func TestProfileNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Profiles() {
		if seen[p.Name] {
			t.Fatalf("duplicate profile name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestInjectorDeterminism(t *testing.T) {
	prof, _ := ByName("monsoon")
	run := func() ([]bool, []uint64) {
		inj := NewInjector(prof, 42)
		var fires []bool
		var rnds []uint64
		for n := 0; n < 10_000; n++ {
			k := Kind(n % int(NumKinds))
			f := inj.Fire(k)
			fires = append(fires, f)
			if f {
				rnds = append(rnds, inj.Rand64())
			}
		}
		return fires, rnds
	}
	f1, r1 := run()
	f2, r2 := run()
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("fire sequence diverged at opportunity %d", i)
		}
	}
	if len(r1) != len(r2) {
		t.Fatalf("payload stream length diverged: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("payload stream diverged at %d", i)
		}
	}
	if len(r1) == 0 {
		t.Fatal("monsoon at 10k opportunities never fired; rates too low?")
	}
}

func TestInjectorZeroRateConsumesNoRandomness(t *testing.T) {
	// Firing a zero-rate class must not advance the RNG: enabling one
	// fault class in a profile must not reshuffle another's decisions.
	prof := Profile{Rates: [NumKinds]uint32{MemDelay: 500_000}}
	a := NewInjector(prof, 7)
	b := NewInjector(prof, 7)
	for n := 0; n < 1_000; n++ {
		a.Fire(MemDelay)
		b.Fire(IQStick) // rate 0: no-op
		b.Fire(MemDelay)
	}
	if a.Count(MemDelay) != b.Count(MemDelay) {
		t.Fatalf("zero-rate Fire perturbed the stream: %d vs %d",
			a.Count(MemDelay), b.Count(MemDelay))
	}
}

func TestInjectorRates(t *testing.T) {
	// 50% rate over 100k opportunities should land well within [45%, 55%].
	prof := Profile{Rates: [NumKinds]uint32{PredBitFlip: 500_000}}
	inj := NewInjector(prof, 3)
	const n = 100_000
	for i := 0; i < n; i++ {
		inj.Fire(PredBitFlip)
	}
	got := inj.Count(PredBitFlip)
	if got < 45_000 || got > 55_000 {
		t.Fatalf("50%% rate fired %d/%d times", got, n)
	}
	if inj.Total() != got {
		t.Fatalf("Total %d != Count %d", inj.Total(), got)
	}
	if c := inj.Counts(); c["pred-bitflip"] != got {
		t.Fatalf("Counts map %v disagrees with Count %d", c, got)
	}
}

func TestInjectorNilSafe(t *testing.T) {
	var inj *Injector
	if inj.Fire(PredBitFlip) {
		t.Fatal("nil injector fired")
	}
	if inj.Rand64() != 0 || inj.Total() != 0 || inj.Count(MemDelay) != 0 {
		t.Fatal("nil injector returned nonzero")
	}
	if inj.Counts() != nil {
		t.Fatal("nil injector Counts should be nil")
	}
	if !inj.Profile().Empty() {
		t.Fatal("nil injector profile should be empty")
	}
}

func TestBackoffBudgetAndEscalation(t *testing.T) {
	b := NewBackoff(3, 8)
	if b.Multiplier() != 1 {
		t.Fatalf("fresh multiplier = %d, want 1", b.Multiplier())
	}
	wantMult := []int64{2, 4, 8}
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("break %d denied within budget", i)
		}
		if b.Multiplier() != wantMult[i] {
			t.Fatalf("after break %d multiplier = %d, want %d", i, b.Multiplier(), wantMult[i])
		}
	}
	if b.Allow() {
		t.Fatal("break allowed past exhausted budget")
	}
	if b.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", b.Remaining())
	}
	b.Progress()
	if !b.Allow() || b.Remaining() != 2 {
		t.Fatal("Progress did not refill the budget")
	}
	b.Reset()
	if b.Multiplier() != 1 || b.Remaining() != 3 {
		t.Fatal("Reset did not restore multiplier and budget")
	}
}

func TestBackoffMultiplierCap(t *testing.T) {
	b := NewBackoff(100, 4)
	for i := 0; i < 50; i++ {
		b.Allow()
	}
	if b.Multiplier() != 4 {
		t.Fatalf("multiplier %d exceeded cap 4", b.Multiplier())
	}
}

func TestQuarantineEscalationAndHysteresis(t *testing.T) {
	q := NewQuarantine()
	if q.State() != QHealthy {
		t.Fatalf("fresh state = %v", q.State())
	}
	// 8 wrongs * 4 = 32 -> clamped.
	var escalated int
	for i := 0; i < 8; i++ {
		if q.OnWrong() {
			escalated++
		}
	}
	if q.State() != QClamped || escalated != 1 {
		t.Fatalf("after 8 wrongs: state=%v escalations=%d", q.State(), escalated)
	}
	// 8 more -> 64 -> disabled.
	for i := 0; i < 8; i++ {
		if q.OnWrong() {
			escalated++
		}
	}
	if q.State() != QDisabled || escalated != 2 {
		t.Fatalf("after 16 wrongs: state=%v escalations=%d", q.State(), escalated)
	}
	// Saturation: many more wrongs cap the score.
	for i := 0; i < 100; i++ {
		q.OnWrong()
	}
	if q.Score() != 96 {
		t.Fatalf("score %d, want saturation at 96", q.Score())
	}
	// Hysteresis down: disabled->clamped at score<=32, clamped->healthy at <=16.
	for q.State() == QDisabled {
		q.OnCorrect()
	}
	if q.Score() != 32 {
		t.Fatalf("relaxed to clamped at score %d, want 32", q.Score())
	}
	for q.State() == QClamped {
		q.OnCorrect()
	}
	if q.Score() != 16 {
		t.Fatalf("relaxed to healthy at score %d, want 16", q.Score())
	}
}

func TestQuarantineTickDecay(t *testing.T) {
	// A disabled context makes no predictions, so only Tick can walk the
	// score down. 96 points * 256 ticks each = 24576 ticks to zero.
	q := NewQuarantine()
	for q.State() != QDisabled {
		q.OnWrong()
	}
	var relaxed int
	for i := 0; i < 96*256; i++ {
		if q.Tick() {
			relaxed++
		}
	}
	if q.Score() != 0 || q.State() != QHealthy {
		t.Fatalf("after full decay: score=%d state=%v", q.Score(), q.State())
	}
	if relaxed != 2 {
		t.Fatalf("decay produced %d relaxations, want 2 (disabled->clamped->healthy)", relaxed)
	}
	// Tick at score 0 is a no-op.
	if q.Tick() {
		t.Fatal("Tick at zero score relaxed something")
	}
}

func TestQuarantineNilSafe(t *testing.T) {
	var q *Quarantine
	if q.OnWrong() || q.OnCorrect() || q.Tick() {
		t.Fatal("nil quarantine transitioned")
	}
	if q.State() != QHealthy || q.Score() != 0 {
		t.Fatal("nil quarantine not healthy")
	}
}

func TestLadderDegradeAndRestore(t *testing.T) {
	l := NewLadder(100)
	if l.Level() != LevelFull {
		t.Fatalf("fresh level = %v", l.Level())
	}
	if !l.Degrade() || l.Level() != LevelSTVP {
		t.Fatalf("first degrade -> %v, want stvp", l.Level())
	}
	if !l.Degrade() || l.Level() != LevelNone {
		t.Fatalf("second degrade -> %v, want none", l.Level())
	}
	if l.Degrade() {
		t.Fatal("degrade past LevelNone should fail")
	}
	// Restoration: one rung per full cool-down.
	if l.Progress(99) {
		t.Fatal("restored before cool-down elapsed")
	}
	if !l.Progress(1) || l.Level() != LevelSTVP {
		t.Fatalf("after 100 commits level = %v, want stvp", l.Level())
	}
	// Clock restarts: the 99 surplus from before must not carry over.
	if l.Progress(99) {
		t.Fatal("cool-down clock did not restart after restoration")
	}
	if !l.Progress(1) || l.Level() != LevelFull {
		t.Fatalf("after second cool-down level = %v, want full", l.Level())
	}
	if l.Progress(1_000) {
		t.Fatal("Progress at LevelFull restored something")
	}
}

func TestLadderDegradeResetsCooldown(t *testing.T) {
	l := NewLadder(100)
	l.Degrade()
	l.Progress(60)
	l.Degrade() // re-degrade mid-cool-down
	if l.Progress(60) {
		t.Fatal("progress survived a degrade; cool-down must restart")
	}
}

func TestReportErrorAndUnwrap(t *testing.T) {
	inner := errors.New("storeq wedged")
	r := &Report{
		Reason:       "recovery exhausted",
		Cycle:        12345,
		Committed:    678,
		Injected:     map[string]uint64{"iq-stick": 3, "mem-delay": 1},
		Breaks:       8,
		Degradations: 2,
		Err:          inner,
	}
	msg := r.Error()
	for _, want := range []string{"recovery exhausted", "cycle 12345", "breaks 8",
		"degradations 2", "iq-stick=3", "mem-delay=1", "storeq wedged"} {
		if !contains(msg, want) {
			t.Fatalf("report %q missing %q", msg, want)
		}
	}
	if !errors.Is(r, inner) {
		t.Fatal("errors.Is through Report failed")
	}
	var rep *Report
	if !errors.As(error(r), &rep) {
		t.Fatal("errors.As on Report failed")
	}
	// Wrapped one level deep, as core.Run does.
	wrapped := fmt.Errorf("core: bench: %w", error(r))
	rep = nil
	if !errors.As(wrapped, &rep) || rep.Cycle != 12345 {
		t.Fatal("errors.As through a wrap failed")
	}
	// Empty-injection rendering.
	if msg := (&Report{Reason: "x"}).Error(); !contains(msg, "injected: none") {
		t.Fatalf("empty report %q should say injected: none", msg)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// FuzzRecoveryStateMachines drives the backoff, quarantine, and ladder state
// machines with an arbitrary event stream and checks their invariants never
// break: scores stay in range, states stay in their enums, budgets never go
// negative, and a ladder never reports a level outside [Full, None].
func FuzzRecoveryStateMachines(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint8(4), uint8(3))
	f.Add([]byte{2, 2, 2, 2, 0, 0, 1, 5, 5, 5}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, events []byte, budget, cooldown uint8) {
		b := NewBackoff(int(budget), 8)
		q := NewQuarantine()
		l := NewLadder(uint64(cooldown))
		for _, ev := range events {
			switch ev % 6 {
			case 0:
				b.Allow()
			case 1:
				b.Progress()
			case 2:
				q.OnWrong()
			case 3:
				q.OnCorrect()
			case 4:
				q.Tick()
			case 5:
				if !l.Degrade() {
					l.Progress(uint64(cooldown) + 1)
				}
			}
			if b.Remaining() < 0 {
				t.Fatalf("backoff budget went negative: %d", b.Remaining())
			}
			if m := b.Multiplier(); m < 1 || m > 8 {
				t.Fatalf("multiplier out of range: %d", m)
			}
			if s := q.Score(); s < 0 || s > 96 {
				t.Fatalf("quarantine score out of range: %d", s)
			}
			if st := q.State(); st < QHealthy || st > QDisabled {
				t.Fatalf("quarantine state out of range: %v", st)
			}
			if lv := l.Level(); lv < LevelFull || lv > LevelNone {
				t.Fatalf("ladder level out of range: %v", lv)
			}
		}
	})
}

func TestDiceDeterminismAndRates(t *testing.T) {
	// Same seed: identical decision stream (the property the fabric's
	// spot-checker and the chaos network harness both lean on).
	a, b := NewDice(42), NewDice(42)
	for i := 0; i < 10_000; i++ {
		ppm := uint32((i % 5) * 100_000)
		if a.Roll(ppm) != b.Roll(ppm) {
			t.Fatalf("roll %d diverged between same-seed dice", i)
		}
	}
	// Zero rate consumes no randomness: interleaving dead rolls must not
	// perturb the stream.
	c, d := NewDice(7), NewDice(7)
	var cs, ds []bool
	for i := 0; i < 1000; i++ {
		c.Roll(0)
		cs = append(cs, c.Roll(500_000))
		ds = append(ds, d.Roll(500_000))
	}
	for i := range cs {
		if cs[i] != ds[i] {
			t.Fatalf("roll %d: zero-rate rolls perturbed the stream", i)
		}
	}
	// Rate sanity: ~50% at 500k ppm.
	hits := 0
	for _, h := range cs {
		if h {
			hits++
		}
	}
	if hits < 400 || hits > 600 {
		t.Errorf("500k ppm over 1000 rolls hit %d times, want ~500", hits)
	}
	// Nil dice never fires and never panics.
	var nilDice *Dice
	if nilDice.Roll(1_000_000) || nilDice.Rand64() != 0 {
		t.Error("nil dice must be inert")
	}
}
