package pipeline

import (
	"errors"
	"strings"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/fault"
	"mtvp/internal/trace"
	"mtvp/internal/workload"
)

// recoveryCfg arms a fault profile on a checked machine with an impatient
// watchdog, so recovery-controller paths trigger within test-sized runs.
func recoveryCfg(cfg config.Config, profile string, seed uint64) config.Config {
	cfg = checkedCfg(cfg)
	cfg.MaxInsts = 40_000
	cfg.Faults.Profile = profile
	cfg.Faults.Seed = seed
	cfg.Recovery.WatchdogCycles = 2_000
	return cfg
}

// requireRecoveredOrReport enforces the robustness contract on a run's
// error: nil (recovered oracle-clean — the checker was armed) or a
// structured *fault.Report. Anything else, most importantly an oracle
// divergence, fails the test.
func requireRecoveredOrReport(t *testing.T, err error) *fault.Report {
	t.Helper()
	if err == nil {
		return nil
	}
	var rep *fault.Report
	if !errors.As(err, &rep) {
		t.Fatalf("run failed without a structured fault report: %v", err)
	}
	return rep
}

// TestWatchdogConsecutiveBoundedBreaks wedges issue-queue slots hard enough
// (stuck-iq-storm: 1.5% of dispatches stick for 80k cycles) that the
// watchdog must intervene at least twice in a row, and requires each
// intervention to be a bounded, counted break — never a hang, never a wrong
// committed value.
func TestWatchdogConsecutiveBoundedBreaks(t *testing.T) {
	cfg := recoveryCfg(config.Baseline(), "stuck-iq-storm", 11)
	prog, image := checkerBench("stuck-chase").Build(5)
	st := newStats()
	eng, err := New(&cfg, prog, image, st)
	if err != nil {
		t.Fatal(err)
	}
	rep := requireRecoveredOrReport(t, eng.Run())
	if st.FaultIQStick == 0 {
		t.Fatal("profile injected no IQStick faults; the test exercised nothing")
	}
	if st.DeadlockBreaks < 2 {
		t.Fatalf("DeadlockBreaks = %d, want >= 2 consecutive watchdog breaks", st.DeadlockBreaks)
	}
	if st.RecoveryUnsticks == 0 {
		t.Fatalf("watchdog broke %d times without unsticking any queue slot", st.DeadlockBreaks)
	}
	if rep != nil && rep.Breaks != st.DeadlockBreaks {
		t.Fatalf("report counted %d breaks, stats counted %d", rep.Breaks, st.DeadlockBreaks)
	}
}

// TestWatchdogBackoffEscalates drives the backoff state machine the way the
// watchdog does and checks that patience doubles per spent break up to the
// cap, and that the budget is hard-bounded.
func TestWatchdogBackoffEscalates(t *testing.T) {
	b := fault.NewBackoff(3, 8)
	wantMult := []int64{2, 4, 8}
	for i, want := range wantMult {
		if !b.Allow() {
			t.Fatalf("break %d denied with budget remaining", i)
		}
		if got := b.Multiplier(); got != want {
			t.Fatalf("after break %d multiplier = %d, want %d", i, got, want)
		}
	}
	if b.Allow() {
		t.Fatal("break allowed after the budget was exhausted")
	}
	b.Progress()
	if !b.Allow() {
		t.Fatal("sustained progress did not refill the break budget")
	}
	if got := b.Multiplier(); got != 2 {
		t.Fatalf("multiplier after refill+break = %d, want 2 (reset then doubled)", got)
	}
}

// TestDegradationLadderEngages exhausts a one-break budget under the
// issue-queue storm on an MTVP machine and requires the second recovery
// layer — stepping contexts down the speculation ladder — to engage rather
// than aborting immediately.
func TestDegradationLadderEngages(t *testing.T) {
	cfg := recoveryCfg(mtvpOracleCfg(4), "stuck-iq-storm", 3)
	cfg.Recovery.DeadlockBudget = 1
	cfg.Recovery.CooldownCommits = 5_000
	prog, image := checkerBench("degrade-chase").Build(9)
	st := newStats()
	eng, err := New(&cfg, prog, image, st)
	if err != nil {
		t.Fatal(err)
	}
	rep := requireRecoveredOrReport(t, eng.Run())
	if st.Degradations == 0 {
		t.Fatalf("budget of 1 exhausted (breaks=%d, report=%v) but no context degraded",
			st.DeadlockBreaks, rep)
	}
	for slot, l := range eng.rec.ladders {
		if l.Level() == fault.LevelFull && rep != nil {
			t.Fatalf("aborted with slot %d still at %s: abort must come after full degradation",
				slot, l.Level())
		}
	}
}

// TestQuarantineEngagesUnderPredictorChaos floods the value predictor with
// bit flips (pred-chaos: 40% of confident predictions corrupted) on an
// always-follow MTVP machine and requires the per-context misprediction
// storm detector to clamp or disable prediction, suppressing later follows.
// The oracle checker is armed throughout: the flipped values must never
// reach architectural state. Each quarantine change is traced as a slot
// event (requireSlotEvents).
func TestQuarantineEngagesUnderPredictorChaos(t *testing.T) {
	cfg := recoveryCfg(
		config.Baseline().WithMTVP(4, config.PredWangFranklin, config.SelAlways),
		"pred-chaos", 17)
	prog, image := checkerBench("chaos-chase").Build(5)
	st := newStats()
	eng, err := New(&cfg, prog, image, st)
	if err != nil {
		t.Fatal(err)
	}
	events := &trace.Collector{}
	eng.SetTracer(events)
	requireRecoveredOrReport(t, eng.Run())
	quarantines := requireSlotEvents(t, events, trace.KQuarantine, cfg.Contexts)
	if got, want := uint64(len(quarantines)), st.QuarantineClamps+st.QuarantineDisables; got < want {
		t.Errorf("%d quarantine events for %d escalations", got, want)
	}
	if st.FaultPredBitFlip == 0 {
		t.Fatal("pred-chaos injected nothing")
	}
	if st.QuarantineClamps == 0 && st.QuarantineDisables == 0 {
		t.Fatalf("misprediction storm (flips=%d wrong=%d) never tripped quarantine",
			st.FaultPredBitFlip, st.VPWrong)
	}
	if st.QuarantineSuppressed == 0 {
		t.Fatal("quarantine engaged but suppressed no follows")
	}
}

// TestRestoreEventsCarryTheSlot runs the issue-queue storm of
// TestDegradationLadderEngages with a cool-down short enough that degraded
// contexts earn speculation back within the run, and requires every
// degrade and restore to be traced as a slot event, one per counted step.
func TestRestoreEventsCarryTheSlot(t *testing.T) {
	cfg := recoveryCfg(mtvpOracleCfg(4), "stuck-iq-storm", 3)
	cfg.Recovery.DeadlockBudget = 1
	cfg.Recovery.CooldownCommits = 500
	prog, image := checkerBench("degrade-chase").Build(9)
	st := newStats()
	eng, err := New(&cfg, prog, image, st)
	if err != nil {
		t.Fatal(err)
	}
	events := &trace.Collector{}
	eng.SetTracer(events)
	requireRecoveredOrReport(t, eng.Run())
	if st.Restorations == 0 {
		t.Fatalf("cool-down of %d commits restored nothing (%d degradations)", cfg.Recovery.CooldownCommits, st.Degradations)
	}
	if got := uint64(len(requireSlotEvents(t, events, trace.KRestore, cfg.Contexts))); got != st.Restorations {
		t.Errorf("%d restore events for %d restorations", got, st.Restorations)
	}
	if got := uint64(len(requireSlotEvents(t, events, trace.KDegrade, cfg.Contexts))); got != st.Degradations {
		t.Errorf("%d degrade events for %d degradations", got, st.Degradations)
	}
}

// TestQuarantineDecayIsASlotEvent runs the predictor chaos of
// TestQuarantineEngagesUnderPredictorChaos on a chase long enough (20
// passes) for quarantined contexts to decay by passive commit ticks
// (noteCommitProgress), and requires the decays to be traced as slot
// events naming the state they decayed to.
func TestQuarantineDecayIsASlotEvent(t *testing.T) {
	cfg := recoveryCfg(
		config.Baseline().WithMTVP(4, config.PredWangFranklin, config.SelAlways),
		"pred-chaos", 17)
	cfg.MaxInsts = 400_000
	prog, image := workload.PointerChase("decay-chase", workload.INT, workload.ChaseParams{
		Nodes: 256, NodeBytes: 64, PoolSize: 8, DominantPct: 85, ReusePct: 5, Iters: 20,
	}).Build(5)
	eng, err := New(&cfg, prog, image, newStats())
	if err != nil {
		t.Fatal(err)
	}
	events := &trace.Collector{}
	eng.SetTracer(events)
	requireRecoveredOrReport(t, eng.Run())
	decays := 0
	for _, ev := range requireSlotEvents(t, events, trace.KQuarantine, cfg.Contexts) {
		state, ok := strings.CutPrefix(ev.Text, "decayed to ")
		if !ok {
			continue
		}
		decays++
		if state != fault.QClamped.String() && state != fault.QHealthy.String() {
			t.Errorf("quarantine decayed to %q, want clamped or healthy", state)
		}
	}
	if decays == 0 {
		t.Fatal("no quarantine decay traced")
	}
}

// requireSlotEvents returns the collected events of kind k and requires at
// least one, each a slot event: Thread names a hardware context slot in
// [0, contexts), and Order, PC and Seq say it belongs to no thread and no
// instruction, with no peer.
func requireSlotEvents(t *testing.T, c *trace.Collector, k trace.Kind, contexts int) []trace.Event {
	t.Helper()
	evs := c.ByKind(k)
	if len(evs) == 0 {
		t.Fatalf("no %s event traced", k)
	}
	for _, ev := range evs {
		if ev.Thread < 0 || ev.Thread >= contexts || ev.Order != -1 || ev.PC != -1 || ev.Seq != 0 || ev.HasPeer {
			t.Errorf("%s event is not a slot event (want slot in [0, %d), order -1, pc -1, no seq, no peer): %+v", k, contexts, ev)
		}
	}
	return evs
}

// TestEffectiveModeLadderCap pins the mode arithmetic the degradation path
// depends on: each ladder rung caps the configured mode, and restoration
// lifts the cap again.
func TestEffectiveModeLadderCap(t *testing.T) {
	cfg := mtvpOracleCfg(2)
	cfg.Recovery.CooldownCommits = 10
	prog, image := checkerBench("cap-chase").Build(1)
	eng, err := New(&cfg, prog, image, newStats())
	if err != nil {
		t.Fatal(err)
	}
	l := eng.rec.ladders[0]
	if got := eng.effectiveMode(0); got != config.VPMTVP {
		t.Fatalf("fresh slot effective mode = %v, want MTVP", got)
	}
	l.Degrade()
	if got := eng.effectiveMode(0); got != config.VPSTVP {
		t.Fatalf("after one rung effective mode = %v, want STVP", got)
	}
	l.Degrade()
	if got := eng.effectiveMode(0); got != config.VPNone {
		t.Fatalf("after two rungs effective mode = %v, want None", got)
	}
	for i := 0; i < 2; i++ {
		for !l.Progress(1) {
		}
	}
	if got := eng.effectiveMode(0); got != config.VPMTVP {
		t.Fatalf("after full cooldown effective mode = %v, want MTVP restored", got)
	}
}
