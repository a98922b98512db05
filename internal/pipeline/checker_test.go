package pipeline

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"mtvp/internal/asm"
	"mtvp/internal/config"
	"mtvp/internal/isa"
	"mtvp/internal/mem"
	"mtvp/internal/oracle"
	"mtvp/internal/storebuf"
	"mtvp/internal/workload"
)

func checkerBench(name string) workload.Benchmark {
	return workload.PointerChase(name, workload.INT, workload.ChaseParams{
		Nodes: 256, NodeBytes: 64, PoolSize: 8, DominantPct: 85, ReusePct: 5, Iters: 3,
	})
}

func checkedCfg(cfg config.Config) config.Config {
	cfg.Check = true
	cfg.MaxInsts = 50_000_000
	cfg.MaxCycles = 200_000_000
	return cfg
}

// TestCheckerDetectsInjectedWrongValue corrupts one committed destination
// value through the test commit hook (which runs before the checker sees the
// record) and requires the lockstep oracle to flag exactly that commit — the
// ISSUE's fault-injection acceptance criterion.
func TestCheckerDetectsInjectedWrongValue(t *testing.T) {
	cfg := checkedCfg(config.Baseline())
	prog, image := checkerBench("fault-chase").Build(3)
	eng, err := New(&cfg, prog, image, newStats())
	if err != nil {
		t.Fatal(err)
	}

	var commits int
	var corruptedSeq uint64
	eng.commitHook = func(u *uop) {
		commits++
		if corruptedSeq == 0 && commits >= 100 && u.hasDest {
			u.ex.Value ^= 0xdeadbeef
			corruptedSeq = u.seq
		}
	}

	err = eng.Run()
	if corruptedSeq == 0 {
		t.Fatal("fault never injected: no destination-writing commit after #100")
	}
	var d *oracle.Divergence
	if !errors.As(err, &d) {
		t.Fatalf("corrupted commit not detected: err = %v", err)
	}
	if d.Rec.Seq != corruptedSeq {
		t.Fatalf("divergence flagged seq %d, corrupted seq %d", d.Rec.Seq, corruptedSeq)
	}
	if !strings.Contains(d.Error(), "oracle divergence") ||
		!strings.Contains(d.Error(), "recent commits by hardware context") {
		t.Fatalf("divergence report missing expected sections:\n%s", d.Error())
	}
}

// TestCheckerDetectsInjectedWrongValueMTVP injects the fault on the
// multithreaded machine, into a commit of the oldest promoted thread so the
// corrupted instruction is guaranteed useful (a speculative thread's commit
// could be killed and legitimately never verified).
func TestCheckerDetectsInjectedWrongValueMTVP(t *testing.T) {
	cfg := checkedCfg(mtvpOracleCfg(8))
	prog, image := checkerBench("fault-chase-mtvp").Build(3)
	eng, err := New(&cfg, prog, image, newStats())
	if err != nil {
		t.Fatal(err)
	}

	var commits int
	var corruptedSeq uint64
	eng.commitHook = func(u *uop) {
		commits++
		if corruptedSeq == 0 && commits >= 500 && u.hasDest && u.thread.promoted {
			u.ex.Value ^= 0x5a5a5a5a
			corruptedSeq = u.seq
		}
	}

	err = eng.Run()
	if corruptedSeq == 0 {
		t.Fatal("fault never injected")
	}
	var d *oracle.Divergence
	if !errors.As(err, &d) {
		t.Fatalf("corrupted commit not detected: err = %v", err)
	}
	if d.Rec.Seq != corruptedSeq {
		t.Fatalf("divergence flagged seq %d, corrupted seq %d", d.Rec.Seq, corruptedSeq)
	}
}

// TestCheckedMTVPRunClean runs the limit-study MTVP machine under full
// checking and requires a clean halt with every useful commit verified.
func TestCheckedMTVPRunClean(t *testing.T) {
	cfg := checkedCfg(mtvpOracleCfg(8))
	prog, image := checkerBench("clean-chase").Build(7)
	st := newStats()
	eng, err := New(&cfg, prog, image, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("checked run diverged: %v", err)
	}
	if !eng.Halted() {
		t.Fatalf("did not halt: committed=%d cycles=%d", st.Committed, eng.Now())
	}
	if err := eng.FinalCheck(); err != nil {
		t.Fatalf("final state check failed: %v", err)
	}
	if got := eng.CheckedCommits(); got != st.Committed {
		t.Fatalf("verified %d commits, engine counted %d useful", got, st.Committed)
	}
	if eng.CheckedCommits() == 0 {
		t.Fatal("checker verified nothing")
	}
}

// newAuditEngine builds a checked engine without running it, for white-box
// auditor tests.
func newAuditEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := checkedCfg(config.Baseline())
	prog, image := checkerBench("audit-chase").Build(1)
	eng, err := New(&cfg, prog, image, newStats())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestAuditorDetectsCounterDrift(t *testing.T) {
	eng := newAuditEngine(t)
	eng.robUsed = 7 // no uop in flight accounts for these entries
	eng.auditScan()
	if eng.auditErr == nil || !strings.Contains(eng.auditErr.Error(), "ROB occupancy") {
		t.Fatalf("ROB counter drift not flagged: %v", eng.auditErr)
	}
}

// TestAuditorDetectsStaleUnhealthyList changes a ladder behind the
// recovery controller's back: the list that lets commits skip healthy
// slots in the recovery walk no longer matches the slots, and the scan
// must say so.
func TestAuditorDetectsStaleUnhealthyList(t *testing.T) {
	eng := newAuditEngine(t)
	eng.rec.ladders[0].Degrade()
	eng.auditScan()
	if eng.auditErr == nil || !strings.Contains(eng.auditErr.Error(), "unhealthy context slots") {
		t.Fatalf("stale unhealthy-slot list not flagged: %v", eng.auditErr)
	}
}

func TestAuditorDetectsROBAgeOrder(t *testing.T) {
	eng := newAuditEngine(t)
	root := eng.liveByOrder()[0]
	// Squashed entries keep their place and their seq, so two out-of-order
	// squashed uops corrupt age order without touching occupancy counters.
	root.rob = append(root.rob,
		&uop{seq: 5, thread: root, state: stSquashed},
		&uop{seq: 3, thread: root, state: stSquashed})
	eng.auditScan()
	if eng.auditErr == nil || !strings.Contains(eng.auditErr.Error(), "age order") {
		t.Fatalf("ROB age-order violation not flagged: %v", eng.auditErr)
	}
}

func TestAuditorDetectsDeadThreadCommit(t *testing.T) {
	eng := newAuditEngine(t)
	dead := &thread{id: 1, order: 9, killed: true}
	u := &uop{seq: 42, thread: dead}
	eng.auditCommit(dead, u)
	if eng.auditErr == nil || !strings.Contains(eng.auditErr.Error(), "killed") {
		t.Fatalf("commit from killed thread not flagged: %v", eng.auditErr)
	}
}

func TestAuditorDetectsSpeculativeStoreDrain(t *testing.T) {
	eng := newAuditEngine(t)
	parent := eng.liveByOrder()[0]
	spec := &thread{id: 1, order: 9, live: true, parent: parent, spawn: refEv(&vpEvent{})}
	eng.auditStoreDrain(spec, 0x1000)
	if eng.auditErr == nil || !strings.Contains(eng.auditErr.Error(), "speculative") {
		t.Fatalf("speculative store drain not flagged: %v", eng.auditErr)
	}
}

func TestAuditorDetectsSplitBottomOverlay(t *testing.T) {
	eng := newAuditEngine(t)
	// A live thread on its own chain straight over memory breaks the
	// premise Overlay.Settle relies on: one bottom under every live view.
	stray := &thread{id: 1, order: 9, live: true, overlay: storebuf.New(eng.mem)}
	eng.ordered = append(eng.ordered, stray)
	eng.auditScan()
	if eng.auditErr == nil || !strings.Contains(eng.auditErr.Error(), "bottom overlay") {
		t.Fatalf("split bottom overlay not flagged: %v", eng.auditErr)
	}
}

// TestAuditorDetectsLostWakeup corrupts the wakeup count of a uop waiting
// in an issue queue, as a producer that became ready without waking it
// would, and requires the auditor's recount to flag it.
func TestAuditorDetectsLostWakeup(t *testing.T) {
	eng := newAuditEngine(t)
	var victim *uop
	for victim == nil {
		if stop, err := eng.runCycle(); err != nil || stop {
			t.Fatalf("run ended before a uop waited: stop=%v err=%v", stop, err)
		}
		root := eng.liveByOrder()[0]
		for _, u := range root.rob[root.robHead:] {
			if u.state == stWaiting {
				victim = u
				break
			}
		}
	}
	eng.auditScan()
	if eng.auditErr != nil {
		t.Fatalf("auditor flagged the uncorrupted engine: %v", eng.auditErr)
	}
	victim.unready++
	eng.auditScan()
	if eng.auditErr == nil || !strings.Contains(eng.auditErr.Error(), "lost or spurious wakeup") {
		t.Fatalf("corrupted wakeup count not flagged: %v", eng.auditErr)
	}
}

// TestAuditorSeesSquashWakeup pins the squash edge of the wakeup path: a
// squashed producer no longer blocks its consumers. killSubtree kills a
// subtree's threads one at a time, oldest first, so when it squashes one
// thread's uops a younger thread of the same walk can still be live and
// waiting on them. Such a consumer usually dies later in the walk, before
// any 64-cycle audit looks at it; this test replays the walk and audits
// after every kill.
//
// It stops gcc e on MTVP8 at the first cycle where a thread waits on an
// unready producer in its parent, that parent's own parent is speculative
// (the subtree to kill), and the waiting thread's spawn is already confirmed
// (its parent is retiring), so killing the parent does not take it along.
func TestAuditorSeesSquashWakeup(t *testing.T) {
	w, err := workload.ByName("gcc e")
	if err != nil {
		t.Fatal(err)
	}
	cfg := checkedCfg(config.Baseline().WithMTVP(8, config.PredOracle, config.SelILPPred))
	prog, image := w.Build(1)
	eng, err := New(&cfg, prog, image, newStats())
	if err != nil {
		t.Fatal(err)
	}
	var root, mid *thread
	var waiter *uop
	for waiter == nil {
		if stop, err := eng.runCycle(); err != nil || stop {
			t.Fatalf("run ended before a squash could wake a live consumer: stop=%v err=%v", stop, err)
		}
		root, mid, waiter = liveConsumerOfKill(eng)
	}
	eng.auditScan()
	if eng.auditErr != nil {
		t.Fatalf("auditor flagged the engine before the kill: %v", eng.auditErr)
	}
	// killSubtree(root), one killOne at a time.
	for _, o := range slices.Clone(eng.liveByOrder()) {
		if o == root || !descendsFrom(o, root) {
			continue
		}
		eng.killOne(o)
		if o == mid && (!waiter.thread.live || waiter.state != stWaiting) {
			t.Fatalf("waiting consumer died with its producer's thread; the squash edge went untested")
		}
		eng.auditScan()
		if eng.auditErr != nil {
			t.Fatalf("after killing T%d/%d of the subtree: %v", o.id, o.order, eng.auditErr)
		}
	}
	eng.killOne(root)
	eng.auditScan()
	if eng.auditErr != nil {
		t.Fatalf("after killing the subtree root T%d/%d: %v", root.id, root.order, eng.auditErr)
	}
}

// liveConsumerOfKill finds a waiting uop whose thread x survives the kill
// of its parent y inside killSubtree(root), root being y's speculative
// parent: x's spawn is confirmed, and the uop waits on an unready producer
// in y.
func liveConsumerOfKill(e *Engine) (*thread, *thread, *uop) {
	for _, x := range e.liveByOrder() {
		y := x.parent
		if y == nil || !y.live || x.spawn.ev == nil || x.spawn.unresolved() {
			continue
		}
		root := y.parent
		if root == nil || !root.live || !root.isSpec() {
			continue
		}
		for _, u := range x.rob[x.robHead:] {
			if u.state != stWaiting {
				continue
			}
			for _, pr := range u.prods[:u.nProds] {
				if p := pr.get(); p != nil && p.thread == y && !producerReady(p) {
					return root, y, u
				}
			}
		}
	}
	return nil, nil, nil
}

// TestAuditorDetectsEarlyRecycle returns threads to the pool one step
// early. killSubtree frees its victims only once the whole subtree is dead;
// this test replays the kill of a three-deep speculative lineage whose
// middle thread is retiring, and frees each victim as soon as it dies,
// while the middle thread's confirmed child still runs. The pool-hygiene
// scan must see the recycled thread in a live lineage.
func TestAuditorDetectsEarlyRecycle(t *testing.T) {
	w, err := workload.ByName("gcc e")
	if err != nil {
		t.Fatal(err)
	}
	cfg := checkedCfg(config.Baseline().WithMTVP(8, config.PredOracle, config.SelILPPred))
	prog, image := w.Build(1)
	eng, err := New(&cfg, prog, image, newStats())
	if err != nil {
		t.Fatal(err)
	}
	var root *thread
	for root == nil {
		if stop, err := eng.runCycle(); err != nil || stop {
			t.Fatalf("run ended before a three-deep speculative lineage formed: stop=%v err=%v", stop, err)
		}
		// g's spawn is confirmed (c is retiring), so killing c does not
		// take g along: g outlives c until killSubtree reaches it.
		for _, g := range eng.liveByOrder() {
			if c := g.parent; c != nil && c.retiring && c.parent != nil && c.parent.isSpec() {
				root = c.parent
				break
			}
		}
	}
	eng.auditScan()
	if eng.auditErr != nil {
		t.Fatalf("auditor flagged the engine before the kill: %v", eng.auditErr)
	}
	base := eng.pushDescendants(root)
	victims := append(slices.Clone(eng.victims[base:]), root)
	eng.popVictims(base)
	for _, v := range victims {
		if !eng.killOne(v) {
			continue
		}
		eng.freeThread(v) // one step early: descendants of v may still live
		eng.auditScan()
		if eng.auditErr != nil {
			break
		}
	}
	if eng.auditErr == nil || !strings.Contains(eng.auditErr.Error(), "recycled thread in its lineage") {
		t.Fatalf("early recycle not flagged: %v", eng.auditErr)
	}
}

// TestAuditorDetectsRecycledOverlay releases a live speculative thread's
// overlay, which sends it back to the pool while the thread still executes
// against it.
func TestAuditorDetectsRecycledOverlay(t *testing.T) {
	eng := newAuditEngine(t)
	top := eng.liveByOrder()[0].overlay
	top.Release()
	eng.auditScan()
	if eng.auditErr == nil || !strings.Contains(eng.auditErr.Error(), "recycled") {
		t.Fatalf("recycled overlay not flagged: %v", eng.auditErr)
	}
}

func TestThreadDoubleFreePanics(t *testing.T) {
	eng := newAuditEngine(t)
	th := eng.allocThread()
	eng.freeThread(th)
	defer func() {
		if recover() == nil {
			t.Fatal("second free of a thread did not panic")
		}
	}()
	eng.freeThread(th)
}

// TestAuditorChecksForwardingList is the mutation check for the store-list
// forwarding search: with the lists emptied before every cycle, as if
// newUop never filled them, a checked run must fail the auditor's
// cross-check against the ROB walk. Each iteration of the loop below loads
// the word its previous store wrote. A dispatched store is in its thread's
// store queue too, which finds the same source in fault-free runs; the
// storebuf-rot profile drops and corrupts store-queue entries, so only the
// in-flight search finds those stores.
func TestAuditorChecksForwardingList(t *testing.T) {
	b := asm.New("store-load")
	b.Liu(isa.R1, 0x2000)
	b.Label("loop")
	b.Sd(isa.R2, isa.R1, 0)
	b.Ld(isa.R3, isa.R1, 0)
	b.Addi(isa.R2, isa.R2, 1)
	b.J("loop")
	b.Halt()
	prog := b.MustBuild()
	cfg := checkedCfg(config.Baseline())
	cfg.Faults.Profile = "storebuf-rot"
	cfg.Faults.Seed = 1
	cfg.MaxCycles = 20_000
	// Control: the same run with the lists intact passes the auditor.
	runStats(t, &cfg, prog, mem.New())

	eng, err := New(&cfg, prog, mem.New(), newStats())
	if err != nil {
		t.Fatal(err)
	}
	for {
		for _, th := range eng.liveByOrder() {
			th.stores = th.stores[:0]
		}
		stop, err := eng.runCycle()
		if err != nil {
			if !strings.Contains(err.Error(), "ROB walk says") {
				t.Fatalf("run failed, but not on the forwarding cross-check: %v", err)
			}
			return
		}
		if stop {
			t.Fatal("empty store lists went unnoticed by the forwarding cross-check")
		}
	}
}

// TestBufferedHaltReleased runs the cell in which a promoted thread commits
// HALT while a confirmed-away elder is still draining (MTVP8 on shared
// Wang–Franklin tables, the core tests' t-chase-fp kernel, seed 1) and
// requires both a clean checked run and at least one buffered-HALT release
// (commit.go): without the release, nothing would show whether the run
// still reaches that interleaving.
func TestBufferedHaltReleased(t *testing.T) {
	cfg := checkedCfg(config.Baseline().WithMTVP(8, config.PredWangFranklin, config.SelILPPred))
	prog, image := workload.PointerChase("t-chase-fp", workload.FP, workload.ChaseParams{
		Nodes: 256, NodeBytes: 64, PoolSize: 8, DominantPct: 85, ReusePct: 5, FPVal: true, Iters: 3,
	}).Build(1)
	st := newStats()
	eng, err := New(&cfg, prog, image, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("checked run diverged: %v", err)
	}
	if !eng.Halted() {
		t.Fatalf("did not halt: committed=%d cycles=%d", st.Committed, eng.Now())
	}
	if err := eng.FinalCheck(); err != nil {
		t.Fatalf("final state check failed: %v", err)
	}
	if got := eng.CheckedCommits(); got != st.Committed {
		t.Fatalf("verified %d commits, engine counted %d useful", got, st.Committed)
	}
	if eng.haltReleases == 0 {
		t.Fatal("no buffered HALT was released: the cell no longer reaches the interleaving this test exists for")
	}
}
