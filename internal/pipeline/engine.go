package pipeline

import (
	"errors"
	"fmt"
	"slices"

	"mtvp/internal/bpred"
	"mtvp/internal/cache"
	"mtvp/internal/config"
	"mtvp/internal/crit"
	"mtvp/internal/fault"
	"mtvp/internal/isa"
	"mtvp/internal/mem"
	"mtvp/internal/oracle"
	"mtvp/internal/stats"
	"mtvp/internal/storebuf"
	"mtvp/internal/telemetry"
	"mtvp/internal/trace"
	"mtvp/internal/vpred"
)

// Engine is the cycle-level SMT processor. One Engine simulates one program
// (the paper studies single-threaded applications; all hardware contexts
// beyond the first exist for speculation).
type Engine struct {
	cfg  *config.Config
	prog *isa.Program
	dec  []isa.Decoded // predecode table, indexed by PC
	mem  *mem.Memory

	hier *cache.Hierarchy
	bp   *bpred.TwoBcgskew
	vp   vpred.Predictor
	sel  crit.Selector
	st   *stats.Stats

	slots   []*thread // hardware contexts; nil = free
	now     int64
	seqCtr  uint64
	ordCtr  int64
	fbufCap int

	robUsed         int
	renameUsed      int
	sharedStoreUsed int // occupancy of the unified tagged store buffer
	qUsed           [numQueues]int
	qCap            [numQueues]int
	completions     uopHeap

	// ready holds the waiting uops with no unready producer, woken there
	// by setUopState and producerChanged; issue picks from it oldest-first.
	// Entries are refs because an entry the width limits leave behind can
	// be squashed, freed and reallocated before the next issue; issue drops
	// such entries lazily. stuck holds the uops an IQStick fault wedged,
	// for the standing-edge refresh and the recovery controller.
	ready []uopRef
	stuck []uopRef

	finished     bool
	halted       bool  // a non-speculative thread committed HALT
	lastProgress int64 // cycle of the last commit (watchdog)

	// ordered is the live threads oldest-first, maintained in place at
	// spawn and death (ordCtr is monotone, so a new thread is always the
	// youngest and appends). A loop over it that can kill or free threads
	// must not range over it (see killSubtree and commit).
	ordered []*thread

	// evq is the event-driven scheduler's calendar (events.go), a 1 KB
	// bitmap with one bit per cycle of a 2×eqWindow ring; nil when
	// Config.PerCycle selects the per-cycle reference, which executes every
	// cycle and never jumps. ffSkipped counts the idle cycles the calendar
	// elided, for tests that need to prove the jump engaged.
	evq       *eventQueue
	ffSkipped uint64

	// haltReleases counts buffered HALTs released once their thread
	// surfaced as the oldest live thread (commit.go), for the test that
	// must prove the release path ran.
	haltReleases uint64

	// Free lists (pool.go) and hot-loop scratch, reused across cycles to
	// keep the steady state allocation-free. victims is a stack: a kill
	// pushes its victims above those of the kill that caused it. uopSlab
	// and consumerSlab are the uncarved rest of the current uop slab and
	// its consumer backing array; freshUops counts the uops carved so far.
	uopFree      []*uop
	uopSlab      []uop
	consumerSlab []uopRef
	freshUops    uint64
	threadFree   []*thread
	eventFree    []*vpEvent
	overlays     storebuf.Pool
	pickedBuf    []*thread
	reissueBuf   []*uop
	victims      []*thread
	spawnVals    []uint64
	spawnTops    []*storebuf.Overlay

	// pendingWindows holds resolved value-prediction events whose ILP-pred
	// measurement window is still open: windows have a minimum length so a
	// short window cannot be dominated by the commit burst of a draining
	// parent (which would credit the spawn with work it did not cause).
	pendingWindows []*vpEvent

	commitHook func(u *uop)       // test instrumentation; nil in normal runs
	tracer     trace.Tracer       // optional event tracer; nil in normal runs
	sampler    *telemetry.Sampler // optional time-series sampler; nil in normal runs

	// sampleAt is the sampler's next bucket edge, a cycle both engines
	// execute (eventForward never jumps past it). gaugeReads counts the
	// occupancy-gauge snapshots taken, for the test that must prove the
	// sampler is fed once per bucket rather than once per cycle.
	sampleAt   int64
	gaugeReads uint64

	// Robustness: the fault injector (nil-safe; nil when no profile is
	// armed) and the recovery controller (always present).
	inj *fault.Injector
	rec *recovery

	// Differential checking (cfg.Check): the lockstep oracle checker and
	// the invariant auditor. Both nil/off in normal performance runs.
	checker  *oracle.Checker
	checkErr error
	auditOn  bool
	auditErr error
}

// SetTracer attaches an event tracer. Tracing is observational only.
func (e *Engine) SetTracer(t trace.Tracer) { e.tracer = t }

// emit sends an instruction-level event to the tracer, if attached. The
// nil check inlines into every stage; the event is built out of line.
func (e *Engine) emit(k trace.Kind, u *uop) {
	if e.tracer != nil {
		e.emitUop(k, u)
	}
}

// Out of line, so the nil-check wrapper above stays inlinable.
//
//go:noinline
func (e *Engine) emitUop(k trace.Kind, u *uop) {
	e.tracer.Emit(trace.Event{
		Cycle:  e.now,
		Kind:   k,
		Thread: u.thread.id,
		Order:  u.thread.order,
		Seq:    u.seq,
		PC:     u.ex.PC,
		Text:   u.ex.Inst.String(),
	})
}

// emitContext sends a context-level event to the tracer, if attached: slot
// is the hardware context (-1 for none), t the thread whose speculation
// order the event carries (nil for a slot event), and peer the other
// context of a pairwise event (spawn, confirm; nil for none), so
// machine-readable sinks can draw flow arrows between tracks.
func (e *Engine) emitContext(k trace.Kind, slot int, t, peer *thread, text string) {
	if e.tracer != nil {
		e.emitContextEvent(k, slot, t, peer, text)
	}
}

// Out of line, so the nil-check wrapper above stays inlinable.
//
//go:noinline
func (e *Engine) emitContextEvent(k trace.Kind, slot int, t, peer *thread, text string) {
	ev := trace.Event{Cycle: e.now, Kind: k, Thread: slot, Order: -1, PC: -1, Text: text}
	if t != nil {
		ev.Order = t.order
	}
	if peer != nil {
		ev.Peer, ev.PeerOrder, ev.HasPeer = peer.id, peer.order, true
	}
	e.tracer.Emit(ev)
}

// New builds an engine for prog over memory under cfg. The memory should
// already hold the workload's initialised data.
func New(cfg *config.Config, prog *isa.Program, memory *mem.Memory, st *stats.Stats) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		prog:    prog,
		dec:     prog.Decode(),
		mem:     memory,
		hier:    cache.NewHierarchy(cfg, st),
		bp:      bpred.New2bcgskew(cfg.Branch),
		vp:      vpred.New(cfg),
		sel:     crit.New(cfg),
		st:      st,
		slots:   make([]*thread, cfg.Contexts),
		fbufCap: cfg.FetchWidth * cfg.FrontEndDepth,
	}
	e.qCap[qInt] = cfg.IQSize
	e.qCap[qFP] = cfg.FQSize
	e.qCap[qMem] = cfg.MQSize
	if !cfg.PerCycle {
		e.evq = &eventQueue{}
	}

	prof, err := fault.ByName(cfg.Faults.Profile)
	if err != nil {
		return nil, err
	}
	if !prof.Empty() {
		e.inj = fault.NewInjector(prof, cfg.Faults.Seed)
	}
	// Quarantine clamps to twice the predictor's normal confidence bar.
	e.rec = newRecovery(cfg, 2*vpred.BaseThreshold(cfg))

	if cfg.Check {
		// The checker clones the image before the engine can touch it;
		// the auditor rides the same knob.
		e.checker = oracle.NewChecker(prog, memory)
		e.auditOn = true
	}

	root := e.allocThread()
	root.live = true
	root.overlay = e.overlays.New(memory)
	root.order = e.ordCtr
	root.promoted = true
	*root.ctx = isa.Context{Prog: prog, Mem: root.overlay}
	e.ordCtr++
	e.slots[0] = root
	e.ordered = append(e.ordered, root)
	return e, nil
}

// Stats returns the engine's counter set.
func (e *Engine) Stats() *stats.Stats { return e.st }

// Now returns the current cycle.
func (e *Engine) Now() int64 { return e.now }

// storeBufFull reports whether thread t may not allocate another store
// buffer entry: per-context capacity by default, or the shared pool of the
// unified tagged buffer (§3.3) when configured.
func (e *Engine) storeBufFull(t *thread) bool {
	if e.cfg.VP.SharedStoreBufEntries > 0 {
		return e.sharedStoreUsed >= e.cfg.VP.SharedStoreBufEntries
	}
	return t.storeQFull(e.cfg.VP.StoreBufEntries)
}

func (e *Engine) noteStoreAlloc() {
	if e.cfg.VP.SharedStoreBufEntries > 0 {
		e.sharedStoreUsed++
	}
}

func (e *Engine) noteStoreFree(n int) {
	if e.cfg.VP.SharedStoreBufEntries > 0 {
		e.sharedStoreUsed -= n
		if e.sharedStoreUsed < 0 {
			panic("pipeline: shared store buffer over-released")
		}
	}
}

// freeSlot returns the index of a free hardware context, or -1.
func (e *Engine) freeSlot() int {
	for i, t := range e.slots {
		if t == nil {
			return i
		}
	}
	return -1
}

func (e *Engine) freeSlots() int {
	n := 0
	for _, t := range e.slots {
		if t == nil {
			n++
		}
	}
	return n
}

// liveByOrder returns the live threads oldest-first. The result must be
// treated as read-only. threadAdded and threadRemoved change it in place,
// so a caller that kills or frees threads while walking it must collect its
// victims first (killSubtree) or index it (commit).
func (e *Engine) liveByOrder() []*thread { return e.ordered }

// threadAdded appends a newly spawned thread. ordCtr is monotone, so the
// new thread is always the youngest and the list stays sorted.
func (e *Engine) threadAdded(t *thread) {
	e.ordered = append(e.ordered, t)
}

// threadRemoved drops a dead thread, preserving order.
func (e *Engine) threadRemoved(t *thread) {
	if i := slices.Index(e.ordered, t); i >= 0 {
		e.ordered = slices.Delete(e.ordered, i, i+1)
	}
}

// Run simulates until the useful-instruction budget is exhausted, the
// program halts, or the cycle cap is reached. It returns an error only when
// the machine cannot make progress (a *fault.Report after recovery is
// exhausted) or a checked run diverges, never for program behaviour.
// ErrCanceled is returned by Run when a cfg.Observe hook asks the engine to
// stop: the campaign harness canceled the run (deadline, progress-watchdog
// stall kill, or shutdown). The run's statistics are valid up to the cycle
// of cancellation.
var ErrCanceled = errors.New("run canceled by observer")

// observeMask sets how often a cfg.Observe hook is polled: every 1024
// simulated cycles, frequent enough that cancellation lands within
// microseconds of wall time but far off the per-cycle hot path.
const observeMask = 1<<10 - 1

func (e *Engine) Run() error {
	for !e.finished {
		stop, err := e.runCycle()
		if err != nil {
			return err
		}
		if stop {
			break
		}
	}
	e.st.Cycles = uint64(e.now)
	if e.finished {
		// The run ended at a useful HALT: whatever useful work was still
		// buffered on younger promoted threads is program-order complete
		// and can be verified now.
		e.flushFinalCheck()
		if e.checkErr != nil {
			return e.checkErr
		}
	}
	if e.auditOn {
		if e.auditErr == nil {
			e.auditScan()
		}
		if e.auditErr != nil {
			return e.auditErr
		}
	}
	return nil
}

// runCycle simulates exactly one cycle (plus, at its end, any provably inert
// cycles the event calendar can elide). It reports whether the run should stop
// and any terminal error, leaving Run itself a thin loop — and giving the
// zero-allocation test a per-cycle unit to measure.
func (e *Engine) runCycle() (stop bool, err error) {
	e.now++
	e.commit()
	if e.checkErr != nil {
		e.st.Cycles = uint64(e.now)
		return true, e.checkErr
	}
	e.complete()
	e.issue()
	e.dispatch()
	e.fetch()
	if e.sampler != nil && e.now == e.sampleAt {
		e.sample()
	}
	if e.auditOn {
		if err := e.auditCycle(); err != nil {
			e.st.Cycles = uint64(e.now)
			return true, err
		}
	}

	if e.st.Committed >= e.cfg.MaxInsts {
		return true, nil
	}
	if uint64(e.now) >= e.cfg.MaxCycles {
		return true, nil
	}
	if e.cfg.Observe != nil && e.now&observeMask == 0 {
		if !e.cfg.Observe(uint64(e.now), e.st.Committed) {
			e.st.Cycles = uint64(e.now)
			if e.tracer != nil {
				e.tracer.Emit(trace.Event{
					Cycle: e.now, Kind: trace.KCancel,
					Thread: -1, PC: -1,
					Text: "canceled by observer",
				})
			}
			return true, ErrCanceled
		}
	}
	// Commit-progress watchdog, with exponential backoff after each
	// recovery so a break/re-stall loop terminates in bounded time.
	if e.now-e.lastProgress > e.rec.watchdogBase*e.rec.backoff.Multiplier() {
		if !e.recoverStall() {
			e.st.Cycles = uint64(e.now)
			return true, e.faultReport(fmt.Sprintf("no commit progress since cycle %d (now %d): %s",
				e.lastProgress, e.now, e.describeStall()))
		}
	}
	if !e.finished && e.evq != nil {
		// No jump once the program has finished: it would inflate the
		// final cycle count with a post-HALT idle window no stage will
		// ever run in, and per-cycle stepping stops on the finishing cycle.
		e.eventForward()
	}
	return false, nil
}

// breakDeadlock recovers from speculation-induced resource deadlock: a
// spawned thread's dependence map names parent uops that are still waiting to
// dispatch, and its dependent uops fill the shared issue queues until the
// parent can no longer dispatch the very load that would resolve the
// speculation — circular wait, zero commits. Real designs bound speculative
// resource occupancy; ours recovers by killing the youngest speculative
// subtree (its queue slots free, the machine resumes). It is one action of
// the recovery controller (recover.go), which bounds and backs off retries.
func (e *Engine) breakDeadlock() bool {
	var victim *thread
	for _, t := range e.liveByOrder() {
		if t.isSpec() && (victim == nil || t.order > victim.order) {
			victim = t
		}
	}
	if victim == nil {
		return false
	}
	e.emitContext(trace.KKill, victim.id, victim, nil, "killed to break resource deadlock")
	e.killSubtree(victim)
	e.lastProgress = e.now
	return true
}

// archThread returns the oldest live non-speculative thread.
func (e *Engine) archThread() *thread {
	for _, t := range e.liveByOrder() {
		if !t.isSpec() {
			return t
		}
	}
	return nil
}

// ArchRegs returns the architectural register file of the surviving thread
// (for equivalence tests) and whether one exists.
func (e *Engine) ArchRegs() ([isa.NumRegs]uint64, bool) {
	t := e.archThread()
	if t == nil {
		return [isa.NumRegs]uint64{}, false
	}
	return t.ctx.R, true
}

// Halted reports whether the program ran to completion (committed a HALT).
func (e *Engine) Halted() bool { return e.halted }

func (e *Engine) describeStall() string {
	s := fmt.Sprintf("rob=%d/%d rename=%d/%d q=[%d %d %d]",
		e.robUsed, e.cfg.ROBSize, e.renameUsed, e.cfg.RenameRegs,
		e.qUsed[qInt], e.qUsed[qFP], e.qUsed[qMem])
	for _, t := range e.liveByOrder() {
		s += fmt.Sprintf(" T%d{ord=%d rob=%d fbuf=%d blocked=%d stall=%v retiring=%v spec=%v halted=%v pc=%d}",
			t.id, t.order, t.robOccupied(), t.fetchBufLen(), t.fetchBlocked,
			t.stallFetch, t.retiring, t.isSpec(), t.ctx.Halted, t.ctx.PC)
	}
	return s
}
