package pipeline

import (
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"mtvp/internal/asm"
	"mtvp/internal/config"
	"mtvp/internal/isa"
	"mtvp/internal/mem"
	"mtvp/internal/stats"
	"mtvp/internal/telemetry"
	"mtvp/internal/workload"
)

// calendarNext is q.next with -1 for an empty calendar.
func calendarNext(q *eventQueue, now int64) int64 {
	if c, ok := q.next(now); ok {
		return c
	}
	return -1
}

// calendarLen counts the scheduled cycles.
func calendarLen(q *eventQueue) int {
	n := 0
	for _, w := range q.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestEventQueueUnit pins the calendar's container behaviour: same-cycle
// dedup, horizon clamping and the clamped hop's dedup, the next-cycle
// search across word boundaries and the ring wrap, and the aliasing hazard
// of announcing now+eqWindow while now's own bit is still set.
func TestEventQueueUnit(t *testing.T) {
	q := &eventQueue{}
	q.add(50, 10)
	q.add(30, 10)
	q.add(50, 10) // duplicate: the bit is already set
	q.add(40, 10)
	if n := calendarLen(q); n != 3 {
		t.Fatalf("%d entries, want 3 (duplicate not deduped?)", n)
	}
	// Execute each entry in turn, as the engine does.
	for _, want := range []int64{30, 40, 50, -1} {
		c := calendarNext(q, 10)
		if c != want {
			t.Fatalf("next = %d, want %d", c, want)
		}
		if c > 0 {
			q.drain(c)
		}
	}

	// A far edge clamps to the horizon; the hop slot still dedups. An
	// edge exactly at the horizon is not moved.
	q.add(1_000_000, 100)
	if !q.has(100+eqWindow) || calendarNext(q, 100) != 100+eqWindow {
		t.Fatalf("far edge not clamped to the horizon: next = %d", calendarNext(q, 100))
	}
	q.add(2_000_000, 100)    // different far cycle, same clamped hop
	q.add(100+eqWindow, 100) // the horizon itself
	q.add(101+eqWindow, 100) // one past it, clamped to it
	if n := calendarLen(q); n != 1 {
		t.Fatalf("clamped hops not deduped: %d entries", n)
	}

	// The search crosses word boundaries and wraps around the ring, and
	// an empty calendar reports no entry from any position.
	nows := []int64{0, 1, 62, 63, 64, 127, eqRing - 65, eqRing - 64, eqRing - 1, eqRing, 3*eqRing + 17}
	for _, now := range nows {
		if c := calendarNext(&eventQueue{}, now); c != -1 {
			t.Fatalf("empty calendar at now=%d: next = %d", now, c)
		}
		for _, d := range []int64{1, 2, 63, 64, 65, 127, 128, 1000, eqWindow - 64, eqWindow - 1, eqWindow} {
			q := &eventQueue{}
			q.add(now+d, now)
			if c := calendarNext(q, now); c != now+d {
				t.Fatalf("now=%d entry at now+%d: next = %d", now, d, c)
			}
			// A nearer entry in a later word is still found first.
			if d > 1 {
				q.add(now+d/2, now)
				if c := calendarNext(q, now); c != now+d/2 {
					t.Fatalf("now=%d entries at now+%d and now+%d: next = %d", now, d/2, d, c)
				}
			}
		}
	}

	// The aliasing hazard: while cycle now executes its bit is still set,
	// and a stage may announce now+eqWindow. Draining now must not take the
	// later entry with it.
	for _, now := range []int64{5000, eqRing - 1, eqRing, 7*eqRing + 4095} {
		q := &eventQueue{}
		q.add(now, now-1)
		q.add(now+eqWindow, now)
		q.drain(now)
		if !q.has(now+eqWindow) || calendarNext(q, now) != now+eqWindow {
			t.Fatalf("now=%d: entry at now+eqWindow lost to the drain of now (next = %d)",
				now, calendarNext(q, now))
		}
		// Advance to the cycle before it, as a jump would, and execute it.
		if c := calendarNext(q, now+eqWindow-1); c != now+eqWindow {
			t.Fatalf("now=%d: after the jump next = %d, want %d", now, c, now+eqWindow)
		}
		q.drain(now + eqWindow)
		if calendarLen(q) != 0 {
			t.Fatalf("now=%d: %d entries left after executing the last", now, calendarLen(q))
		}
	}
}

// TestEventQueueModel drives random add/execute/jump sequences, shaped like
// the engine's, through the calendar and a map model of the same set of
// cycles: after every executed cycle the two must agree on the next-cycle
// busy test, the earliest entry and the entry count.
func TestEventQueueModel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := mem.NewRand(seed)
		q := &eventQueue{}
		model := map[int64]bool{}
		now := int64(r.Intn(3 * eqRing))
		for step := 0; step < 3000; step++ {
			// Execute cycle now+1; its stages announce a few edges,
			// near, far and beyond the horizon.
			now++
			for n := r.Intn(5); n > 0; n-- {
				var c int64
				switch r.Intn(4) {
				case 0:
					c = now + 1
				case 1:
					c = now + 1 + int64(r.Intn(64))
				case 2:
					c = now + 1 + int64(r.Intn(eqWindow))
				default:
					c = now + 1 + int64(r.Intn(3*eqWindow))
				}
				q.add(c, now)
				model[min(c, now+eqWindow)] = true
			}
			q.drain(now)
			delete(model, now)

			want := int64(-1)
			for c := range model {
				if c <= now {
					t.Fatalf("seed %d: model holds %d at or before now=%d", seed, c, now)
				}
				if want == -1 || c < want {
					want = c
				}
			}
			if got := calendarNext(q, now); got != want {
				t.Fatalf("seed %d step %d now=%d: next = %d, model %d", seed, step, now, got, want)
			}
			if q.has(now+1) != model[now+1] {
				t.Fatalf("seed %d step %d now=%d: has(now+1) = %v, model %v", seed, step, now, q.has(now+1), model[now+1])
			}
			if n := calendarLen(q); n != len(model) {
				t.Fatalf("seed %d step %d now=%d: %d entries, model %d", seed, step, now, n, len(model))
			}
			// Jump over part of the inert span, never past the earliest
			// entry (the engine's jump rule).
			if want > now+1 && r.Intn(2) == 0 {
				now += int64(r.Intn(int(want - now)))
			}
		}
	}
}

// abOutcome is everything the scheduler equivalence suite compares: the
// full stats counter set (including Cycles), architectural registers, halt
// status, the telemetry time series, and any structured abort.
type abOutcome struct {
	st     stats.Stats
	regs   [isa.NumRegs]uint64
	regsOK bool
	halted bool
	now    int64
	points []telemetry.Point
	ff     uint64
	errStr string
}

func runAB(t *testing.T, cfg config.Config, bench workload.Benchmark, perCycle bool, sampleEvery int64) abOutcome {
	t.Helper()
	cfg.PerCycle = perCycle
	prog, image := bench.Build(1)
	st := &stats.Stats{}
	eng, err := New(&cfg, prog, image, st)
	if err != nil {
		t.Fatal(err)
	}
	sampler := telemetry.NewSampler(sampleEvery)
	eng.SetSampler(sampler)
	out := abOutcome{}
	if err := eng.Run(); err != nil {
		// Structured aborts (fault.Report) are outcomes too and must be
		// identical across engines.
		out.errStr = err.Error()
	}
	eng.FinishTelemetry()
	out.st = *st
	out.regs, out.regsOK = eng.ArchRegs()
	out.halted = eng.Halted()
	out.now = eng.now
	out.points = sampler.Points()
	out.ff = eng.ffSkipped
	return out
}

func compareAB(t *testing.T, event, ref abOutcome) {
	t.Helper()
	if event.st != ref.st {
		t.Errorf("stats diverge:\nevent:     %+v\nper-cycle: %+v", event.st, ref.st)
	}
	if event.now != ref.now {
		t.Errorf("final cycle diverges: event=%d per-cycle=%d", event.now, ref.now)
	}
	if event.regsOK != ref.regsOK || event.regs != ref.regs {
		t.Errorf("architectural registers diverge:\nevent:     ok=%v %v\nper-cycle: ok=%v %v",
			event.regsOK, event.regs, ref.regsOK, ref.regs)
	}
	if event.halted != ref.halted {
		t.Errorf("halted diverges: event=%v per-cycle=%v", event.halted, ref.halted)
	}
	if event.errStr != ref.errStr {
		t.Errorf("run error diverges:\nevent:     %q\nper-cycle: %q", event.errStr, ref.errStr)
	}
	if !reflect.DeepEqual(event.points, ref.points) {
		t.Errorf("telemetry time series diverge: event has %d points, per-cycle has %d",
			len(event.points), len(ref.points))
		for i := range event.points {
			if i < len(ref.points) && event.points[i] != ref.points[i] {
				t.Errorf("first divergent point %d:\nevent:     %+v\nper-cycle: %+v",
					i, event.points[i], ref.points[i])
				break
			}
		}
	}
}

// abCases is the archetype sweep both scheduler equivalence tests walk:
// miss-heavy single-thread (long idle stretches), deep MTVP speculation
// (spawn/confirm/kill and window edges), a run-to-HALT workload (the final
// cycle count is observable, so the schedulers must agree on the finishing
// cycle exactly), and two fault-injection profiles (recovery-watchdog
// deadlines, IQ sticks, memory jitter as first-class events).
func abCases() []struct {
	name   string
	cycles uint64
	cfg    func() config.Config
	bench  workload.Benchmark
} {
	return []struct {
		name   string
		cycles uint64
		cfg    func() config.Config
		bench  workload.Benchmark
	}{
		{
			name:   "miss-heavy-baseline",
			cycles: 400_000,
			cfg:    config.Baseline,
			bench: workload.PointerChase("ab-miss", workload.INT, workload.ChaseParams{
				Nodes: 1 << 18, NodeBytes: 64, PoolSize: 8,
				DominantPct: 60, ReusePct: 30, SeqPct: 10, BodyOps: 4, Iters: 1 << 40,
			}),
		},
		{
			name:   "deep-speculation-mtvp8",
			cycles: 150_000,
			cfg:    func() config.Config { return mtvpOracleCfg(8) },
			bench: workload.PointerChase("ab-spec", workload.INT, workload.ChaseParams{
				Nodes: 1 << 16, NodeBytes: 64, PoolSize: 8,
				DominantPct: 60, ReusePct: 30, SeqPct: 30, BodyOps: 8, Iters: 1 << 40,
			}),
		},
		{
			// Runs to HALT inside the budget: Stats.Cycles is set by the
			// finishing cycle itself, pinning the no-jump-after-finish rule.
			name:   "halting-baseline",
			cycles: 1 << 40,
			cfg:    config.Baseline,
			bench: workload.PointerChase("ab-halt", workload.INT, workload.ChaseParams{
				Nodes: 256, NodeBytes: 64, PoolSize: 8,
				DominantPct: 60, ReusePct: 30, SeqPct: 20, BodyOps: 4, Iters: 30,
			}),
		},
		{
			name:   "fault-monsoon-mtvp4",
			cycles: 200_000,
			cfg: func() config.Config {
				cfg := mtvpOracleCfg(4)
				cfg.Faults.Profile = "monsoon"
				cfg.Faults.Seed = 1234
				return cfg
			},
			bench: workload.PointerChase("ab-monsoon", workload.INT, workload.ChaseParams{
				Nodes: 1 << 16, NodeBytes: 64, PoolSize: 8,
				DominantPct: 60, ReusePct: 30, SeqPct: 30, BodyOps: 8, Iters: 1 << 40,
			}),
		},
		{
			// Wedged issue-queue slots outlive the watchdog, so recovery
			// (unstick, deadlock break, backoff) must fire on identical
			// cycles under both schedulers.
			name:   "recovery-ladder-stuck-iq",
			cycles: 400_000,
			cfg: func() config.Config {
				cfg := mtvpOracleCfg(4)
				cfg.Faults.Profile = "stuck-iq-storm"
				cfg.Faults.Seed = 99
				return cfg
			},
			bench: workload.PointerChase("ab-stuck", workload.INT, workload.ChaseParams{
				Nodes: 1 << 16, NodeBytes: 64, PoolSize: 8,
				DominantPct: 60, ReusePct: 30, SeqPct: 30, BodyOps: 8, Iters: 1 << 40,
			}),
		},
	}
}

// TestEventQueueIsInvisible is the event engine's equivalence guarantee:
// for every archetype, the event-driven scheduler must be bit-identical to
// per-cycle stepping — statistics (including the final cycle count),
// architectural registers, telemetry time series, and structured aborts.
// The calendar jump must actually engage or the comparison is vacuous.
func TestEventQueueIsInvisible(t *testing.T) {
	for _, c := range abCases() {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg()
			cfg.MaxInsts = 1 << 62
			cfg.MaxCycles = c.cycles

			event := runAB(t, cfg, c.bench, false, 0)
			ref := runAB(t, cfg, c.bench, true, 0)

			if event.ff == 0 && c.name != "halting-baseline" {
				t.Errorf("event scheduler never jumped (ffSkipped = 0); comparison is vacuous")
			}
			if ref.ff != 0 {
				t.Errorf("per-cycle reference skipped %d cycles", ref.ff)
			}
			if c.name == "halting-baseline" && !event.halted {
				t.Errorf("halting case did not halt; finishing-cycle pin is vacuous")
			}
			compareAB(t, event, ref)
		})
	}
}

// TestFastForwardIsInvisible pins the calendar's idle-cycle jump itself:
// on the two archetypes with the longest idle stretches, telemetry buckets
// close every 37 cycles — far shorter than a memory miss — so nearly every
// jump skips over bucket boundaries that per-cycle stepping closes one
// cycle at a time. The skipped spans' replay (telemetrySkip) must produce
// the same time series, and everything else must stay bit-identical too.
// The jump must cover a real share of the run, or the test proves nothing.
func TestFastForwardIsInvisible(t *testing.T) {
	const sampleEvery = 37
	for _, c := range abCases() {
		if c.name != "miss-heavy-baseline" && c.name != "deep-speculation-mtvp8" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg()
			cfg.MaxInsts = 1 << 62
			cfg.MaxCycles = c.cycles

			fast := runAB(t, cfg, c.bench, false, sampleEvery)
			slow := runAB(t, cfg, c.bench, true, sampleEvery)

			if fast.ff*10 < fast.st.Cycles {
				t.Errorf("fast-forward skipped %d of %d cycles; comparison is near-vacuous",
					fast.ff, fast.st.Cycles)
			}
			if slow.ff != 0 {
				t.Errorf("per-cycle reference skipped %d cycles", slow.ff)
			}
			if n := len(slow.points); uint64(n) < slow.st.Cycles/sampleEvery {
				t.Errorf("only %d telemetry points over %d cycles; bucket closes are not exercised",
					n, slow.st.Cycles)
			}
			compareAB(t, fast, slow)
		})
	}
}

// lockstep runs bench on cfg twice — on the event calendar and on the
// per-cycle reference — stepping both engines through runCycle. After each
// cycle the event engine executes (and the inert span it may then jump
// over), the reference steps to the same cycle one cycle at a time, and the
// two are compared on every one of those cycles: Stats, with the event
// engine's replayed FetchBlocked count rewound to that cycle, occupancy
// (robUsed, renameUsed, qUsed), and the stop/error outcome. A lost wakeup
// shows up as the reference changing state inside a span the calendar
// skipped; the failure names the last agreeing and first disagreeing
// cycles. A run that ends in agreement also compares architectural
// registers.
func lockstep(t testing.TB, cfg config.Config, bench workload.Benchmark) {
	t.Helper()
	build := func(perCycle bool) *Engine {
		c := cfg
		c.PerCycle = perCycle
		prog, image := bench.Build(1)
		eng, err := New(&c, prog, image, &stats.Stats{})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	ev, ref := build(false), build(true)
	if ev.evq == nil || ref.evq != nil {
		t.Fatal("engines not on the event calendar and the per-cycle reference")
	}
	for {
		exec := ev.now + 1
		evStop, evErr := ev.runCycle()
		// Over a jump only FetchBlocked advances, once per skipped cycle.
		want := *ev.st
		want.FetchBlocked -= uint64(ev.now - exec)
		for c := exec; c <= ev.now; c++ {
			refStop, refErr := ref.runCycle()
			wantStop, wantErr := false, ""
			if c == exec {
				wantStop, wantErr = evStop, errText(evErr)
			}
			diff := lockstepDiff(ev, ref, &want)
			if diff == "" && (refStop != wantStop || errText(refErr) != wantErr) {
				diff = fmt.Sprintf("stop/error: event %v %q, per-cycle %v %q",
					wantStop, wantErr, refStop, errText(refErr))
			}
			if diff != "" {
				t.Fatalf("lockstep: last agreeing cycle %d, first disagreeing cycle %d (event engine executed %d, then jumped to %d): %s",
					c-1, c, exec, ev.now, diff)
			}
			want.FetchBlocked++
		}
		if evStop || evErr != nil || ev.finished {
			break
		}
	}
	r1, ok1 := ev.ArchRegs()
	r2, ok2 := ref.ArchRegs()
	if ok1 != ok2 || r1 != r2 {
		t.Fatalf("lockstep: architectural registers diverge at cycle %d:\nevent:     ok=%v %v\nper-cycle: ok=%v %v",
			ev.now, ok1, r1, ok2, r2)
	}
}

// lockstepDiff describes how the reference's state differs from the event
// engine's (whose stats are passed as want), or returns "".
func lockstepDiff(ev, ref *Engine, want *stats.Stats) string {
	var diffs []string
	if *ref.st != *want {
		w, r := reflect.ValueOf(*want), reflect.ValueOf(*ref.st)
		for i := 0; i < w.NumField(); i++ {
			if !reflect.DeepEqual(w.Field(i).Interface(), r.Field(i).Interface()) {
				diffs = append(diffs, fmt.Sprintf("Stats.%s event=%v per-cycle=%v",
					w.Type().Field(i).Name, w.Field(i), r.Field(i)))
			}
		}
	}
	if ev.robUsed != ref.robUsed || ev.renameUsed != ref.renameUsed || ev.qUsed != ref.qUsed {
		diffs = append(diffs, fmt.Sprintf("occupancy event rob=%d rename=%d q=%v, per-cycle rob=%d rename=%d q=%v",
			ev.robUsed, ev.renameUsed, ev.qUsed, ref.robUsed, ref.renameUsed, ref.qUsed))
	}
	if ev.finished != ref.finished {
		diffs = append(diffs, fmt.Sprintf("finished event=%v per-cycle=%v", ev.finished, ref.finished))
	}
	return strings.Join(diffs, "; ")
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestEventScheduleCrossCheck runs the event engine in lockstep with the
// per-cycle reference over the archetype sweep: any cycle, executed or
// skipped, on which the two disagree fails. This is the directed (non-fuzz)
// lost-wakeup hunt.
func TestEventScheduleCrossCheck(t *testing.T) {
	for _, c := range abCases() {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg()
			cfg.MaxInsts = 1 << 62
			cfg.MaxCycles = c.cycles
			lockstep(t, cfg, c.bench)
		})
	}
}

// FuzzEventSchedule fuzzes workload shape, machine size, and fault seeding
// through the lockstep runner: the event engine must match the per-cycle
// reference on every cycle.
func FuzzEventSchedule(f *testing.F) {
	f.Add(uint8(2), uint16(256), uint8(60), uint8(30), uint8(4), uint8(0), uint32(1))
	f.Add(uint8(4), uint16(1024), uint8(20), uint8(10), uint8(8), uint8(1), uint32(7))
	f.Add(uint8(8), uint16(4096), uint8(80), uint8(50), uint8(2), uint8(2), uint32(42))
	f.Add(uint8(1), uint16(64), uint8(0), uint8(0), uint8(1), uint8(3), uint32(9))

	profiles := []string{"none", "monsoon", "stuck-iq-storm", "mem-jitter", "spawn-storm"}

	f.Fuzz(func(t *testing.T, contexts uint8, nodes uint16, seqPct, reusePct, bodyOps, profIdx uint8, seed uint32) {
		nctx := int(contexts%7) + 2 // mtvpOracleCfg needs >= 2 contexts
		nn := int(nodes)
		if nn < 16 {
			nn = 16
		}
		params := workload.ChaseParams{
			Nodes: nn, NodeBytes: 64, PoolSize: 8,
			DominantPct: 50, ReusePct: int(reusePct % 50), SeqPct: int(seqPct % 100),
			BodyOps: int(bodyOps%12) + 1, Iters: 1 << 40,
		}
		bench := workload.PointerChase(fmt.Sprintf("fuzz-%d", seed), workload.INT, params)

		cfg := mtvpOracleCfg(nctx)
		cfg.MaxInsts = 1 << 62
		cfg.MaxCycles = 60_000
		cfg.Faults.Profile = profiles[int(profIdx)%len(profiles)]
		cfg.Faults.Seed = uint64(seed)
		lockstep(t, cfg, bench)
	})
}

// missRing builds a load-only pointer ring far larger than the L3, so every
// chase step is a full memory-latency miss with nothing else in flight: the
// steady state is one long idle stretch per load, all of it skipped by the
// calendar. No stores means the functional overlay never grows, which is
// what lets the idle regime hold a zero-allocation steady state.
func missRing(nodes int) (*isa.Program, *mem.Memory) {
	const nodeBytes = 64
	const base = uint64(0x100000)
	r := mem.NewRand(7)
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	for i := nodes - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	addr := func(i int) uint64 { return base + uint64(i)*nodeBytes }
	m := mem.New()
	for i := 0; i < nodes; i++ {
		m.Store(addr(perm[i]), 8, addr(perm[(i+1)%nodes]))
	}

	b := asm.New("miss-ring")
	b.Liu(isa.R1, addr(perm[0]))
	b.Label("loop")
	b.Ld(isa.R1, isa.R1, 0)
	b.Addi(isa.R2, isa.R2, 1)
	b.J("loop")
	b.Halt()
	return b.MustBuild(), m
}

// TestZeroAllocSteadyState pins the hot loop's allocation behaviour: once
// the engine is warm (slices at capacity, uop, thread, event and overlay
// pools populated, overlay keys touched), a
// simulated cycle of the event engine must not allocate at all — neither on
// the commit-every-cycle path, nor on the idle path the calendar jumps over,
// nor with the issue queues full of uops waiting to be woken, nor while
// value-predicted threads spawn and confirm.
func TestZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("warmup is a few hundred ms per case")
	}

	cases := []struct {
		name  string
		cfg   func() config.Config // nil = the Table 1 baseline
		build func() (*isa.Program, *mem.Memory)
		warm  int
		full  bool // an issue queue must be at capacity in the measured cycles
		spec  bool // threads must spawn and resolve in the measured cycles
	}{
		{
			// DL1-resident chase, commits nearly every cycle: exercises
			// fetch/dispatch/issue/commit and uop recycling. Stores revisit
			// the same node addresses, so the overlay map stops growing
			// after the first traversal.
			name: "hit-heavy",
			build: func() (*isa.Program, *mem.Memory) {
				return workload.PointerChase("zeroalloc-hit", workload.INT, workload.ChaseParams{
					Nodes: 256, NodeBytes: 64, PoolSize: 8,
					DominantPct: 60, ReusePct: 30, SeqPct: 90, BodyOps: 12, Iters: 1 << 40,
				}).Build(1)
			},
			warm: 80_000,
		},
		{
			// Load-only miss ring: ~1000 idle cycles per chase step, all
			// skipped — pins the calendar's jump path itself.
			name:  "miss-idle",
			build: func() (*isa.Program, *mem.Memory) { return missRing(1 << 17) },
			warm:  80_000,
		},
		{
			// Miss-bound gather over a 16 MB table: the gather loads are
			// independent, and behind each index-line miss the integer
			// queue fills with waiting consumers. Pins the wakeup churn
			// (consumer counts, the ready set, width-limited leftovers).
			name: "window-full",
			build: func() (*isa.Program, *mem.Memory) {
				return workload.Gather("zeroalloc-window", workload.INT, workload.GatherParams{
					Items: 1 << 16, TableLen: 1 << 21, PoolSize: 4, Iters: 1 << 40,
				}).Build(1)
			},
			warm: 80_000,
			full: true,
		},
		{
			// MTVP8 with the oracle predictor over a 16 MB chase, far over
			// the 4 MB L3. The L3-oracle selector spawns on every load that
			// misses to memory, so threads spawn and confirm every few
			// cycles (ILP-pred switches spawning on and off in bursts, and a
			// measured window can miss them all). Pins the spawn pools:
			// threads, contexts, overlays and their maps, events, the
			// thread order. The warmup was read off allocation counts per
			// 50k cycles: about 6.5k in the first window (first-touch cache,
			// predictor and image pages, pool populations), then 245, 103,
			// 81, 43, 19 and 13, after which only rare high-water growth of
			// recycled slices and maps is left. Six windows of warmup put
			// the measured cycles past that point.
			name: "deep-speculation",
			cfg: func() config.Config {
				cfg := config.Baseline().WithMTVP(8, config.PredOracle, config.SelL3Oracle)
				cfg.VP.SpawnLatency = 1
				cfg.VP.StoreBufEntries = 0
				return cfg
			},
			build: func() (*isa.Program, *mem.Memory) {
				return workload.PointerChase("zeroalloc-spec", workload.INT, workload.ChaseParams{
					Nodes: 1 << 18, NodeBytes: 64, PoolSize: 8,
					DominantPct: 60, ReusePct: 30, SeqPct: 30, BodyOps: 8, Iters: 1 << 40,
				}).Build(1)
			},
			warm: 300_000,
			spec: true,
		},
	}

	// Only the event engine is pinned: the per-cycle reference is a test
	// oracle, not a production path.
	for _, c := range cases {
		t.Run(c.name+"/event", func(t *testing.T) {
			cfg := config.Baseline()
			if c.cfg != nil {
				cfg = c.cfg()
			}
			cfg.MaxInsts = 1 << 62
			cfg.MaxCycles = 1 << 40
			// The stride prefetcher's stream-tracking maps churn entries;
			// it stays on in benchmarks but is out of scope for the
			// zero-alloc pin.
			cfg.Prefetch.Enabled = false
			prog, image := c.build()
			st := &stats.Stats{}
			eng, err := New(&cfg, prog, image, st)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.warm; i++ {
				if stop, err := eng.runCycle(); err != nil || stop {
					t.Fatalf("warmup ended early at cycle %d: stop=%v err=%v", eng.now, stop, err)
				}
			}
			var fullCycles int
			var spawns, resolved uint64
			// One batch of 300 cycles, measured once after a warm-up batch:
			// AllocsPerRun divides its count by the runs and rounds down, so
			// a per-cycle measure would hide up to 299 allocations.
			allocs := testing.AllocsPerRun(1, func() {
				fullCycles, spawns, resolved = 0, st.Spawns, st.Confirms+st.Kills
				for i := 0; i < 300; i++ {
					if _, err := eng.runCycle(); err != nil {
						t.Fatal(err)
					}
					for q := range eng.qUsed {
						if eng.qUsed[q] == eng.qCap[q] {
							fullCycles++
							break
						}
					}
				}
			})
			if allocs != 0 {
				t.Errorf("steady state allocates: %.0f allocations in 300 cycles", allocs)
			}
			if c.full && fullCycles == 0 {
				t.Errorf("no issue queue reached capacity in the measured cycles (occupancy %v of %v)", eng.qUsed, eng.qCap)
			}
			if c.spec {
				spawns, resolved = st.Spawns-spawns, st.Confirms+st.Kills-resolved
				if spawns == 0 || resolved == 0 {
					t.Errorf("measured cycles spawned %d threads and confirmed or killed %d; the spawn pools went unmeasured", spawns, resolved)
				}
			}
			if st.Committed == 0 {
				t.Fatal("workload committed nothing; the steady state measured is vacuous")
			}
		})
	}
}

// TestUopSize keeps a uop in the 256-byte allocation size class. The
// register producers live in the uop (three refs, no slice), so a field
// added or placed carelessly moves every uop into the next class and the
// hot loop across more cache lines.
func TestUopSize(t *testing.T) {
	if n := unsafe.Sizeof(uop{}); n > 256 {
		t.Errorf("uop is %d bytes, want at most 256", n)
	}
}

// BenchmarkEventQueue micro-benchmarks the calendar's hot operations:
// near-edge enqueue, duplicate enqueue (dedup hit), the fire-and-requeue
// cycle of a sliding schedule, and the worst-case next-cycle search over a
// calendar whose only entry sits at the horizon.
func BenchmarkEventQueue(b *testing.B) {
	b.Run("enqueue", func(b *testing.B) {
		q := &eventQueue{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := int64(i)
			q.add(now+1+int64(i%700), now)
			q.drain(now)
		}
	})
	b.Run("dedup", func(b *testing.B) {
		q := &eventQueue{}
		q.add(1<<10, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.add(1<<10, 0) // always a set bit
		}
	})
	b.Run("requeue", func(b *testing.B) {
		// A sliding window of 64 in-flight completions, one firing and one
		// scheduled per step — the steady-state shape of a busy machine,
		// which takes the busy-path bit test every cycle.
		q := &eventQueue{}
		for i := int64(0); i < 64; i++ {
			q.add(i+1, 0)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := int64(i)
			q.drain(now)
			if !q.has(now + 1) {
				b.Fatal("sliding window lost an entry")
			}
			q.add(now+64, now)
		}
	})
	b.Run("sparse", func(b *testing.B) {
		// One entry, at the horizon: the search scans every word of it.
		q := &eventQueue{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			now := int64(i)
			q.add(now+eqWindow, now)
			c, ok := q.next(now)
			if !ok || c != now+eqWindow {
				b.Fatal("horizon entry not found")
			}
			q.drain(c)
		}
	})
}
