package pipeline

import (
	"testing"

	"mtvp/internal/asm"
	"mtvp/internal/config"
	"mtvp/internal/isa"
	"mtvp/internal/mem"
	"mtvp/internal/workload"
)

// callKernel builds a loop whose only hard-to-predict control flow is the
// JR return from a helper — isolating the return-address stack.
func callKernel(iters int64) (*isa.Program, *mem.Memory) {
	b := asm.New("calls")
	b.Li(isa.R5, iters)
	b.J("start")
	b.Label("helper")
	b.Addi(isa.R3, isa.R3, 1)
	b.Muli(isa.R3, isa.R3, 3)
	b.Jr(isa.R28)
	b.Label("start")
	b.Label("loop")
	b.Jal(isa.R28, "helper")
	b.Addi(isa.R5, isa.R5, -1)
	b.Bne(isa.R5, isa.R0, "loop")
	b.Halt()
	return b.MustBuild(), mem.New()
}

// TestRASPredictsReturns: returns through the RAS must be near-perfectly
// predicted when calls and returns nest properly.
func TestRASPredictsReturns(t *testing.T) {
	cfg := config.Baseline()
	cfg.MaxInsts = 1 << 40
	cfg.MaxCycles = 10_000_000
	prog, image := callKernel(2000)
	st := runStats(t, &cfg, prog, image)
	if st.Branches == 0 {
		t.Fatal("no control-flow events recorded")
	}
	if acc := st.BranchAccuracy(); acc < 0.99 {
		t.Errorf("accuracy %.3f on pure call/return kernel", acc)
	}
}

// TestEmptyRASMispredicts: a return with no matching call must mispredict
// (the stack predicts -1), costing resolution latency — the machine still
// produces the right result.
func TestEmptyRASMispredicts(t *testing.T) {
	b := asm.New("badret")
	b.Li(isa.R1, 5) // return target: instruction 5
	b.Jr(isa.R1)    // no preceding JAL: RAS is empty
	b.Nop()
	b.Nop()
	b.Nop()
	b.Addi(isa.R2, isa.R2, 9) // 5
	b.Halt()
	cfg := config.Baseline()
	cfg.MaxInsts = 1 << 30
	prog := b.MustBuild()
	st := runStats(t, &cfg, prog, mem.New())
	if st.BranchWrong == 0 {
		t.Error("unmatched JR did not mispredict")
	}
}

// TestRASSurvivesSpawn: a child spawned between a call and its return must
// inherit the parent's return-address stack. The kernel's only branches are
// the loop bounds, the side-load gate, and the JR returns, so accuracy
// collapses if children lose the stack.
func TestRASSurvivesSpawn(t *testing.T) {
	b := workload.Blocked("ras-spawn", workload.INT, workload.BlockedParams{
		WorkingSet: 8 << 10, MulChain: 1,
		SideTableLen: 1 << 14, SideEvery: 8, SideDominant: 95, Iters: 4,
	})
	cfg := config.Baseline().WithMTVP(4, config.PredWangFranklin, config.SelL3Oracle)
	eng, mt := runBench(t, b, cfg)
	if !eng.Halted() {
		t.Fatal("did not halt")
	}
	_, base := runBench(t, b, config.Baseline())
	// Spawning may add a few wrong-path branches, but must not collapse
	// return prediction.
	if mt.BranchAccuracy() < base.BranchAccuracy()-0.05 {
		t.Errorf("accuracy %.3f under spawning vs %.3f baseline; RAS likely not inherited",
			mt.BranchAccuracy(), base.BranchAccuracy())
	}
}

// TestICountFetchesSpeculativeThreads: with several live threads, fetch
// must reach speculative children rather than starving them.
func TestICountFetchesSpeculativeThreads(t *testing.T) {
	b := chaseBench(4096, 2)
	cfg := mtvpOracleCfg(8)
	cfg.VP.FetchPolicy = config.FetchNoStall // parent and children compete
	eng, st := runBench(t, b, cfg)
	if !eng.Halted() {
		t.Fatal("did not halt")
	}
	if st.Spawns == 0 {
		t.Fatal("no spawns under no-stall")
	}
	if st.Confirms == 0 {
		t.Error("no confirms: speculative threads starved of fetch")
	}
}

// TestFrontEndDepthDelaysDispatch: instructions must not commit before the
// front-end pipe has filled.
func TestFrontEndDepthDelaysDispatch(t *testing.T) {
	cfg := config.Baseline()
	cfg.MaxInsts = 100
	prog, image := chaseBench(64, 1).Build(1)
	st := runStats(t, &cfg, prog, image)
	if st.Cycles < uint64(cfg.FrontEndDepth) {
		t.Errorf("first commits after only %d cycles (front end depth %d)",
			st.Cycles, cfg.FrontEndDepth)
	}
}

// TestWarmHandoffState: after an SFP spawn the child must carry a warm
// front end (pipeWarm > 0) and the configured dispatch hold, while no-stall
// children get no warm pipe for free.
func TestWarmHandoffState(t *testing.T) {
	b := chaseBench(2048, 1<<20)
	cfg := mtvpOracleCfg(2)
	cfg.MaxInsts = 3_000
	prog, image := b.Build(5)
	st := &struct{ seen bool }{}
	eng, err := New(&cfg, prog, image, newStats())
	if err != nil {
		t.Fatal(err)
	}
	// Step cycles manually until a spawn happens, then inspect the child.
	for i := 0; i < 200_000 && !st.seen; i++ {
		eng.now++
		eng.commit()
		eng.complete()
		eng.issue()
		eng.dispatch()
		eng.fetch()
		for _, th := range eng.liveByOrder() {
			if th.spawn != nil && th.pipeWarm > 0 {
				st.seen = true
				if th.dispatchHold <= th.fetchBlocked-1 {
					t.Errorf("dispatch hold %d not beyond spawn point %d",
						th.dispatchHold, th.fetchBlocked)
				}
			}
		}
	}
	if !st.seen {
		t.Fatal("no spawned child with a warm front end observed")
	}
}

// FetchBlocked counts cycles in which no thread could fetch. On a
// single-thread baseline the second ICOUNT fetch block never finds a
// thread, which is not a blocked cycle. Every cycle that fetched moved at
// most FetchWidth/FetchBlocks instructions, so at least Fetched/perThread
// cycles were not blocked; on a DL1-resident chase (past its cold-cache
// start) the count must also sit well below Cycles.
func TestFetchBlockedCountsOnlyCyclesWithNoFetch(t *testing.T) {
	cfg := config.Baseline()
	cfg.MaxInsts = 1 << 62
	cfg.MaxCycles = 400_000
	prog, image := workload.PointerChase("fetch-blocked-hit", workload.INT, workload.ChaseParams{
		Nodes: 256, NodeBytes: 64, PoolSize: 8,
		DominantPct: 60, ReusePct: 30, SeqPct: 90, BodyOps: 12, Iters: 1 << 40,
	}).Build(1)
	st := runStats(t, &cfg, prog, image)
	perThread := uint64(cfg.FetchWidth / cfg.FetchBlocks)
	fetchCycles := (st.Fetched + perThread - 1) / perThread
	if st.FetchBlocked+fetchCycles > st.Cycles {
		t.Errorf("FetchBlocked %d + %d fetching cycles exceeds %d cycles", st.FetchBlocked, fetchCycles, st.Cycles)
	}
	if 4*st.FetchBlocked > 3*st.Cycles {
		t.Errorf("FetchBlocked %d of %d cycles: a hit-heavy single-thread run fetches on many cycles",
			st.FetchBlocked, st.Cycles)
	}
}
