package experiments

import (
	"context"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/workload"
)

// These tests assert the paper's qualitative claims hold in the
// reproduction — the "shape" contract of EXPERIMENTS.md. They run a subset
// of benchmarks at a reduced budget, so they check signs and orderings, not
// magnitudes.

func claimOpts(names ...string) Options {
	o := DefaultOptions()
	o.Insts = 100_000
	for _, n := range names {
		b, err := workload.ByName(n)
		if err != nil {
			panic(err)
		}
		o.Benchmarks = append(o.Benchmarks, b)
	}
	return o
}

func ipcOf(t *testing.T, o Options, b workload.Benchmark, cfg config.Config) float64 {
	t.Helper()
	res, err := runCell(context.Background(), b, o.spec("claim/"+b.Name, b, "claim", cfg), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.IPC
}

// Claim (§1, §5.1): threaded value prediction is several times more
// effective than traditional value prediction on memory-bound,
// value-predictable integer codes.
func TestClaimMTVPBeatsSTVPOnChase(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := claimOpts("mcf")
	b := o.Benchmarks[0]
	base := ipcOf(t, o, b, core.Baseline())
	stvp := ipcOf(t, o, b, core.STVPOracleLimit())
	mtvp8 := ipcOf(t, o, b, core.MTVPOracleLimit(8))
	if stvp <= base {
		t.Errorf("oracle STVP did not beat baseline: %.4f vs %.4f", stvp, base)
	}
	if mtvp8 <= stvp {
		t.Errorf("oracle MTVP8 (%.4f) did not beat STVP (%.4f)", mtvp8, stvp)
	}
}

// Claim (Figure 1): more hardware contexts give more speedup.
func TestClaimContextsScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := claimOpts("mcf")
	b := o.Benchmarks[0]
	prev := 0.0
	for _, n := range []int{2, 4, 8} {
		ipc := ipcOf(t, o, b, core.MTVPOracleLimit(n))
		if ipc < prev*0.97 { // allow tiny non-monotonic noise
			t.Errorf("mtvp%d IPC %.4f dropped well below mtvp%d", n, ipc, n/2)
		}
		prev = ipc
	}
}

// Claim (§1, §5.4): traditional value prediction shows almost nothing on FP
// codes, while MTVP with the same predictor is strongly positive on
// memory-bound FP.
func TestClaimFPAsymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := claimOpts("art 1")
	b := o.Benchmarks[0]
	base := ipcOf(t, o, b, core.Baseline())
	stvp := ipcOf(t, o, b, core.STVP(config.PredWangFranklin, config.SelILPPred))
	mtvp8 := ipcOf(t, o, b, core.MTVP(8, config.PredWangFranklin, config.SelILPPred))
	stvpGain := stvp/base - 1
	mtvpGain := mtvp8/base - 1
	if stvpGain > 0.05 {
		t.Errorf("STVP gain on FP gather unexpectedly large: %.1f%%", stvpGain*100)
	}
	if mtvpGain < 0.20 {
		t.Errorf("MTVP8 gain on FP gather too small: %.1f%%", mtvpGain*100)
	}
}

// Claim (Figure 4): the single fetch path policy outperforms letting the
// parent keep fetching (no-stall), on average.
func TestClaimSFPBeatsNoStall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := claimOpts("mcf", "parser", "art 1", "vpr r")
	var sfpSum, noStallSum float64
	for _, b := range o.Benchmarks {
		sfpSum += ipcOf(t, o, b, core.MTVP(4, config.PredWangFranklin, config.SelILPPred))
		noStallSum += ipcOf(t, o, b, core.MTVPNoStall(4, config.PredWangFranklin, config.SelILPPred))
	}
	if sfpSum < noStallSum*0.98 {
		t.Errorf("SFP total IPC %.4f well below no-stall %.4f", sfpSum, noStallSum)
	}
}

// Claim (§5.3): store-buffer capacity bounds how far a spawned thread can
// run (counted in stores); a 128-entry buffer gets nearly the performance
// of an unbounded one, while tiny buffers cost real performance. The
// binding scenario is a long resident stretch (many stores) between
// predictable long-latency loads.
func TestClaimStoreBufferSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	b := workload.Blocked("sb-claim", workload.INT, workload.BlockedParams{
		WorkingSet: 16 << 10, MulChain: 1,
		SideTableLen: 1 << 20, SideEvery: 96, SideDominant: 96,
		Iters: 1 << 20,
	})
	o := DefaultOptions()
	o.Insts = 100_000
	mk := func(entries int) config.Config {
		cfg := core.MTVPOracleLimit(2)
		cfg.VP.StoreBufEntries = entries
		return cfg
	}
	tiny := ipcOf(t, o, b, mk(8))
	mid := ipcOf(t, o, b, mk(128))
	unbounded := ipcOf(t, o, b, mk(0))
	if mid < unbounded*0.85 {
		t.Errorf("128-entry buffer IPC %.4f far from unbounded %.4f", mid, unbounded)
	}
	if tiny >= mid {
		t.Errorf("8-entry buffer IPC %.4f not below 128-entry %.4f", tiny, mid)
	}
}

// Claim (Figure 6): MTVP beats even an idealized wide-window machine on
// serial-dependence integer code (it creates parallelism rather than just
// finding it), while the wide window is stronger on independent-miss FP
// code.
func TestClaimWideWindowCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := claimOpts("mcf", "art 1")
	chase, gather := o.Benchmarks[0], o.Benchmarks[1]

	mtvpChase := ipcOf(t, o, chase, core.MTVP(8, config.PredWangFranklin, config.SelILPPred))
	wwChase := ipcOf(t, o, chase, core.WideWindow())
	if mtvpChase <= wwChase {
		t.Errorf("on the serial chase, MTVP (%.4f) should beat the wide window (%.4f)",
			mtvpChase, wwChase)
	}

	wwGather := ipcOf(t, o, gather, core.WideWindow())
	baseGather := ipcOf(t, o, gather, core.Baseline())
	if wwGather <= baseGather {
		t.Errorf("wide window should beat baseline on independent misses: %.4f vs %.4f",
			wwGather, baseGather)
	}
}

// Claim (Figure 6): spawn-only (split window, no value prediction) is far
// less effective than the combination of spawning and value prediction on
// dependence-bound code.
func TestClaimValuePredictionIsKey(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := claimOpts("mcf")
	b := o.Benchmarks[0]
	spawnOnly := ipcOf(t, o, b, core.SpawnOnly(8))
	mtvp := ipcOf(t, o, b, core.MTVP(8, config.PredWangFranklin, config.SelILPPred))
	if mtvp <= spawnOnly {
		t.Errorf("value prediction added nothing over spawn-only: %.4f vs %.4f",
			mtvp, spawnOnly)
	}
}
