package core_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/fault"
	"mtvp/internal/oracle"
	"mtvp/internal/workload"
)

// campaignMachines is the archetype x preset axis of the fault sweep: the
// three rungs of the degradation ladder, so every profile is validated
// against the machine it would degrade to as well as the one it starts on.
func campaignMachines() []struct {
	name string
	cfg  config.Config
} {
	return []struct {
		name string
		cfg  config.Config
	}{
		{"baseline", core.Baseline()},
		{"stvp", core.STVP(config.PredWangFranklin, config.SelILPPred)},
		{"mtvp4", core.MTVP(4, config.PredWangFranklin, config.SelILPPred)},
	}
}

// campaignWorkloads keeps the sweep small but speculation-heavy: a
// pointer chase (predictable dominant miss, MTVP's target case) and a
// gather (dense independent loads, stresses the store buffer and spawns).
func campaignWorkloads() []workload.Benchmark {
	return []workload.Benchmark{
		workload.PointerChase("camp-chase", workload.INT, workload.ChaseParams{
			Nodes: 512, NodeBytes: 64, PoolSize: 8, DominantPct: 90, ReusePct: 5, Iters: 6,
		}),
		workload.Gather("camp-gather", workload.FP, workload.GatherParams{
			Items: 1024, TableLen: 4096, PoolSize: 8, DominantPct: 90, ReusePct: 5,
			FPData: true, StoreOut: true, Iters: 4,
		}),
	}
}

// TestFaultCampaignRecoversOrAborts is the ISSUE's acceptance sweep: every
// built-in fault profile x every machine preset x each campaign workload,
// all with the lockstep oracle checker armed. Each run must either finish
// oracle-clean (the recovery controller absorbed the faults) or abort with
// a structured *fault.Report. A divergence — a silently wrong committed
// value — or any unstructured error fails the sweep; a hang is caught by
// the suite's `go test -timeout` (the watchdog makes hangs impossible by
// construction: it ends every stall in recovery or a report).
func TestFaultCampaignRecoversOrAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("checked fault sweep is slow; skipped with -short")
	}
	var injected, aborts atomic.Uint64
	for _, p := range fault.Profiles() {
		for _, m := range campaignMachines() {
			for _, b := range campaignWorkloads() {
				p, m, b := p, m, b
				t.Run(fmt.Sprintf("%s/%s/%s", p.Name, m.name, b.Name), func(t *testing.T) {
					t.Parallel()
					cfg := core.Hardened(core.WithFaults(m.cfg, p.Name, 0xC0FFEE))
					cfg.Check = true
					cfg.MaxInsts = 20_000
					cfg.MaxCycles = 50_000_000
					cfg.Recovery.WatchdogCycles = 4_000
					prog, image := b.Build(5)
					res, err := runCore(cfg, prog, image)
					if err != nil {
						var rep *fault.Report
						switch {
						case oracle.IsDivergence(err):
							t.Fatalf("silently wrong value committed under %s: %v", p.Name, err)
						case errors.As(err, &rep):
							// Structured abort: the contract's second
							// permitted outcome.
							aborts.Add(1)
							for _, n := range rep.Injected {
								injected.Add(n)
							}
						default:
							t.Fatalf("unstructured failure under %s: %v", p.Name, err)
						}
						return
					}
					if res.Checked == 0 {
						t.Fatal("checker verified no commits on a clean run")
					}
					injected.Add(res.Stats.FaultsInjected)
				})
			}
		}
	}
	t.Cleanup(func() {
		if injected.Load() == 0 {
			t.Error("campaign injected zero faults across every profile; the sweep tested nothing")
		}
		t.Logf("campaign: %d faults injected, %d structured aborts", injected.Load(), aborts.Load())
	})
}

// TestFaultProfilesAreTimingOnly pins the fault model's core property: an
// armed injector changes *when* things happen, never *what* the program
// computes. Every profile that completes must produce the identical
// committed-instruction count and final architectural state check as the
// checker enforces per-commit; this test just asserts the clean path is
// reachable for at least one profile (the whole sweep above may abort
// under the harshest profiles).
func TestFaultProfilesAreTimingOnly(t *testing.T) {
	cfg := core.Hardened(core.WithFaults(core.MTVP(4, config.PredWangFranklin, config.SelILPPred), "mem-jitter", 7))
	cfg.Check = true
	cfg.MaxInsts = 20_000
	cfg.MaxCycles = 50_000_000
	b := campaignWorkloads()[0]
	prog, image := b.Build(5)
	res, err := runCore(cfg, prog, image)
	if err != nil {
		t.Fatalf("mem-jitter (pure timing faults) must always recover: %v", err)
	}
	if res.Stats.FaultMemDelay == 0 {
		t.Fatal("mem-jitter injected nothing")
	}
	if res.Checked == 0 {
		t.Fatal("checker verified no commits")
	}
}
