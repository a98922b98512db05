package pipeline

import (
	"math/bits"
	"reflect"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/storebuf"
	"mtvp/internal/workload"
)

// overlayChain returns the number of overlays in o's chain down to flat
// memory and the bytes they buffer (the set bits of each buffered word's
// byte mask). It reads storebuf's unexported fields through reflect so that
// package carries no test-only API.
func overlayChain(o *storebuf.Overlay) (depth, bytes int) {
	for v := reflect.ValueOf(o); ; {
		depth++
		for it := v.Elem().FieldByName("data").MapRange(); it.Next(); {
			bytes += bits.OnesCount64(it.Value().FieldByName("mask").Uint())
		}
		p := v.Elem().FieldByName("parent").Elem()
		if p.Type() != v.Type() {
			return depth, bytes
		}
		v = p
	}
}

// TestArchChainStaysSettled pins where committed stores go: into memory
// when the thread tree shrinks, not into an ever-deeper overlay chain.
//
// Below the architectural thread's top, a settled chain holds only the fork
// points of its unresolved spawns and of children killed outside a resolve
// since the tree last shrank. On vpr r MTVP8 that measured at most 4 levels
// and 296 bytes (sampled every 1024 cycles) in both cases. Before stores
// settled, nothing reached memory until HALT: the plain run peaked at 133
// levels and ended at 16 levels holding 26,696 bytes, growing with run
// length. The bounds leave 2x and 7x headroom over the measurement and sit
// an order of magnitude below the unsettled figures. The pred-chaos case
// corrupts predictions so that most spawns die at resolve; without the
// settle after a wrong prediction it reaches 10 levels.
func TestArchChainStaysSettled(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-instruction MTVP8 runs")
	}
	w, err := workload.ByName("vpr r")
	if err != nil {
		t.Fatal(err)
	}
	for _, faults := range []string{"none", "pred-chaos"} {
		t.Run(faults, func(t *testing.T) {
			cfg := config.Baseline().WithMTVP(8, config.PredWangFranklin, config.SelILPPred)
			cfg.MaxInsts = 200_000
			cfg.Faults = config.FaultParams{Profile: faults, Seed: 1}
			var eng *Engine
			var maxDepth, maxBytes int
			sample := func() {
				d, b := overlayChain(eng.archThread().overlay)
				maxDepth, maxBytes = max(maxDepth, d), max(maxBytes, b)
			}
			cfg.Observe = func(uint64, uint64) bool { sample(); return true }
			prog, image := w.Build(1)
			eng, err = New(&cfg, prog, image, newStats())
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			sample()
			const depthBound, bytesBound = 8, 2048
			if maxDepth > depthBound || maxBytes > bytesBound {
				t.Errorf("architectural chain reached %d levels and %d bytes; want at most %d and %d",
					maxDepth, maxBytes, depthBound, bytesBound)
			}
		})
	}
}
