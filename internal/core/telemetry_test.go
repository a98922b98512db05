package core

import (
	"reflect"
	"strings"
	"testing"

	"mtvp/internal/config"
	"mtvp/internal/telemetry"
	"mtvp/internal/trace"
	"mtvp/internal/workload"
)

// TestTelemetryIsObservational is the determinism guard for the whole
// telemetry layer: a run with every sink attached — JSONL trace, Perfetto
// exporter, time-series sampler — and the lockstep oracle checker armed
// must produce byte-identical statistics, final registers, and halt state
// to a bare run of the same machine.
func TestTelemetryIsObservational(t *testing.T) {
	bench, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := MTVP(4, config.PredWangFranklin, config.SelILPPred)
	cfg.MaxInsts = 30_000
	cfg.Check = true // the oracle verifies every useful commit in both runs

	prog, image := bench.Build(1)
	bare, err := Run(cfg, prog, image)
	if err != nil {
		t.Fatal(err)
	}

	var jsonOut, perfOut strings.Builder
	jsonSink := telemetry.NewJSONLSink(&jsonOut)
	perfSink := telemetry.NewPerfettoSink(&perfOut)
	sampler := telemetry.NewSampler(512)

	prog2, image2 := bench.Build(1)
	instrumented, err := RunInstrumented(cfg, prog2, image2, Instruments{
		Tracer:  trace.Multi(jsonSink, perfSink),
		Sampler: sampler,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonSink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := perfSink.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(bare.Stats, instrumented.Stats) {
		t.Errorf("telemetry changed the statistics:\nbare:         %s\ninstrumented: %s",
			bare.Stats.String(), instrumented.Stats.String())
	}
	if bare.Halted != instrumented.Halted || bare.Checked != instrumented.Checked {
		t.Errorf("halt/check state diverged: halted %v vs %v, checked %d vs %d",
			bare.Halted, instrumented.Halted, bare.Checked, instrumented.Checked)
	}
	if bare.RegsOK != instrumented.RegsOK || bare.Regs != instrumented.Regs {
		t.Error("telemetry changed the final architectural registers")
	}

	// The instruments actually observed the run.
	if jsonOut.Len() == 0 {
		t.Error("JSONL sink saw no events")
	}
	if !strings.Contains(perfOut.String(), "traceEvents") {
		t.Error("Perfetto sink wrote no document")
	}
	if len(sampler.Points()) == 0 {
		t.Error("sampler closed no buckets")
	}
}
