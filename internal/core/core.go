// Package core is the public face of the multithreaded value prediction
// simulator: machine presets matching the paper's configurations, and the
// Run entry point that executes a workload on a configured machine and
// returns its statistics.
//
// A typical use:
//
//	bench := workload.ByName("mcf")
//	prog, image := bench.Build(1)
//	res, err := core.Run(core.MTVP(4, config.PredWangFranklin, config.SelILPPred), prog, image)
//	fmt.Println(res.Stats.UsefulIPC())
package core

import (
	"fmt"

	"mtvp/internal/config"
	"mtvp/internal/isa"
	"mtvp/internal/mem"
	"mtvp/internal/pipeline"
	"mtvp/internal/stats"
	"mtvp/internal/telemetry"
	"mtvp/internal/trace"
)

// Result holds the outcome of one simulation run.
type Result struct {
	Stats  stats.Stats
	Halted bool // the program ran to completion (committed HALT)
	// Regs is the surviving architectural thread's register file (valid
	// when RegsOK; equivalence tests compare it against the functional
	// reference).
	Regs   [isa.NumRegs]uint64
	RegsOK bool
	// Checked is the number of useful commits verified against the
	// lockstep oracle (0 unless cfg.Check was set). On a checked run that
	// halted, Checked equals Stats.Committed and final registers and
	// memory were compared too.
	Checked uint64
}

// IPC returns the run's useful instructions per cycle.
func (r *Result) IPC() float64 { return r.Stats.UsefulIPC() }

// Run simulates prog with its initial memory image on the machine described
// by cfg. The engine takes ownership of the image: after a run that ends at
// a HALT, the image holds the committed architectural memory state.
func Run(cfg config.Config, prog *isa.Program, image *mem.Memory) (*Result, error) {
	return RunInstrumented(cfg, prog, image, Instruments{})
}

// Instruments bundles a run's observational attachments: an event tracer
// (human-readable writer, JSONL sink, Perfetto exporter, or a trace.Multi
// of several) and a cycle-bucketed time-series sampler. All of it is
// strictly observational — results are identical with or without any
// attachment (test-enforced).
type Instruments struct {
	Tracer  trace.Tracer
	Sampler *telemetry.Sampler
}

// RunInstrumented is Run with observational instruments attached.
func RunInstrumented(cfg config.Config, prog *isa.Program, image *mem.Memory, ins Instruments) (*Result, error) {
	st := &stats.Stats{}
	eng, err := pipeline.New(&cfg, prog, image, st)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if ins.Tracer != nil {
		eng.SetTracer(ins.Tracer)
	}
	if ins.Sampler != nil {
		eng.SetSampler(ins.Sampler)
	}
	runErr := eng.Run()
	// The final partial sample bucket is flushed even for canceled or
	// aborted runs: their statistics are valid up to the final cycle.
	eng.FinishTelemetry()
	if runErr != nil {
		return nil, fmt.Errorf("core: %s: %w", prog.Name, runErr)
	}
	if eng.Halted() {
		// With checking enabled the committed stream was verified
		// instruction by instruction; a completed run also gets its final
		// architectural state compared against the oracle.
		if err := eng.FinalCheck(); err != nil {
			return nil, fmt.Errorf("core: %s: %w", prog.Name, err)
		}
	}
	res := &Result{Stats: *st, Halted: eng.Halted(), Checked: eng.CheckedCommits()}
	res.Regs, res.RegsOK = eng.ArchRegs()
	return res, nil
}
