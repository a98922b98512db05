// Package oracle provides the differential-checking net for the timing
// simulator: a standalone in-order functional interpreter over a private
// clone of the initial memory image (the Oracle), and a lockstep Checker
// that the pipeline feeds every useful committed instruction so any
// divergence between the out-of-order SMT machine and plain sequential
// execution is caught at the first wrong commit, not at the end of the run.
//
// The checker exists because the simulator's headline results are only as
// credible as its commit stream. Execution-driven simulators traditionally
// ship exactly this kind of functional checker; here it validates the
// execute-at-fetch contexts, the copy-on-write store-buffer overlays, the
// spawn/confirm/kill thread machinery, and the useful-commit accounting all
// at once, because an error in any of them surfaces as a committed
// instruction whose PC, destination value, or store effect differs from the
// in-order reference.
package oracle

import (
	"mtvp/internal/isa"
	"mtvp/internal/mem"
)

// Oracle is the in-order reference machine: one functional context stepping
// a private clone of the workload's initial memory image. It has no timing,
// no speculation, and shares no mutable state with the engine under test.
type Oracle struct {
	ctx *isa.Context
	mem *mem.Memory
}

// New builds an oracle for prog. The image is cloned, so the caller may
// hand the original to the timing simulator; the two never alias.
func New(prog *isa.Program, image *mem.Memory) *Oracle {
	m := image.Clone()
	return &Oracle{ctx: isa.NewContext(prog, m), mem: m}
}

// Step executes the next instruction in order and returns its execution
// record. ok is false once the oracle has halted (HALT or end of program).
func (o *Oracle) Step() (isa.Exec, bool) { return o.ctx.Step() }

// PC returns the program counter of the next instruction to execute.
func (o *Oracle) PC() int64 { return o.ctx.PC }

// Halted reports whether the oracle has executed a HALT (or run off the end
// of the program).
func (o *Oracle) Halted() bool { return o.ctx.Halted }

// Regs returns the oracle's architectural register file.
func (o *Oracle) Regs() [isa.NumRegs]uint64 { return o.ctx.R }

// Mem returns the oracle's private memory image. Callers must treat it as
// read-only; it is compared against the engine's image at end of run.
func (o *Oracle) Mem() *mem.Memory { return o.mem }
