package core_test

import (
	"fmt"
	"testing"

	"mtvp/internal/asm"
	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/isa"
	"mtvp/internal/mem"
)

// randomProgram generates a terminating program of random instructions: an
// outer counted loop whose body mixes ALU ops, loads and stores confined to
// a small region (addresses masked), data-dependent branches with bounded
// skips, and FP arithmetic. It is the adversarial input for the
// architectural-equivalence invariant.
func randomProgram(seed uint64, bodyLen int) (*isa.Program, *mem.Memory) {
	r := mem.NewRand(seed)
	m := mem.New()
	const region = 1 << 14 // 16KB data region
	for a := uint64(0); a < region; a += 8 {
		m.Store(0x10000+a, 8, r.Next()>>16)
	}

	b := asm.New(fmt.Sprintf("fuzz-%d", seed))
	// r1 = data base, r2..r9 random state, r10 loop counter.
	b.Liu(isa.R1, 0x10000)
	for reg := isa.R2; reg <= isa.R9; reg++ {
		b.Li(reg, int64(r.Next()>>40))
	}
	b.Li(isa.R10, 400) // iterations
	b.Label("loop")

	intRegs := []isa.Reg{isa.R2, isa.R3, isa.R4, isa.R5, isa.R6, isa.R7, isa.R8, isa.R9}
	fpRegs := []isa.Reg{isa.F1, isa.F2, isa.F3, isa.F4}
	pick := func(rs []isa.Reg) isa.Reg { return rs[r.Intn(len(rs))] }
	skips := 0
	for i := 0; i < bodyLen; i++ {
		switch r.Intn(16) {
		case 0, 1, 2:
			b.Add(pick(intRegs), pick(intRegs), pick(intRegs))
		case 3:
			b.Sub(pick(intRegs), pick(intRegs), pick(intRegs))
		case 4:
			b.Mul(pick(intRegs), pick(intRegs), pick(intRegs))
		case 5:
			b.Xor(pick(intRegs), pick(intRegs), pick(intRegs))
		case 6:
			b.Addi(pick(intRegs), pick(intRegs), int64(r.Intn(1000)-500))
		case 7, 8:
			// Load from a masked address computed off random state.
			ar := pick(intRegs)
			b.Andi(isa.R11, ar, region-8)
			b.Add(isa.R11, isa.R11, isa.R1)
			b.Ld(pick(intRegs), isa.R11, 0)
		case 9:
			// Store to a masked address.
			ar := pick(intRegs)
			b.Andi(isa.R11, ar, region-8)
			b.Add(isa.R11, isa.R11, isa.R1)
			b.Sd(pick(intRegs), isa.R11, 0)
		case 10:
			// Sub-word access.
			ar := pick(intRegs)
			b.Andi(isa.R11, ar, region-8)
			b.Add(isa.R11, isa.R11, isa.R1)
			if r.Intn(2) == 0 {
				b.Lb(pick(intRegs), isa.R11, 3)
			} else {
				b.Sb(pick(intRegs), isa.R11, 5)
			}
		case 11:
			// Data-dependent forward skip over one instruction.
			label := fmt.Sprintf("skip%d", skips)
			skips++
			b.Andi(isa.R12, pick(intRegs), 3)
			b.Beq(isa.R12, isa.R0, label)
			b.Addi(pick(intRegs), pick(intRegs), 13)
			b.Label(label)
		case 12:
			b.Itof(pick(fpRegs), pick(intRegs))
		case 13:
			b.Fadd(pick(fpRegs), pick(fpRegs), pick(fpRegs))
		case 14:
			b.Fmul(pick(fpRegs), pick(fpRegs), pick(fpRegs))
		default:
			b.Ftoi(pick(intRegs), pick(fpRegs))
		}
	}
	b.Addi(isa.R10, isa.R10, -1)
	b.Bne(isa.R10, isa.R0, "loop")
	// Publish final state so memory comparison sees register results.
	b.Li(isa.R13, 0x8000)
	for i, reg := range intRegs {
		b.Sd(reg, isa.R13, int64(i*8))
	}
	for i, reg := range fpRegs {
		b.Fsd(reg, isa.R13, int64(64+i*8))
	}
	b.Halt()
	return b.MustBuild(), m
}

// TestRandomProgramEquivalence fuzzes the equivalence invariant: random
// programs, the machines most likely to disagree, exact state match.
func TestRandomProgramEquivalence(t *testing.T) {
	machines := map[string]config.Config{
		"mtvp4-wf":      core.MTVP(4, config.PredWangFranklin, config.SelILPPred),
		"mtvp8-always":  core.MTVP(8, config.PredDFCM, config.SelAlways),
		"mtvp4-nostall": core.MTVPNoStall(4, config.PredWangFranklin, config.SelAlways),
		"multival":      core.MTVPMultiValue(8, 3, 2),
		"stvp-always":   core.STVP(config.PredDFCM, config.SelAlways),
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog, refMem := randomProgram(seed, 30+int(seed)*7)
			refCtx := isa.NewContext(prog, refMem)
			refN := refCtx.Run(1 << 40)
			if !refCtx.Halted {
				t.Fatal("reference did not halt")
			}

			for name, cfg := range machines {
				cfg.MaxInsts = 1 << 40
				cfg.MaxCycles = 400_000_000
				prog2, image := randomProgram(seed, 30+int(seed)*7)
				res, err := runCore(cfg, prog2, image)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !res.Halted {
					t.Fatalf("%s: no halt (committed %d)", name, res.Stats.Committed)
				}
				if res.Stats.Committed != refN {
					t.Errorf("%s: committed %d, want %d", name, res.Stats.Committed, refN)
				}
				if addr, diff := image.Diff(refMem); diff {
					t.Errorf("%s: memory differs at %#x: %#x vs %#x",
						name, addr, image.Load(addr, 8), refMem.Load(addr, 8))
				}
				if res.RegsOK {
					for ri := 0; ri < isa.NumRegs; ri++ {
						if res.Regs[ri] != refCtx.R[ri] {
							t.Errorf("%s: reg %d = %#x, want %#x",
								name, ri, res.Regs[ri], refCtx.R[ri])
							break
						}
					}
				}
			}
		})
	}
}
