package isa

import "math"

// MemAccess is the data memory a context executes against. In the timing
// pipeline every hardware context, the architectural one included, is given
// its own store-buffer overlay (internal/storebuf) whose reads fall through
// to its ancestors and ultimately to flat memory; the functional reference
// interpreters are given flat memory directly.
type MemAccess interface {
	Load(addr uint64, size int) uint64
	Store(addr uint64, size int, val uint64)
}

// Exec records the functional outcome of one executed instruction. The
// timing model consumes Execs: dependences come from the instruction's
// registers, while addresses, values, and branch outcomes come from here.
type Exec struct {
	Inst   Inst
	PC     int64
	NextPC int64
	Taken  bool // branch outcome (conditional branches only)

	Addr  uint64 // effective address (memory ops)
	Value uint64 // result written to Rd, or the value stored
}

// Context is one architectural execution context: a register file, a PC,
// and a view of memory. Contexts are the unit of forking for multithreaded
// value prediction: ForkInto copies the register state so a spawned thread
// can run ahead with a predicted value while the parent's state stays intact.
type Context struct {
	Prog    *Program
	PC      int64
	R       [NumRegs]uint64
	Mem     MemAccess
	Halted  bool
	Retired uint64 // instructions executed by Step in this context
}

// NewContext returns a context at the program's first instruction.
func NewContext(p *Program, mem MemAccess) *Context {
	return &Context{Prog: p, Mem: mem}
}

// ForkInto overwrites dst with a copy of the context executing against mem.
// The copy shares the program but has its own register file and PC,
// mirroring the flash register-map copy performed at thread spawn. dst may
// be a context from an earlier thread, so a spawn need not allocate one.
func (c *Context) ForkInto(dst *Context, mem MemAccess) {
	*dst = *c
	dst.Mem = mem
	dst.Retired = 0
}

// Reg returns the value of r (R0 reads as zero).
func (c *Context) Reg(r Reg) uint64 {
	if r == R0 {
		return 0
	}
	return c.R[r]
}

// SetReg writes v to r (writes to R0 are discarded).
func (c *Context) SetReg(r Reg, v uint64) {
	if r != R0 {
		c.R[r] = v
	}
}

// Peek returns the instruction the context will execute next and whether
// the context can execute at all.
func (c *Context) Peek() (Inst, bool) {
	if c.Halted {
		return Inst{}, false
	}
	return c.Prog.At(c.PC)
}

// EffAddr computes the effective address of a memory instruction using the
// current register state, without executing it.
func (c *Context) EffAddr(in Inst) uint64 {
	return c.Reg(in.Rs1) + uint64(in.Imm)
}

// Step executes one instruction, updating registers, memory, and the PC,
// and returns the execution record. Executing past the end of the program
// or a HALT halts the context; Step then reports ok=false.
func (c *Context) Step() (Exec, bool) {
	in, ok := c.Peek()
	if !ok {
		c.Halted = true
		return Exec{}, false
	}
	e := Exec{Inst: in, PC: c.PC, NextPC: c.PC + 1}
	s1, s2 := c.Reg(in.Rs1), c.Reg(in.Rs2)
	f1, f2 := math.Float64frombits(s1), math.Float64frombits(s2)

	switch in.Op {
	case NOP:
	case ADD:
		e.Value = s1 + s2
	case SUB:
		e.Value = s1 - s2
	case MUL:
		e.Value = s1 * s2
	case DIV:
		if s2 != 0 {
			e.Value = s1 / s2
		}
	case REM:
		if s2 != 0 {
			e.Value = s1 % s2
		}
	case AND:
		e.Value = s1 & s2
	case OR:
		e.Value = s1 | s2
	case XOR:
		e.Value = s1 ^ s2
	case SLL:
		e.Value = s1 << (s2 & 63)
	case SRL:
		e.Value = s1 >> (s2 & 63)
	case SRA:
		e.Value = uint64(int64(s1) >> (s2 & 63))
	case SLT:
		e.Value = b2u(int64(s1) < int64(s2))
	case SLTU:
		e.Value = b2u(s1 < s2)
	case ADDI:
		e.Value = s1 + uint64(in.Imm)
	case ANDI:
		e.Value = s1 & uint64(in.Imm)
	case ORI:
		e.Value = s1 | uint64(in.Imm)
	case XORI:
		e.Value = s1 ^ uint64(in.Imm)
	case SLLI:
		e.Value = s1 << (uint64(in.Imm) & 63)
	case SRLI:
		e.Value = s1 >> (uint64(in.Imm) & 63)
	case SRAI:
		e.Value = uint64(int64(s1) >> (uint64(in.Imm) & 63))
	case MULI:
		e.Value = s1 * uint64(in.Imm)
	case LI:
		e.Value = uint64(in.Imm)

	case FADD:
		e.Value = math.Float64bits(f1 + f2)
	case FSUB:
		e.Value = math.Float64bits(f1 - f2)
	case FMUL:
		e.Value = math.Float64bits(f1 * f2)
	case FDIV:
		if f2 != 0 {
			e.Value = math.Float64bits(f1 / f2)
		}
	case FSQRT:
		if f1 > 0 {
			e.Value = math.Float64bits(math.Sqrt(f1))
		}
	case FNEG:
		e.Value = math.Float64bits(-f1)
	case FABS:
		e.Value = math.Float64bits(math.Abs(f1))
	case FLT:
		e.Value = b2u(f1 < f2)
	case FLE:
		e.Value = b2u(f1 <= f2)
	case FEQ:
		e.Value = b2u(f1 == f2)
	case ITOF:
		e.Value = math.Float64bits(float64(int64(s1)))
	case FTOI:
		e.Value = uint64(int64(f1))

	case LB, LH, LW, LD, FLD:
		e.Addr = s1 + uint64(in.Imm)
		e.Value = c.Mem.Load(e.Addr, in.Op.MemSize())
	case SB, SH, SW, SD, FSD:
		e.Addr = s1 + uint64(in.Imm)
		e.Value = s2
		c.Mem.Store(e.Addr, in.Op.MemSize(), s2)

	case BEQ:
		e.Taken = s1 == s2
	case BNE:
		e.Taken = s1 != s2
	case BLT:
		e.Taken = int64(s1) < int64(s2)
	case BGE:
		e.Taken = int64(s1) >= int64(s2)
	case BLTU:
		e.Taken = s1 < s2
	case BGEU:
		e.Taken = s1 >= s2
	case J:
		e.NextPC = in.Imm
	case JAL:
		e.Value = uint64(c.PC + 1)
		e.NextPC = in.Imm
	case JR:
		e.NextPC = int64(s1)
	case HALT:
		c.Halted = true
		e.NextPC = c.PC
	}

	if in.Op.IsBranch() && e.Taken {
		e.NextPC = in.Imm
	}
	if in.HasDest() {
		c.R[in.Rd] = e.Value
	}
	c.PC = e.NextPC
	c.Retired++
	return e, true
}

// Run executes until the context halts or max instructions have retired,
// returning the number executed. It is the reference "perfect machine" used
// by the architectural-equivalence tests.
func (c *Context) Run(max uint64) uint64 {
	var n uint64
	for n < max {
		if _, ok := c.Step(); !ok {
			break
		}
		n++
	}
	return n
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
