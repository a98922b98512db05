package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegFiles(t *testing.T) {
	if R0.IsFP() {
		t.Error("R0 classified as FP")
	}
	if R31.IsFP() {
		t.Error("R31 classified as FP")
	}
	if !F0.IsFP() || !F31.IsFP() {
		t.Error("F0/F31 not classified as FP")
	}
	if F0 != 32 || F31 != 63 {
		t.Errorf("FP register indices wrong: F0=%d F31=%d", F0, F31)
	}
}

func TestOpClasses(t *testing.T) {
	cases := []struct {
		op   Op
		want Class
	}{
		{ADD, ClassIntALU}, {SUB, ClassIntALU}, {AND, ClassIntALU},
		{SLT, ClassIntALU}, {ADDI, ClassIntALU}, {LI, ClassIntALU},
		{MUL, ClassIntMul}, {MULI, ClassIntMul},
		{DIV, ClassIntDiv}, {REM, ClassIntDiv},
		{FADD, ClassFPAdd}, {FSUB, ClassFPAdd}, {ITOF, ClassFPAdd},
		{FTOI, ClassFPAdd}, {FLT, ClassFPAdd},
		{FMUL, ClassFPMul},
		{FDIV, ClassFPDiv}, {FSQRT, ClassFPDiv},
		{LB, ClassLoad}, {LH, ClassLoad}, {LW, ClassLoad},
		{LD, ClassLoad}, {FLD, ClassLoad},
		{SB, ClassStore}, {SD, ClassStore}, {FSD, ClassStore},
		{BEQ, ClassBranch}, {BGEU, ClassBranch},
		{J, ClassJump}, {JAL, ClassJump}, {JR, ClassJump},
		{HALT, ClassHalt}, {NOP, ClassNop},
	}
	for _, c := range cases {
		if got := c.op.Class(); got != c.want {
			t.Errorf("%v.Class() = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestMemSize(t *testing.T) {
	sizes := map[Op]int{
		LB: 1, LH: 2, LW: 4, LD: 8, FLD: 8,
		SB: 1, SH: 2, SW: 4, SD: 8, FSD: 8,
		ADD: 0, BEQ: 0,
	}
	for op, want := range sizes {
		if got := op.MemSize(); got != want {
			t.Errorf("%v.MemSize() = %d, want %d", op, got, want)
		}
	}
}

func TestSrcRegs(t *testing.T) {
	check := func(in Inst, want ...Reg) {
		t.Helper()
		got := in.SrcRegs(nil)
		if len(got) != len(want) {
			t.Fatalf("%v: srcs %v, want %v", in, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: srcs %v, want %v", in, got, want)
			}
		}
	}
	check(Inst{Op: ADD, Rd: R1, Rs1: R2, Rs2: R3}, R2, R3)
	check(Inst{Op: ADD, Rd: R1, Rs1: R0, Rs2: R3}, R3) // R0 omitted
	check(Inst{Op: ADDI, Rd: R1, Rs1: R2}, R2)
	check(Inst{Op: LI, Rd: R1})
	check(Inst{Op: LD, Rd: R1, Rs1: R2}, R2)
	check(Inst{Op: SD, Rs1: R2, Rs2: R3}, R2, R3)
	check(Inst{Op: BEQ, Rs1: R4, Rs2: R5}, R4, R5)
	check(Inst{Op: JR, Rs1: R9}, R9)
	check(Inst{Op: J})
	check(Inst{Op: HALT})
	check(Inst{Op: FADD, Rd: F1, Rs1: F2, Rs2: F3}, F2, F3)
}

func TestHasDest(t *testing.T) {
	cases := map[bool][]Inst{
		true: {
			{Op: ADD, Rd: R1}, {Op: LI, Rd: R2}, {Op: LD, Rd: R3},
			{Op: JAL, Rd: R31}, {Op: FADD, Rd: F1},
		},
		false: {
			{Op: ADD, Rd: R0}, // writes to R0 are discarded
			{Op: SD}, {Op: BEQ}, {Op: J}, {Op: JR}, {Op: HALT}, {Op: NOP},
		},
	}
	for want, insts := range cases {
		for _, in := range insts {
			if got := in.HasDest(); got != want {
				t.Errorf("%v.HasDest() = %v, want %v", in, got, want)
			}
		}
	}
}

// flatMem is a trivial MemAccess for interpreter tests.
type flatMem map[uint64]byte

func (m flatMem) Load(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m[addr+uint64(i)]) << (8 * i)
	}
	return v
}

func (m flatMem) Store(addr uint64, size int, val uint64) {
	for i := 0; i < size; i++ {
		m[addr+uint64(i)] = byte(val >> (8 * i))
	}
}

func runProg(t *testing.T, insts []Inst) *Context {
	t.Helper()
	p := &Program{Name: "t", Insts: insts}
	c := NewContext(p, flatMem{})
	c.Run(10_000)
	if !c.Halted {
		t.Fatalf("program did not halt")
	}
	return c
}

func TestIntArithmetic(t *testing.T) {
	c := runProg(t, []Inst{
		{Op: LI, Rd: R1, Imm: 7},
		{Op: LI, Rd: R2, Imm: -3},
		{Op: ADD, Rd: R3, Rs1: R1, Rs2: R2},  // 4
		{Op: SUB, Rd: R4, Rs1: R1, Rs2: R2},  // 10
		{Op: MUL, Rd: R5, Rs1: R1, Rs2: R1},  // 49
		{Op: SLT, Rd: R6, Rs1: R2, Rs2: R1},  // 1 (signed -3 < 7)
		{Op: SLTU, Rd: R7, Rs1: R2, Rs2: R1}, // 0 (unsigned huge > 7)
		{Op: HALT},
	})
	want := map[Reg]uint64{R3: 4, R4: 10, R5: 49, R6: 1, R7: 0}
	for r, v := range want {
		if c.R[r] != v {
			t.Errorf("R%d = %d, want %d", r, int64(c.R[r]), v)
		}
	}
}

func TestDivByZeroYieldsZero(t *testing.T) {
	c := runProg(t, []Inst{
		{Op: LI, Rd: R1, Imm: 42},
		{Op: DIV, Rd: R2, Rs1: R1, Rs2: R0},
		{Op: REM, Rd: R3, Rs1: R1, Rs2: R0},
		{Op: HALT},
	})
	if c.R[R2] != 0 || c.R[R3] != 0 {
		t.Errorf("div/rem by zero: got %d, %d; want 0, 0", c.R[R2], c.R[R3])
	}
}

func TestR0Hardwired(t *testing.T) {
	c := runProg(t, []Inst{
		{Op: LI, Rd: R0, Imm: 99},
		{Op: ADDI, Rd: R1, Rs1: R0, Imm: 5},
		{Op: HALT},
	})
	if c.R[R0] != 0 {
		t.Errorf("R0 = %d after write, want 0", c.R[R0])
	}
	if c.R[R1] != 5 {
		t.Errorf("R1 = %d, want 5", c.R[R1])
	}
}

func TestFloatOps(t *testing.T) {
	bits := math.Float64bits
	c := runProg(t, []Inst{
		{Op: LI, Rd: R1, Imm: int64(bits(2.5))},
		{Op: LI, Rd: R2, Imm: int64(bits(4.0))},
		{Op: ADDI, Rd: 32 + 1, Rs1: R1}, // F1 = 2.5 via int move
		{Op: ADDI, Rd: 32 + 2, Rs1: R2}, // F2 = 4.0
		{Op: FADD, Rd: F3, Rs1: F1, Rs2: F2},
		{Op: FMUL, Rd: F4, Rs1: F1, Rs2: F2},
		{Op: FSQRT, Rd: F5, Rs1: F2},
		{Op: FLT, Rd: R5, Rs1: F1, Rs2: F2},
		{Op: HALT},
	})
	if got := math.Float64frombits(c.R[F3]); got != 6.5 {
		t.Errorf("fadd = %v, want 6.5", got)
	}
	if got := math.Float64frombits(c.R[F4]); got != 10.0 {
		t.Errorf("fmul = %v, want 10", got)
	}
	if got := math.Float64frombits(c.R[F5]); got != 2.0 {
		t.Errorf("fsqrt = %v, want 2", got)
	}
	if c.R[R5] != 1 {
		t.Errorf("flt = %d, want 1", c.R[R5])
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	c := runProg(t, []Inst{
		{Op: LI, Rd: R1, Imm: 0x1000},
		{Op: LI, Rd: R2, Imm: 0x1122334455667788},
		{Op: SD, Rs1: R1, Rs2: R2, Imm: 8},
		{Op: LD, Rd: R3, Rs1: R1, Imm: 8},
		{Op: LW, Rd: R4, Rs1: R1, Imm: 8},
		{Op: LH, Rd: R5, Rs1: R1, Imm: 8},
		{Op: LB, Rd: R6, Rs1: R1, Imm: 8},
		{Op: HALT},
	})
	if c.R[R3] != 0x1122334455667788 {
		t.Errorf("ld = %#x", c.R[R3])
	}
	if c.R[R4] != 0x55667788 {
		t.Errorf("lw = %#x (sub-word loads zero-extend)", c.R[R4])
	}
	if c.R[R5] != 0x7788 {
		t.Errorf("lh = %#x", c.R[R5])
	}
	if c.R[R6] != 0x88 {
		t.Errorf("lb = %#x", c.R[R6])
	}
}

func TestBranchesAndJumps(t *testing.T) {
	// Loop: sum 1..5 with BNE, then skip over a JAL/JR pair.
	c := runProg(t, []Inst{
		{Op: LI, Rd: R1, Imm: 5},              // 0: counter
		{Op: ADD, Rd: R2, Rs1: R2, Rs2: R1},   // 1: sum += counter
		{Op: ADDI, Rd: R1, Rs1: R1, Imm: -1},  // 2
		{Op: BNE, Rs1: R1, Rs2: R0, Imm: 1},   // 3: loop to 1
		{Op: JAL, Rd: R31, Imm: 6},            // 4: call 6, R31 = 5
		{Op: HALT},                            // 5
		{Op: ADDI, Rd: R3, Rs1: R2, Imm: 100}, // 6: callee
		{Op: JR, Rs1: R31},                    // 7: return to 5
	})
	if c.R[R2] != 15 {
		t.Errorf("loop sum = %d, want 15", c.R[R2])
	}
	if c.R[R3] != 115 {
		t.Errorf("callee result = %d, want 115", c.R[R3])
	}
	if c.R[R31] != 5 {
		t.Errorf("link = %d, want 5", c.R[R31])
	}
}

func TestHaltAndOutOfRange(t *testing.T) {
	p := &Program{Name: "t", Insts: []Inst{{Op: NOP}}}
	c := NewContext(p, flatMem{})
	n := c.Run(100)
	if n != 1 || !c.Halted {
		t.Errorf("run past end: n=%d halted=%v", n, c.Halted)
	}
	if _, ok := c.Step(); ok {
		t.Error("Step on halted context succeeded")
	}
}

// TestForkIsolation: a forked context diverges without touching the parent.
func TestForkIsolation(t *testing.T) {
	p := &Program{Name: "t", Insts: []Inst{
		{Op: ADDI, Rd: R1, Rs1: R1, Imm: 1},
		{Op: J, Imm: 0},
	}}
	parent := NewContext(p, flatMem{})
	parent.Step()
	// Fork into a used context: nothing of its old state may survive.
	child := &Context{PC: 99, Halted: true, Retired: 7}
	child.R[R2] = 5
	parent.ForkInto(child, flatMem{})
	if child.PC != parent.PC || child.Halted || child.R[R2] != 0 {
		t.Fatalf("forked context kept old state: pc %d halted %v r2 %d", child.PC, child.Halted, child.R[R2])
	}
	child.SetReg(R1, 100)
	for i := 0; i < 4; i++ {
		child.Step()
	}
	if parent.R[R1] != 1 {
		t.Errorf("parent R1 = %d, want 1", parent.R[R1])
	}
	if child.R[R1] != 102 {
		t.Errorf("child R1 = %d, want 102", child.R[R1])
	}
	if child.Retired != 4 || parent.Retired != 1 {
		t.Errorf("retired counts: parent %d (want 1), child %d (want 4)",
			parent.Retired, child.Retired)
	}
}

// Property: ALU results match direct Go computation for random operands.
func TestALUQuick(t *testing.T) {
	p := &Program{Name: "q", Insts: []Inst{
		{Op: ADD, Rd: R3, Rs1: R1, Rs2: R2},
		{Op: SUB, Rd: R4, Rs1: R1, Rs2: R2},
		{Op: MUL, Rd: R5, Rs1: R1, Rs2: R2},
		{Op: XOR, Rd: R6, Rs1: R1, Rs2: R2},
		{Op: SRL, Rd: R7, Rs1: R1, Rs2: R2},
		{Op: SRA, Rd: R8, Rs1: R1, Rs2: R2},
		{Op: HALT},
	}}
	f := func(a, b uint64) bool {
		c := NewContext(p, flatMem{})
		c.SetReg(R1, a)
		c.SetReg(R2, b)
		c.Run(100)
		return c.R[R3] == a+b &&
			c.R[R4] == a-b &&
			c.R[R5] == a*b &&
			c.R[R6] == a^b &&
			c.R[R7] == a>>(b&63) &&
			c.R[R8] == uint64(int64(a)>>(b&63))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: memory round trips through every access size.
func TestMemRoundTripQuick(t *testing.T) {
	f := func(addr uint64, val uint64, sizeSel uint8) bool {
		size := []int{1, 2, 4, 8}[sizeSel%4]
		addr %= 1 << 40
		m := flatMem{}
		m.Store(addr, size, val)
		got := m.Load(addr, size)
		want := val
		if size < 8 {
			want &= (1 << (8 * size)) - 1
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisasmSmoke(t *testing.T) {
	insts := []Inst{
		{Op: ADD, Rd: R1, Rs1: R2, Rs2: R3},
		{Op: LD, Rd: R1, Rs1: R2, Imm: 16},
		{Op: SD, Rs1: R2, Rs2: R3, Imm: -8},
		{Op: BEQ, Rs1: R1, Rs2: R2, Imm: 42},
		{Op: FADD, Rd: F1, Rs1: F2, Rs2: F3},
		{Op: LI, Rd: R9, Imm: 123},
		{Op: JAL, Rd: R31, Imm: 7},
		{Op: JR, Rs1: R31},
		{Op: HALT},
	}
	for _, in := range insts {
		if s := in.String(); s == "" || s == "op?" {
			t.Errorf("bad disasm for %#v: %q", in, s)
		}
	}
}
