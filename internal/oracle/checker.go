package oracle

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"mtvp/internal/isa"
	"mtvp/internal/mem"
)

// Record is one committed instruction as reported by the timing pipeline:
// which hardware context committed it (and that thread's speculation order),
// its global fetch sequence number, and the functional execution record the
// machine believes it committed.
type Record struct {
	Seq    uint64
	Thread int   // hardware context slot
	Order  int64 // thread speculation order (disambiguates slot reuse)
	Ex     isa.Exec
}

// Checker verifies the engine's useful commit stream against an Oracle in
// lockstep. The engine calls Note for every commit (useful or not yet known
// to be) to populate the per-thread history rings, and Verify for each
// commit once it is known to be useful, in program order. Verify steps the
// oracle one instruction and compares PC, next-PC, branch outcome, effective
// address, and destination/store value; the first mismatch produces a
// *Divergence whose report embeds the recent commit history of every thread.
type Checker struct {
	o       *Oracle
	rings   map[int]*ring
	threads []int // ring keys in first-seen order
	lastSeq uint64
	started bool
	fatal   *Divergence
}

// DefaultWindow is the per-thread commit history kept for divergence
// reports.
const DefaultWindow = 8

// NewChecker builds a lockstep checker over a private oracle. It remembers
// the last DefaultWindow commits of each hardware context for the
// divergence dump.
func NewChecker(prog *isa.Program, image *mem.Memory) *Checker {
	return &Checker{
		o:     New(prog, image),
		rings: make(map[int]*ring),
	}
}

// Oracle returns the checker's reference machine.
func (c *Checker) Oracle() *Oracle { return c.o }

// Verified returns how many useful commits have been checked so far.
func (c *Checker) Verified() uint64 { return c.o.ctx.Retired }

// Note records a commit in the reporting window without verifying it. The
// engine calls it for every commit, including commits of still-speculative
// threads that may later be discarded.
func (c *Checker) Note(r Record) {
	rg := c.rings[r.Thread]
	if rg == nil {
		rg = newRing(DefaultWindow)
		c.rings[r.Thread] = rg
		c.threads = append(c.threads, r.Thread)
	}
	rg.push(r)
}

// Verify checks one useful commit against the next oracle step. Calls must
// arrive in program order (strictly increasing Seq); the engine guarantees
// this by verifying a thread's commits only once all older threads' useful
// work has drained. A non-nil return is a *Divergence; once a divergence is
// recorded every later call returns the same error.
func (c *Checker) Verify(r Record) error {
	if c.fatal != nil {
		return c.fatal
	}
	if c.started && r.Seq <= c.lastSeq {
		return c.fail(r, isa.Exec{}, false,
			fmt.Sprintf("commit order violation: seq %d after seq %d", r.Seq, c.lastSeq))
	}
	c.started = true
	c.lastSeq = r.Seq

	want, ok := c.o.Step()
	if !ok {
		return c.fail(r, want, false,
			"oracle already halted: the machine committed a useful instruction past the end of the program")
	}
	if want == r.Ex {
		return nil
	}
	return c.fail(r, want, true, diffExec(r.Ex, want))
}

// Final compares end-of-run architectural state: the surviving thread's
// register file and the engine's memory image against the oracle's. It is
// meaningful only after the engine committed a HALT, which settles every
// surviving store into the image; if the oracle has not reached its own
// HALT (the commit stream was verified only as a prefix), Final reports
// that.
func (c *Checker) Final(regs [isa.NumRegs]uint64, image *mem.Memory) error {
	if c.fatal != nil {
		return c.fatal
	}
	if !c.o.Halted() {
		return fmt.Errorf("oracle: engine halted after %d verified commits but the oracle has not reached HALT (next pc %d)",
			c.Verified(), c.o.PC())
	}
	oregs := c.o.Regs()
	for r := 0; r < isa.NumRegs; r++ {
		if regs[r] != oregs[r] {
			return fmt.Errorf("oracle: final register %d = %#x, oracle has %#x", r, regs[r], oregs[r])
		}
	}
	if addr, diff := image.Diff(c.o.Mem()); diff {
		return fmt.Errorf("oracle: final memory differs at %#x: engine %#x, oracle %#x",
			addr, image.Load(addr, 8), c.o.Mem().Load(addr, 8))
	}
	return nil
}

func (c *Checker) fail(r Record, want isa.Exec, haveWant bool, reason string) error {
	d := &Divergence{
		N:       c.Verified(),
		Rec:     r,
		Want:    want,
		HasWant: haveWant,
		Reason:  reason,
		Dump:    c.dump(),
	}
	c.fatal = d
	return d
}

// dump renders the recent commit history of every hardware context.
func (c *Checker) dump() string {
	var b strings.Builder
	ids := append([]int(nil), c.threads...)
	sort.Ints(ids)
	for _, id := range ids {
		rg := c.rings[id]
		recs := rg.snapshot()
		fmt.Fprintf(&b, "  T%d (last %d commits):\n", id, len(recs))
		for _, r := range recs {
			fmt.Fprintf(&b, "    %s\n", formatRecord(r))
		}
	}
	return b.String()
}

// Divergence describes the first mismatch between the machine's useful
// commit stream and the oracle. Its Error string is a full report: the
// offending commit, the oracle's expectation, and the recent commit window
// of every hardware context.
type Divergence struct {
	N       uint64 // useful commits verified before this one
	Rec     Record // the machine's commit
	Want    isa.Exec
	HasWant bool // Want holds an oracle expectation (false for ordering faults)
	Reason  string
	Dump    string
}

func (d *Divergence) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "oracle divergence at useful commit #%d: %s\n", d.N, d.Reason)
	fmt.Fprintf(&b, "  got:  %s\n", formatRecord(d.Rec))
	if d.HasWant {
		fmt.Fprintf(&b, "  want: %s\n", formatExec(d.Want))
	}
	b.WriteString("recent commits by hardware context:\n")
	b.WriteString(d.Dump)
	return strings.TrimRight(b.String(), "\n")
}

// IsDivergence reports whether err's chain contains an oracle *Divergence.
// Callers distinguishing wrong-answer aborts (divergence) from exhausted
// recovery (a fault report) — exit codes, campaign assertions — use this
// rather than matching error strings.
func IsDivergence(err error) bool {
	var d *Divergence
	return errors.As(err, &d)
}

// diffExec names the mismatching fields between a committed execution
// record and the oracle's expectation for the same step.
func diffExec(got, want isa.Exec) string {
	var parts []string
	if got.PC != want.PC {
		parts = append(parts, fmt.Sprintf("pc %d != oracle %d", got.PC, want.PC))
	}
	if got.Inst != want.Inst {
		parts = append(parts, fmt.Sprintf("inst %q != oracle %q", got.Inst.String(), want.Inst.String()))
	}
	if got.NextPC != want.NextPC {
		parts = append(parts, fmt.Sprintf("next-pc %d != oracle %d", got.NextPC, want.NextPC))
	}
	if got.Taken != want.Taken {
		parts = append(parts, fmt.Sprintf("branch taken %v != oracle %v", got.Taken, want.Taken))
	}
	if got.Addr != want.Addr {
		parts = append(parts, fmt.Sprintf("addr %#x != oracle %#x", got.Addr, want.Addr))
	}
	if got.Value != want.Value {
		parts = append(parts, fmt.Sprintf("value %#x != oracle %#x", got.Value, want.Value))
	}
	if len(parts) == 0 {
		return "execution records differ"
	}
	return strings.Join(parts, "; ")
}

func formatRecord(r Record) string {
	return fmt.Sprintf("seq %-8d T%d/%d %s", r.Seq, r.Thread, r.Order, formatExec(r.Ex))
}

func formatExec(e isa.Exec) string {
	s := fmt.Sprintf("pc %-6d %-24s", e.PC, e.Inst.String())
	op := e.Inst.Op
	switch {
	case op.IsLoad():
		s += fmt.Sprintf(" [%#x] -> %#x", e.Addr, e.Value)
	case op.IsStore():
		s += fmt.Sprintf(" %#x -> [%#x]", e.Value, e.Addr)
	case op.IsBranch():
		s += fmt.Sprintf(" taken=%v next=%d", e.Taken, e.NextPC)
	case e.Inst.HasDest():
		s += fmt.Sprintf(" = %#x", e.Value)
	}
	return s
}

// ring is a fixed-capacity commit history.
type ring struct {
	buf  []Record
	next int
	full bool
}

func newRing(n int) *ring { return &ring{buf: make([]Record, n)} }

func (r *ring) push(rec Record) {
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// snapshot returns the ring's contents oldest-first.
func (r *ring) snapshot() []Record {
	if !r.full {
		return append([]Record(nil), r.buf[:r.next]...)
	}
	out := make([]Record, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}
