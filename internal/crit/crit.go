// Package crit implements the criticality predictors — load selectors — the
// paper uses to decide which confident value predictions are worth
// following, and in which mode (single-threaded or threaded).
//
// ILP-pred (§5.1) is the paper's implementable selector: per load PC it
// tracks the forward progress (issued instructions) and elapsed cycles
// between making a prediction of each type and confirming it, and allows a
// prediction type only when its average progress beats making no prediction.
// Averages use the paper's division-free approximation: the progress counter
// shifted down by the floor-log2 of the cycle counter.
package crit

import (
	"fmt"

	"mtvp/internal/cache"
	"mtvp/internal/config"
	"mtvp/internal/table"
)

// Decision is a load-selection outcome.
type Decision int

// Prediction modes a selector can choose for a confident load.
const (
	DecideNone Decision = iota
	DecideSTVP
	DecideMTVP
)

func (d Decision) String() string {
	switch d {
	case DecideSTVP:
		return "stvp"
	case DecideMTVP:
		return "mtvp"
	default:
		return "none"
	}
}

// Selector decides whether and how to follow a confident value prediction.
type Selector interface {
	// Select picks a mode for the confident load at pc. level is the
	// cache level the load would hit (oracle information — only the
	// L3-oracle selector may use it); mtvpOK reports whether a hardware
	// context is free to spawn.
	Select(pc uint64, level cache.HitLevel, mtvpOK bool) Decision
	// Observe records a resolved measurement window for pc: the mode
	// chosen, instructions issued, and cycles elapsed from prediction to
	// confirmation (or an equivalent no-prediction window).
	Observe(pc uint64, mode Decision, insts, cycles uint64)
}

// New builds the selector named by the configuration. Unknown kinds panic:
// Config.Validate rejects them with a structured error first, so reaching
// the panic means the config registry and this constructor switch disagree
// about what is registered.
func New(cfg *config.Config) Selector {
	switch cfg.VP.Selector {
	case config.SelILPPred:
		return NewILPPred(4096, cfg.VP.Mode)
	case config.SelL3Oracle:
		return &L3Oracle{Mode: cfg.VP.Mode}
	case config.SelAlways:
		return &Always{Mode: cfg.VP.Mode}
	default:
		panic(fmt.Sprintf("crit: no constructor for selector kind %d", int(cfg.VP.Selector)))
	}
}

// progress accumulates one mode's forward-progress statistics.
type progress struct {
	insts   uint64
	cycles  uint64
	samples uint32
}

// rate returns the mode's average forward progress per cycle, in 1/65536
// instruction units. The paper approximates this division in hardware by
// shifting the progress counter down by the largest power of two in the
// aggregate cycle count; that quantisation can misrank modes by up to 2x on
// short windows, so this software model divides exactly.
func (p progress) rate() uint64 {
	if p.cycles == 0 {
		return 0
	}
	return p.insts * 65536 / p.cycles
}

type ilpEntry struct {
	pc    uint64
	modes [3]progress // indexed by Decision
	seen  uint32
	valid bool
}

// ILPPred is the adaptive forward-progress selector. Because it needs
// no-prediction windows for comparison, it periodically forces a confident
// load to go unpredicted (one in every sampleEvery encounters).
type ILPPred struct {
	entries table.Paged[ilpEntry]
	mode    config.VPMode

	// minSamples is how many windows of a mode are gathered before its
	// measured rate can veto it; until then the mode is allowed
	// (optimistic start, as in the paper's warm-up behaviour).
	minSamples uint32
	// sampleEvery forces a no-prediction calibration window per PC.
	sampleEvery uint32
}

// NewILPPred returns an ILP-pred selector with the given table size.
// mode caps the most aggressive decision available.
func NewILPPred(entries int, mode config.VPMode) *ILPPred {
	return &ILPPred{
		entries:     table.New[ilpEntry](entries),
		mode:        mode,
		minSamples:  4,
		sampleEvery: 16,
	}
}

func (s *ILPPred) entry(pc uint64) *ilpEntry {
	e := s.entries.At(int(pc % uint64(s.entries.Len())))
	if !e.valid || e.pc != pc {
		*e = ilpEntry{pc: pc, valid: true}
	}
	return e
}

// Select implements Selector.
func (s *ILPPred) Select(pc uint64, _ cache.HitLevel, mtvpOK bool) Decision {
	e := s.entry(pc)
	e.seen++
	if e.seen%s.sampleEvery == 0 {
		return DecideNone // calibration window for the no-VP baseline
	}
	base := e.modes[DecideNone]
	allowed := func(d Decision) bool {
		m := e.modes[d]
		if m.samples < s.minSamples || base.samples < s.minSamples {
			return true // not enough data: stay optimistic
		}
		// Require a clear win, not a tie: spawning costs a context,
		// the register-map copy, and a front-end refill, so a mode
		// whose measured progress merely matches no-prediction loses.
		return m.rate() > base.rate()+base.rate()/8
	}
	if s.mode == config.VPMTVP && mtvpOK && allowed(DecideMTVP) {
		return DecideMTVP
	}
	if allowed(DecideSTVP) {
		return DecideSTVP
	}
	return DecideNone
}

// Observe implements Selector.
func (s *ILPPred) Observe(pc uint64, mode Decision, insts, cycles uint64) {
	e := s.entry(pc)
	m := &e.modes[mode]
	m.insts += insts
	m.cycles += cycles
	m.samples++
	// Periodically age the counters so the selector adapts to phase
	// changes instead of being dominated by stale history.
	if m.insts > 1<<40 || m.cycles > 1<<40 {
		m.insts >>= 1
		m.cycles >>= 1
	}
}

// L3Oracle is the expected-cache-behaviour selector of §5.1: loads that
// would miss to memory are followed in a thread, loads that miss the L1 are
// value predicted in place.
type L3Oracle struct {
	Mode config.VPMode
}

// Select implements Selector.
func (s *L3Oracle) Select(_ uint64, level cache.HitLevel, mtvpOK bool) Decision {
	switch {
	case level == cache.HitMem && s.Mode == config.VPMTVP && mtvpOK:
		return DecideMTVP
	case level >= cache.HitL2 || (level == cache.HitMem && s.Mode == config.VPSTVP):
		return DecideSTVP
	default:
		return DecideNone
	}
}

// Observe is a no-op: the oracle needs no feedback.
func (s *L3Oracle) Observe(uint64, Decision, uint64, uint64) {}

// Always follows every confident prediction, threaded when possible.
type Always struct {
	Mode config.VPMode
}

// Select implements Selector.
func (s *Always) Select(_ uint64, _ cache.HitLevel, mtvpOK bool) Decision {
	if s.Mode == config.VPMTVP && mtvpOK {
		return DecideMTVP
	}
	return DecideSTVP
}

// Observe is a no-op.
func (s *Always) Observe(uint64, Decision, uint64, uint64) {}

var (
	_ Selector = (*ILPPred)(nil)
	_ Selector = (*L3Oracle)(nil)
	_ Selector = (*Always)(nil)
)
