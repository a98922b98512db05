// Package config defines the architectural parameters of the simulated
// machine. The defaults returned by Baseline reproduce Table 1 of Tuck &
// Tullsen, "Multithreaded Value Prediction" (HPCA-11, 2005); preset helpers
// derive the paper's other machine configurations (STVP, MTVP, spawn-only,
// idealized wide-window) from it.
package config

import "fmt"

// CacheParams describes one cache level.
type CacheParams struct {
	Name      string
	SizeBytes int
	Assoc     int
	LineBytes int
	Latency   int // access latency in cycles on a hit
}

// Sets returns the number of sets implied by size, associativity, and line
// size.
func (c CacheParams) Sets() int {
	return c.SizeBytes / (c.Assoc * c.LineBytes)
}

// PrefetchParams configures the PC-based stride prefetcher of Table 1.
type PrefetchParams struct {
	Enabled       bool
	Entries       int // PC-indexed stride table entries (256)
	StreamBuffers int // concurrent stream buffers (8)
}

// BranchParams sizes the 2bcgskew predictor of Table 1.
type BranchParams struct {
	MetaEntries    int // meta chooser (64K)
	GshareEntries  int // gshare/gskew tables (64K)
	BimodalEntries int // bimodal table (16K)
}

// VPMode selects the value-prediction architecture.
type VPMode int

// Value-prediction architectures evaluated in the paper.
const (
	// VPNone disables value prediction (the baseline machine).
	VPNone VPMode = iota
	// VPSTVP is traditional single-threaded value prediction with
	// selective-reissue recovery.
	VPSTVP
	// VPMTVP is threaded value prediction: predicted loads spawn a
	// speculative hardware thread that may commit past the load.
	// Single-thread predictions are still made when no context is free.
	VPMTVP
)

func (m VPMode) String() string {
	switch m {
	case VPSTVP:
		return "stvp"
	case VPMTVP:
		return "mtvp"
	default:
		return "novp"
	}
}

// PredictorKind names a value predictor implementation.
type PredictorKind int

// Value predictors implemented in internal/vpred.
const (
	PredOracle PredictorKind = iota // always-correct (limit study)
	PredWangFranklin
	PredDFCM

	predKinds // sentinel: number of predictor kinds
)

func (k PredictorKind) String() string {
	if k < 0 || k >= predKinds {
		return "pred?"
	}
	return predictorNames[k]
}

// SelectorKind names a criticality (load-selection) predictor.
type SelectorKind int

// Criticality predictors implemented in internal/crit.
const (
	// SelILPPred tracks per-PC forward progress for each prediction mode
	// and only allows modes that beat no-prediction (the paper's default).
	SelILPPred SelectorKind = iota
	// SelL3Oracle predicts loads that miss to memory (MTVP) or miss in
	// the L1 (STVP), using oracle cache knowledge.
	SelL3Oracle
	// SelAlways predicts every confident load.
	SelAlways

	selKinds // sentinel: number of selector kinds
)

func (k SelectorKind) String() string {
	if k < 0 || k >= selKinds {
		return "sel?"
	}
	return selectorNames[k]
}

// FetchPolicy selects what the spawning thread does after an MTVP spawn.
type FetchPolicy int

const (
	// FetchSFP is single fetch path MTVP: the parent stops fetching until
	// its prediction is confirmed (the paper's default and best policy).
	FetchSFP FetchPolicy = iota
	// FetchNoStall lets the parent keep fetching, with ICOUNT arbitrating
	// between parent and children (shown counterproductive in Figure 4).
	FetchNoStall
)

func (p FetchPolicy) String() string {
	if p == FetchNoStall {
		return "no-stall"
	}
	return "sfp"
}

// The predictor parameter structs below hold only table sizes. Confidence
// counters and thresholds are constants in internal/vpred, beside the
// predictor that reads them.

// WangFranklinParams sizes the hybrid Wang–Franklin predictor (§5.4).
type WangFranklinParams struct {
	VHTEntries    int // value history table (4K)
	ValPHTEntries int // value pattern history table (32K)
}

// DFCMParams sizes the order-3 differential FCM predictor with Burtscher's
// improved index function.
type DFCMParams struct {
	L1Entries int
	L2Entries int
}

// VPParams configures value prediction and the MTVP machinery.
type VPParams struct {
	Mode      VPMode
	Predictor PredictorKind
	Selector  SelectorKind

	// SpawnLatency is the cycles needed to flash-copy the register map
	// and spawn a thread (1, 8, or 16 in §5.2).
	SpawnLatency int
	// StoreBufEntries bounds each speculative context's private store
	// buffer; 0 means unbounded (the oracle limit study of §5.1).
	StoreBufEntries int
	// SharedStoreBufEntries, when above 0, switches to the §3.3
	// single-fetch-path simplification: one tagged store buffer of this
	// many entries shared by all contexts, in place of a private buffer per
	// context. 0 means private buffers.
	SharedStoreBufEntries int
	FetchPolicy           FetchPolicy

	// MaxValuesPerLoad bounds the predicted values followed for one load,
	// one spawned child each. Above 1 it is the multi-value machine of
	// §5.6, which also follows confident alternates; 1 (the baseline)
	// follows only the primary prediction.
	MaxValuesPerLoad int
	// LiberalThreshold, when nonzero, lowers the confidence threshold for
	// secondary values in multi-value mode (the "more liberal predictor").
	LiberalThreshold int

	// SpawnOnly spawns a thread at a selected load without substituting a
	// predicted value: dependents wait for the real load, only independent
	// work proceeds (the "split-window" comparison of Figure 6).
	SpawnOnly bool

	WF   WangFranklinParams
	DFCM DFCMParams
}

// FaultParams selects a deterministic fault-injection campaign. Faults are
// microarchitectural only — they corrupt speculation metadata and timing
// state, never architectural values — so a checked run under any profile
// must either recover to an oracle-clean finish or abort with a structured
// fault report.
type FaultParams struct {
	// Profile names a built-in fault profile from internal/fault ("" or
	// "none" disables injection).
	Profile string
	// Seed seeds the injector's RNG stream (0 picks a fixed default), so a
	// campaign run is exactly reproducible from (Profile, Seed).
	Seed uint64
}

// RecoveryParams tunes the engine's recovery controller: the deadlock
// watchdog's retry budget and backoff, the per-context misprediction-storm
// quarantine, and the graceful-degradation ladder.
type RecoveryParams struct {
	// WatchdogCycles is the base commit-progress watchdog: cycles with no
	// useful commit before the controller intervenes. 0 selects the
	// default of 4*MemLatency + 50_000. Repeated breaks back the watchdog
	// off exponentially up to 8x this base.
	WatchdogCycles int64
	// DeadlockBudget bounds consecutive deadlock-break recoveries before
	// the controller escalates to degradation (0 selects the default of
	// 8); the budget refills after sustained commit progress.
	DeadlockBudget int
	// CooldownCommits is the clean-commit cool-down after which a degraded
	// context earns one speculation level back (0 selects 50_000).
	CooldownCommits uint64
}

// Config holds every architectural parameter of the simulated machine.
type Config struct {
	// Front end.
	FetchWidth    int // instructions fetched per cycle (16)
	FetchBlocks   int // cache lines fetchable per cycle (2)
	FrontEndDepth int // fetch-to-dispatch stages; sets mispredict cost
	Contexts      int // hardware thread contexts (1, 2, 4, 8)

	// Window.
	ROBSize    int // shared reorder buffer entries (256)
	RenameRegs int // shared rename registers beyond architectural (224)
	IQSize     int // integer queue (64)
	FQSize     int // FP queue (64)
	MQSize     int // memory queue (64)

	// Issue. Dispatch/commit bandwidth and the functional-unit latencies,
	// which Table 1 does not give, are constants in internal/pipeline
	// (DESIGN.md §6).
	IssueWidth int // total issue bandwidth (8)
	IntIssue   int // integer issue slots (6)
	FPIssue    int // FP issue slots (2)
	MemIssue   int // load/store issue slots (4)

	// Memory hierarchy.
	ICache     CacheParams
	DL1        CacheParams
	L2         CacheParams
	L3         CacheParams
	MemLatency int // main memory (1000)

	Prefetch PrefetchParams
	Branch   BranchParams
	VP       VPParams

	// Run limits.
	MaxInsts  uint64 // stop after this many useful committed instructions
	MaxCycles uint64 // hard safety stop

	// Differential checking (observational; not part of the modelled
	// machine). Check runs a lockstep in-order oracle alongside the
	// pipeline, verifying every useful committed instruction's PC,
	// destination value, and store address/data, and enables the pipeline
	// invariant auditor. A divergence or invariant violation fails the run
	// with a windowed dump of each thread's last oracle.DefaultWindow
	// commits.
	Check bool

	// Observe, when non-nil, is polled by the engine every ~1024 simulated
	// cycles with the current cycle and useful-commit counts. Returning
	// false cancels the run: the engine stops at the next poll and returns
	// pipeline.ErrCanceled. Like Check and tracing it is observational —
	// not part of the modelled machine — and it must be fast and must not
	// block: the campaign harness (internal/harness) uses it to feed its
	// simulated-cycle progress watchdog and to propagate context
	// cancellation (deadlines, stall kills, SIGINT) into a running
	// simulation. Excluded from JSON: a Config must serialize so the
	// distributed sweep fabric (internal/fabric) can ship fully-resolved
	// machine configs to remote workers, and hooks are per-process anyway
	// (each worker installs its own Observe for heartbeating).
	Observe func(cycles, commits uint64) (keepRunning bool) `json:"-"`

	// Robustness: fault injection and the recovery controller.
	Faults   FaultParams
	Recovery RecoveryParams

	// PerCycle executes every simulated cycle instead of jumping the
	// event-driven calendar (pipeline/events.go) over provably inert
	// spans. It is the bit-identical reference the calendar is tested
	// against: every simulated outcome is the same either way
	// (test-enforced), only host time differs. Tests and
	// `mtvpsim -engine cycle` select it.
	PerCycle bool
}

// Baseline returns the Table 1 machine with value prediction disabled.
func Baseline() Config {
	return Config{
		FetchWidth:    16,
		FetchBlocks:   2,
		FrontEndDepth: 15, // half of the 30-stage pipe is the front end
		Contexts:      1,

		ROBSize:    256,
		RenameRegs: 224,
		IQSize:     64,
		FQSize:     64,
		MQSize:     64,

		IssueWidth: 8,
		IntIssue:   6,
		FPIssue:    2,
		MemIssue:   4,

		ICache:     CacheParams{Name: "IL1", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64, Latency: 2},
		DL1:        CacheParams{Name: "DL1", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64, Latency: 2},
		L2:         CacheParams{Name: "L2", SizeBytes: 512 << 10, Assoc: 8, LineBytes: 64, Latency: 20},
		L3:         CacheParams{Name: "L3", SizeBytes: 4 << 20, Assoc: 16, LineBytes: 64, Latency: 50},
		MemLatency: 1000,

		Prefetch: PrefetchParams{
			Enabled:       true,
			Entries:       256,
			StreamBuffers: 8,
		},
		Branch: BranchParams{
			MetaEntries:    64 << 10,
			GshareEntries:  64 << 10,
			BimodalEntries: 16 << 10,
		},
		VP: VPParams{
			Mode:             VPNone,
			Predictor:        PredWangFranklin,
			Selector:         SelILPPred,
			SpawnLatency:     8,
			StoreBufEntries:  128,
			FetchPolicy:      FetchSFP,
			MaxValuesPerLoad: 1,
			WF:               DefaultWF(),
			DFCM:             DefaultDFCM(),
		},

		MaxInsts:  500_000,
		MaxCycles: 80_000_000,
	}
}

// DefaultWF returns the paper's Wang–Franklin predictor sizing (§5.4).
func DefaultWF() WangFranklinParams {
	return WangFranklinParams{
		VHTEntries:    4096,
		ValPHTEntries: 32768,
	}
}

// DefaultDFCM returns the order-3 DFCM sizing comparable to the WF tables.
func DefaultDFCM() DFCMParams {
	return DFCMParams{
		L1Entries: 4096,
		L2Entries: 32768,
	}
}

// WithSTVP returns a copy configured for single-threaded value prediction.
func (c Config) WithSTVP(pred PredictorKind, sel SelectorKind) Config {
	c.VP.Mode = VPSTVP
	c.VP.Predictor = pred
	c.VP.Selector = sel
	c.Contexts = 1
	return c
}

// WithMTVP returns a copy configured for multithreaded value prediction with
// the given number of hardware contexts.
func (c Config) WithMTVP(contexts int, pred PredictorKind, sel SelectorKind) Config {
	c.VP.Mode = VPMTVP
	c.VP.Predictor = pred
	c.VP.Selector = sel
	c.Contexts = contexts
	return c
}

// WideWindow returns the idealized checkpoint machine of §5.7: an 8192-entry
// ROB, 8192-entry queues, and effectively unlimited rename registers, with no
// value prediction.
func (c Config) WideWindow() Config {
	c.VP.Mode = VPNone
	c.Contexts = 1
	c.ROBSize = 8192
	c.IQSize = 8192
	c.FQSize = 8192
	c.MQSize = 8192
	c.RenameRegs = 1 << 20
	return c
}

// SpawnOnly returns the split-window comparison machine of Figure 6: threads
// are spawned at selected loads but no value is predicted.
func (c Config) SpawnOnly(contexts int) Config {
	c.VP.Mode = VPMTVP
	c.VP.SpawnOnly = true
	c.Contexts = contexts
	return c
}

// Validate checks the configuration for inconsistencies.
func (c *Config) Validate() error {
	switch {
	case c.Contexts < 1:
		return fmt.Errorf("config: Contexts must be >= 1, got %d", c.Contexts)
	case c.FetchWidth < 1:
		return fmt.Errorf("config: FetchWidth must be >= 1, got %d", c.FetchWidth)
	case c.ROBSize < 1 || c.IQSize < 1 || c.FQSize < 1 || c.MQSize < 1:
		return fmt.Errorf("config: window sizes must be >= 1")
	case c.IssueWidth < 1:
		return fmt.Errorf("config: IssueWidth must be >= 1, got %d", c.IssueWidth)
	case c.MemLatency < 1:
		return fmt.Errorf("config: MemLatency must be >= 1, got %d", c.MemLatency)
	case c.VP.Mode == VPMTVP && c.Contexts < 2 && !c.VP.SpawnOnly:
		return fmt.Errorf("config: MTVP needs >= 2 contexts, got %d", c.Contexts)
	case c.VP.Mode < VPNone || c.VP.Mode > VPMTVP:
		return fmt.Errorf("config: unknown VP.Mode %d", int(c.VP.Mode))
	case c.VP.Predictor < 0 || c.VP.Predictor >= predKinds:
		return &UnknownNameError{What: "predictor", Name: fmt.Sprintf("#%d", int(c.VP.Predictor)), Valid: PredictorNames()}
	case c.VP.Selector < 0 || c.VP.Selector >= selKinds:
		return &UnknownNameError{What: "selector", Name: fmt.Sprintf("#%d", int(c.VP.Selector)), Valid: SelectorNames()}
	case c.VP.FetchPolicy < FetchSFP || c.VP.FetchPolicy > FetchNoStall:
		return fmt.Errorf("config: unknown VP.FetchPolicy %d", int(c.VP.FetchPolicy))
	case c.VP.SpawnLatency < 0:
		return fmt.Errorf("config: SpawnLatency must be >= 0")
	case c.Recovery.WatchdogCycles < 0:
		return fmt.Errorf("config: Recovery.WatchdogCycles must be >= 0, got %d", c.Recovery.WatchdogCycles)
	case c.Recovery.DeadlockBudget < 0:
		return fmt.Errorf("config: Recovery.DeadlockBudget must be >= 0, got %d", c.Recovery.DeadlockBudget)
	}
	for _, cp := range []CacheParams{c.ICache, c.DL1, c.L2, c.L3} {
		if err := cp.validate(); err != nil {
			return err
		}
	}
	for _, t := range c.tableSizes() {
		if t.entries < 1 {
			return fmt.Errorf("config: %s must be >= 1, got %d", t.name, t.entries)
		}
	}
	return nil
}

// validate checks one cache level's geometry. Sets divides by Assoc and
// LineBytes, and the hierarchy derives line and set indexes by shifting
// and masking, so both the line size and the set count must be powers of
// two.
func (cp CacheParams) validate() error {
	switch {
	case cp.Assoc < 1:
		return fmt.Errorf("config: cache %s Assoc must be >= 1, got %d", cp.Name, cp.Assoc)
	case cp.LineBytes < 1 || cp.LineBytes&(cp.LineBytes-1) != 0:
		return fmt.Errorf("config: cache %s LineBytes %d is not a power of two", cp.Name, cp.LineBytes)
	case cp.Sets() < 1:
		return fmt.Errorf("config: cache %s has no sets", cp.Name)
	case cp.Sets()&(cp.Sets()-1) != 0:
		return fmt.Errorf("config: cache %s set count %d is not a power of two", cp.Name, cp.Sets())
	}
	return nil
}

type tableSize struct {
	name    string
	entries int
}

// tableSizes lists the entry counts of the branch predictor, the enabled
// prefetcher and the selected Wang–Franklin or DFCM value predictor.
func (c *Config) tableSizes() []tableSize {
	ts := []tableSize{
		{"Branch.MetaEntries", c.Branch.MetaEntries},
		{"Branch.GshareEntries", c.Branch.GshareEntries},
		{"Branch.BimodalEntries", c.Branch.BimodalEntries},
	}
	if c.Prefetch.Enabled {
		ts = append(ts,
			tableSize{"Prefetch.Entries", c.Prefetch.Entries},
			tableSize{"Prefetch.StreamBuffers", c.Prefetch.StreamBuffers})
	}
	switch c.VP.Predictor {
	case PredWangFranklin:
		ts = append(ts,
			tableSize{"VP.WF.VHTEntries", c.VP.WF.VHTEntries},
			tableSize{"VP.WF.ValPHTEntries", c.VP.WF.ValPHTEntries})
	case PredDFCM:
		ts = append(ts,
			tableSize{"VP.DFCM.L1Entries", c.VP.DFCM.L1Entries},
			tableSize{"VP.DFCM.L2Entries", c.VP.DFCM.L2Entries})
	}
	return ts
}
