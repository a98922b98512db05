package core

import "mtvp/internal/config"

// Baseline returns the Table 1 machine with no value prediction — the
// denominator of every percent-speedup figure in the paper.
func Baseline() config.Config { return config.Baseline() }

// STVP returns the single-threaded value prediction machine with
// selective-reissue recovery.
func STVP(pred config.PredictorKind, sel config.SelectorKind) config.Config {
	return config.Baseline().WithSTVP(pred, sel)
}

// MTVP returns the single-fetch-path multithreaded value prediction machine
// with the given number of hardware contexts (the paper's default
// architecture; Figures 1–3).
func MTVP(contexts int, pred config.PredictorKind, sel config.SelectorKind) config.Config {
	return config.Baseline().WithMTVP(contexts, pred, sel)
}

// MTVPOracleLimit returns the §5.1 limit-study machine: oracle value
// predictor, 1-cycle spawn, unbounded store buffer.
func MTVPOracleLimit(contexts int) config.Config {
	cfg := config.Baseline().WithMTVP(contexts, config.PredOracle, config.SelILPPred)
	cfg.VP.SpawnLatency = 1
	cfg.VP.StoreBufEntries = 0 // unbounded
	return cfg
}

// STVPOracleLimit returns the single-threaded counterpart of the limit
// study.
func STVPOracleLimit() config.Config {
	cfg := config.Baseline().WithSTVP(config.PredOracle, config.SelILPPred)
	cfg.VP.StoreBufEntries = 0
	return cfg
}

// MTVPNoStall returns the Figure 4 machine: the parent thread keeps
// fetching after a spawn, with ICOUNT arbitrating between the streams.
func MTVPNoStall(contexts int, pred config.PredictorKind, sel config.SelectorKind) config.Config {
	cfg := config.Baseline().WithMTVP(contexts, pred, sel)
	cfg.VP.FetchPolicy = config.FetchNoStall
	return cfg
}

// MTVPMultiValue returns the §5.6 machine: several predicted values may be
// followed for one load, using a more liberal confidence bar for alternates
// and the L3-miss-oracle criticality predictor.
func MTVPMultiValue(contexts, maxValues, liberalThreshold int) config.Config {
	cfg := config.Baseline().WithMTVP(contexts, config.PredWangFranklin, config.SelL3Oracle)
	cfg.VP.MaxValuesPerLoad = maxValues
	cfg.VP.LiberalThreshold = liberalThreshold
	return cfg
}

// MTVPUnifiedSB returns the §3.3 single-fetch-path simplification of the
// store buffer: one tagged buffer (512 entries, accessible in L1 time)
// whose capacity is shared by all contexts, instead of a 128-entry private
// buffer per context.
func MTVPUnifiedSB(contexts, entries int) config.Config {
	cfg := config.Baseline().WithMTVP(contexts, config.PredWangFranklin, config.SelILPPred)
	cfg.VP.SharedStoreBufEntries = entries
	return cfg
}

// SpawnOnly returns the Figure 6 split-window machine: threads spawn at
// selected loads without value prediction, so only load-independent work
// proceeds past the stall.
func SpawnOnly(contexts int) config.Config {
	cfg := config.Baseline().SpawnOnly(contexts)
	cfg.VP.Selector = config.SelL3Oracle
	return cfg
}

// WideWindow returns the Figure 6 idealized checkpoint machine: an
// 8192-entry ROB, 8192-entry queues, and unlimited rename registers.
func WideWindow() config.Config { return config.Baseline().WideWindow() }

// WithFaults returns cfg with the named fault-injection profile armed,
// seeded for a reproducible campaign run.
func WithFaults(cfg config.Config, profile string, seed uint64) config.Config {
	cfg.Faults.Profile = profile
	cfg.Faults.Seed = seed
	return cfg
}

// Hardened returns cfg with the recovery controller tightened for campaign
// runs: a short watchdog so injected stalls are detected quickly, and a
// small deadlock budget so the degradation ladder is actually exercised.
func Hardened(cfg config.Config) config.Config {
	cfg.Recovery.WatchdogCycles = 4 * int64(cfg.MemLatency)
	cfg.Recovery.DeadlockBudget = 4
	cfg.Recovery.CooldownCommits = 20_000
	return cfg
}
