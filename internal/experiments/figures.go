package experiments

import (
	"fmt"
	"strings"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/stats"
	"mtvp/internal/workload"
)

// Table1 renders the simulated machine's architectural parameters in the
// layout of the paper's Table 1.
func Table1() string {
	c := core.Baseline()
	var b strings.Builder
	row := func(k, v string) { fmt.Fprintf(&b, "%-24s %s\n", k, v) }
	row("Pipeline Depth", fmt.Sprintf("%d stages (front end %d)", 2*c.FrontEndDepth, c.FrontEndDepth))
	row("Fetch Bandwidth", fmt.Sprintf("%d total instructions from %d cachelines", c.FetchWidth, c.FetchBlocks))
	row("Branch Predictor", fmt.Sprintf("2bcgskew: %dK meta and gshare, %dK bimodal",
		c.Branch.MetaEntries>>10, c.Branch.BimodalEntries>>10))
	row("Stride Prefetcher", fmt.Sprintf("PC based, %d entries, %d stream buffers",
		c.Prefetch.Entries, c.Prefetch.StreamBuffers))
	row("ROB Size", fmt.Sprintf("%d entries", c.ROBSize))
	row("Rename Registers", fmt.Sprintf("%d", c.RenameRegs))
	row("Queue Sizes", fmt.Sprintf("%d entries each IQ, FQ, MQ", c.IQSize))
	row("Issue Bandwidth", fmt.Sprintf("%d per cycle: up to %d int, %d FP, %d load/store",
		c.IssueWidth, c.IntIssue, c.FPIssue, c.MemIssue))
	row("ICache", fmt.Sprintf("%dKB %d-way, %d cycles", c.ICache.SizeBytes>>10, c.ICache.Assoc, c.ICache.Latency))
	row("L1 DCache", fmt.Sprintf("%dKB %d-way, %d cycles", c.DL1.SizeBytes>>10, c.DL1.Assoc, c.DL1.Latency))
	row("L2 Cache", fmt.Sprintf("%dKB %d-way, %d cycles", c.L2.SizeBytes>>10, c.L2.Assoc, c.L2.Latency))
	row("L3 Cache", fmt.Sprintf("%dMB %d-way, %d cycles", c.L3.SizeBytes>>20, c.L3.Assoc, c.L3.Latency))
	row("Main Memory Latency", fmt.Sprintf("%d cycles", c.MemLatency))
	return b.String()
}

// Fig1 regenerates Figure 1: oracle value prediction, ILP-pred selection,
// STVP vs MTVP with 2, 4, and 8 contexts, 1-cycle spawn, unbounded store
// buffer — percent change in useful IPC over the no-VP baseline.
func Fig1(o Options) ([]*stats.Table, error) {
	machines := []config.Config{
		core.STVPOracleLimit(),
		core.MTVPOracleLimit(2),
		core.MTVPOracleLimit(4),
		core.MTVPOracleLimit(8),
	}
	cols := []string{"stvp", "mtvp2", "mtvp4", "mtvp8"}
	benches := o.benches()
	ipc, err := o.sweep("fig1", cols, benches, machines)
	if err != nil {
		return nil, err
	}
	return speedupTables("Figure 1: oracle value prediction (ILP-pred)", cols, benches, ipc), nil
}

// Fig2 regenerates Figure 2: the Figure 1 machines swept over thread spawn
// latencies of 1, 8, and 16 cycles, reported as suite averages.
func Fig2(o Options) ([]*stats.Table, error) {
	var out []*stats.Table
	for _, lat := range []int{1, 8, 16} {
		mk := func(contexts int) config.Config {
			c := core.MTVPOracleLimit(contexts)
			c.VP.SpawnLatency = lat
			return c
		}
		machines := []config.Config{core.STVPOracleLimit(), mk(2), mk(4), mk(8)}
		benches := o.benches()
		cols := []string{"stvp", "mtvp2", "mtvp4", "mtvp8"}
		ipc, err := o.sweep(fmt.Sprintf("fig2-lat%d", lat), cols, benches, machines)
		if err != nil {
			return nil, err
		}
		per := speedupTables("", cols, benches, ipc)
		avg := averagesOnly(fmt.Sprintf("Figure 2: spawn latency %d cycles", lat), cols, per)
		out = append(out, avg)
	}
	return out, nil
}

// StoreBufferSweep regenerates the §5.3 result: MTVP4 with the realistic
// predictor, varying the per-context store buffer size. Performance should
// tail off at 64 entries and below, with 128 close to unbounded.
func StoreBufferSweep(o Options) (*stats.Table, error) {
	sizes := []int{16, 32, 64, 128, 256, 512, 0}
	var machines []config.Config
	var cols []string
	for _, s := range sizes {
		c := core.MTVP(4, config.PredWangFranklin, config.SelILPPred)
		c.VP.StoreBufEntries = s
		machines = append(machines, c)
		if s == 0 {
			cols = append(cols, "unbounded")
		} else {
			cols = append(cols, fmt.Sprintf("sb%d", s))
		}
	}
	// Include a kernel where the buffer genuinely binds — a long resident
	// stretch (many stores) between predictable long-latency loads — in
	// addition to the regular suite, whose high spawn density keeps
	// per-thread store counts low.
	benches := append(o.benches(), workload.ResidentMiss)
	ipc, err := o.sweep("sb", cols, benches, machines)
	if err != nil {
		return nil, err
	}
	per := speedupTables("", cols, benches, ipc)
	return averagesOnly("Section 5.3: store buffer size sweep (mtvp4, Wang-Franklin)", cols, per), nil
}

// Fig3 regenerates Figure 3: the realistic Wang–Franklin hybrid predictor,
// 8-cycle spawn, 128-entry store buffers.
func Fig3(o Options) ([]*stats.Table, error) {
	machines := []config.Config{
		core.STVP(config.PredWangFranklin, config.SelILPPred),
		core.MTVP(2, config.PredWangFranklin, config.SelILPPred),
		core.MTVP(4, config.PredWangFranklin, config.SelILPPred),
		core.MTVP(8, config.PredWangFranklin, config.SelILPPred),
	}
	cols := []string{"stvp", "mtvp2", "mtvp4", "mtvp8"}
	benches := o.benches()
	ipc, err := o.sweep("fig3", cols, benches, machines)
	if err != nil {
		return nil, err
	}
	return speedupTables("Figure 3: Wang-Franklin hybrid predictor", cols, benches, ipc), nil
}

// DFCMCompare regenerates the §5.4 text result: the order-3 DFCM predictor
// against Wang–Franklin, both under STVP and MTVP4.
func DFCMCompare(o Options) ([]*stats.Table, error) {
	machines := []config.Config{
		core.STVP(config.PredWangFranklin, config.SelILPPred),
		core.STVP(config.PredDFCM, config.SelILPPred),
		core.MTVP(4, config.PredWangFranklin, config.SelILPPred),
		core.MTVP(4, config.PredDFCM, config.SelILPPred),
	}
	cols := []string{"stvp-wf", "stvp-dfcm", "mtvp4-wf", "mtvp4-dfcm"}
	benches := o.benches()
	ipc, err := o.sweep("dfcm", cols, benches, machines)
	if err != nil {
		return nil, err
	}
	per := speedupTables("", cols, benches, ipc)
	return []*stats.Table{averagesOnly("Section 5.4: DFCM-3 vs Wang-Franklin", cols, per)}, nil
}

// Fig4 regenerates Figure 4: allowing the parent thread to keep fetching
// after a spawn (ICOUNT arbitration) against the single-fetch-path default.
func Fig4(o Options) ([]*stats.Table, error) {
	machines := []config.Config{
		core.STVP(config.PredWangFranklin, config.SelILPPred),
		core.MTVP(4, config.PredWangFranklin, config.SelILPPred),
		core.MTVPNoStall(4, config.PredWangFranklin, config.SelILPPred),
		core.MTVP(8, config.PredWangFranklin, config.SelILPPred),
		core.MTVPNoStall(8, config.PredWangFranklin, config.SelILPPred),
	}
	cols := []string{"stvp", "mtvp4-sfp", "mtvp4-nostall", "mtvp8-sfp", "mtvp8-nostall"}
	benches := o.benches()
	ipc, err := o.sweep("fig4", cols, benches, machines)
	if err != nil {
		return nil, err
	}
	return speedupTables("Figure 4: fetch policy (single fetch path vs no-stall)", cols, benches, ipc), nil
}

// Fig5 regenerates Figure 5: of the followed predictions that were wrong,
// the fraction of all followed predictions for which the correct value was
// nonetheless in the predictor and over threshold.
func Fig5(o Options) ([]*stats.Table, error) {
	benches := o.benches()
	cells, err := o.grid("fig5", []string{"mtvp8-wf"}, benches,
		[]config.Config{core.MTVP(8, config.PredWangFranklin, config.SelILPPred)})
	if err != nil {
		return nil, err
	}
	var tables []*stats.Table
	for _, suite := range []workload.Suite{workload.INT, workload.FP} {
		t := &stats.Table{
			Title:   fmt.Sprintf("Figure 5: wrong primary, correct value present and over threshold — %s", suite),
			Columns: []string{"fraction"},
		}
		for bi, b := range benches {
			if b.Suite != suite {
				continue
			}
			st := &cells[bi][0].Stats
			frac := 0.0
			if st.VPPredicted > 0 {
				frac = float64(st.VPWrongButPresent) / float64(st.VPPredicted)
			}
			t.Add(b.Name, frac)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// MultiValue regenerates the §5.6 result: multiple-value MTVP with a more
// liberal alternate threshold and the L3-miss-oracle criticality predictor,
// against the best single-value configuration.
func MultiValue(o Options) ([]*stats.Table, error) {
	machines := []config.Config{
		core.MTVP(8, config.PredWangFranklin, config.SelILPPred), // best single-value
		core.MTVPMultiValue(8, 2, 6),
		core.MTVPMultiValue(8, 3, 4),
	}
	cols := []string{"mtvp8-1val", "mv-2val", "mv-3val"}
	benches := o.benches()
	ipc, err := o.sweep("multival", cols, benches, machines)
	if err != nil {
		return nil, err
	}
	return speedupTables("Section 5.6: multiple-value MTVP", cols, benches, ipc), nil
}

// Fig6 regenerates Figure 6: the idealized wide-window (checkpoint) machine
// with an 8K ROB and unlimited rename registers, the best MTVP machine, and
// the spawn-only (split-window, no value prediction) machine.
func Fig6(o Options) ([]*stats.Table, error) {
	machines := []config.Config{
		core.WideWindow(),
		core.MTVP(8, config.PredWangFranklin, config.SelILPPred),
		core.SpawnOnly(8),
	}
	cols := []string{"wide-window", "best-mtvp", "spawn-only"}
	benches := o.benches()
	ipc, err := o.sweep("fig6", cols, benches, machines)
	if err != nil {
		return nil, err
	}
	per := speedupTables("", cols, benches, ipc)
	avg := averagesOnly("Figure 6: wide window vs MTVP vs spawn-only", cols, per)
	return append(per, avg), nil
}

// PrefetchAblation runs the design-choice ablation DESIGN.md calls out: the
// paper notes MTVP gains are larger and more consistent without the stride
// prefetcher; this measures both machines with it disabled.
func PrefetchAblation(o Options) ([]*stats.Table, error) {
	noPref := func(c config.Config) config.Config {
		c.Prefetch.Enabled = false
		return c
	}
	base := noPref(core.Baseline())
	machines := []config.Config{
		noPref(core.STVP(config.PredWangFranklin, config.SelILPPred)),
		noPref(core.MTVP(8, config.PredWangFranklin, config.SelILPPred)),
	}
	cols := []string{"stvp", "mtvp8"}
	benches := o.benches()
	ipc, err := o.sweepAgainst("prefetch", cols, base, benches, machines)
	if err != nil {
		return nil, err
	}
	per := speedupTables("", cols, benches, ipc)
	return []*stats.Table{averagesOnly("Ablation: prefetcher disabled", cols, per)}, nil
}

// StoreBufferOrg compares the two §3.2/§3.3 store-buffer organisations:
// a private 128-entry buffer per context versus a single unified tagged
// buffer (512 entries shared), plus an undersized unified buffer to show
// where sharing binds.
func StoreBufferOrg(o Options) ([]*stats.Table, error) {
	machines := []config.Config{
		core.MTVP(8, config.PredWangFranklin, config.SelILPPred), // private 128
		core.MTVPUnifiedSB(8, 512),
		core.MTVPUnifiedSB(8, 128),
	}
	cols := []string{"private-128", "unified-512", "unified-128"}
	benches := o.benches()
	ipc, err := o.sweep("sborg", cols, benches, machines)
	if err != nil {
		return nil, err
	}
	per := speedupTables("", cols, benches, ipc)
	return []*stats.Table{averagesOnly("Ablation: store buffer organisation (mtvp8, Wang-Franklin)", cols, per)}, nil
}

// SelectorCompare runs the §5.1 selector comparison: ILP-pred against the
// L3-miss oracle and an unconditional selector, under MTVP8 oracle.
func SelectorCompare(o Options) ([]*stats.Table, error) {
	mk := func(sel config.SelectorKind) config.Config {
		c := core.MTVPOracleLimit(8)
		c.VP.Selector = sel
		return c
	}
	machines := []config.Config{
		mk(config.SelILPPred),
		mk(config.SelL3Oracle),
		mk(config.SelAlways),
	}
	cols := []string{"ilp-pred", "l3-oracle", "always"}
	benches := o.benches()
	ipc, err := o.sweep("selector", cols, benches, machines)
	if err != nil {
		return nil, err
	}
	per := speedupTables("", cols, benches, ipc)
	return []*stats.Table{averagesOnly("Ablation: criticality selector (mtvp8, oracle values)", cols, per)}, nil
}
