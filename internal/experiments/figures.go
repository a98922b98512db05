package experiments

import (
	"fmt"
	"slices"
	"strings"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/fabric"
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

// A sweep runs every benchmark on each labelled machine. Its cells are
// keyed "<name>/<bench>/<label>". A speedup sweep's first machine is its
// baseline, labelled "base".
type sweep struct {
	name   string
	labels []string
	cfgs   []config.Config
	extra  []workload.Benchmark // run after the options' benchmarks
}

// speedupSweep is the sweep of the Table 1 baseline plus each machine,
// cols labelling the machines.
func speedupSweep(name string, cols []string, machines ...config.Config) sweep {
	return sweep{
		name:   name,
		labels: append([]string{"base"}, cols...),
		cfgs:   append([]config.Config{core.Baseline()}, machines...),
	}
}

func (s sweep) benches(o Options) []workload.Benchmark {
	return append(slices.Clip(o.benches()), s.extra...)
}

func (s sweep) key(b workload.Benchmark, mi int) string {
	return s.name + "/" + b.Name + "/" + s.labels[mi]
}

func (s sweep) cells(o Options) []fabric.JobSpec {
	var specs []fabric.JobSpec
	for _, b := range s.benches(o) {
		for mi, cfg := range s.cfgs {
			specs = append(specs, o.spec(s.key(b, mi), b, s.labels[mi], cfg))
		}
	}
	return specs
}

var suites = []workload.Suite{workload.INT, workload.FP}

// suiteTable is the paper's presentation of one suite of a speedup sweep:
// each benchmark's percent speedup in useful IPC over the baseline, per
// machine, with a geometric-mean row. It is nil when no benchmark of the
// suite ran.
func (s sweep) suiteTable(title string, suite workload.Suite, o Options, r results) *stats.Table {
	t := &stats.Table{Title: fmt.Sprintf("%s — %s", title, suite), Columns: s.labels[1:]}
	for _, b := range s.benches(o) {
		if b.Suite != suite {
			continue
		}
		row := make([]float64, len(t.Columns))
		for mi := range row {
			row[mi] = stats.SpeedupPct(r[s.key(b, 0)].IPC, r[s.key(b, mi+1)].IPC)
		}
		t.Add(b.Name, row...)
	}
	if len(t.Rows) == 0 {
		return nil
	}
	t.AddGeoMean("average")
	return t
}

func (s sweep) speedupTables(title string, o Options, r results) []*stats.Table {
	var out []*stats.Table
	for _, suite := range suites {
		if t := s.suiteTable(title, suite, o, r); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// averageTable reduces the per-suite tables to their average rows, each
// labelled with its suite (the presentation Figures 2 and 6 use).
func (s sweep) averageTable(title string, o Options, r results) *stats.Table {
	out := &stats.Table{Title: title, Columns: s.labels[1:]}
	for _, suite := range suites {
		if t := s.suiteTable("", suite, o, r); t != nil {
			out.Add("AVG "+strings.TrimPrefix(suite.String(), "SPEC "), avgRow(t)...)
		}
	}
	return out
}

// speedups renders the sweep as per-suite speedup tables titled title.
func (s sweep) speedups(title string) func(Options, results) []*stats.Table {
	return func(o Options, r results) []*stats.Table { return s.speedupTables(title, o, r) }
}

// averages renders the sweep as one table of the suites' average rows.
func (s sweep) averages(title string) func(Options, results) []*stats.Table {
	return func(o Options, r results) []*stats.Table {
		return []*stats.Table{s.averageTable(title, o, r)}
	}
}

func stvpWF() config.Config { return core.STVP(config.PredWangFranklin, config.SelILPPred) }

func mtvpWF(contexts int) config.Config {
	return core.MTVP(contexts, config.PredWangFranklin, config.SelILPPred)
}

var threadCols = []string{"stvp", "mtvp2", "mtvp4", "mtvp8"}

// oracleSweep is the Figure 1 limit study — oracle value prediction,
// ILP-pred selection, unbounded store buffers, STVP against MTVP with 2,
// 4 and 8 contexts — at the given thread spawn latency.
func oracleSweep(name string, spawnLatency int) sweep {
	mk := func(contexts int) config.Config {
		c := core.MTVPOracleLimit(contexts)
		c.VP.SpawnLatency = spawnLatency
		return c
	}
	return speedupSweep(name, threadCols, core.STVPOracleLimit(), mk(2), mk(4), mk(8))
}

var (
	fig1           = oracleSweep("fig1", 1)
	spawnLatencies = []int{1, 8, 16}
	fig2           = func() []sweep {
		var ss []sweep
		for _, lat := range spawnLatencies {
			ss = append(ss, oracleSweep(fmt.Sprintf("fig2-lat%d", lat), lat))
		}
		return ss
	}()
	// The §5.3 sweep adds a kernel where the buffer genuinely binds — a
	// long resident stretch (many stores) between predictable long-latency
	// loads — to the regular suite, whose high spawn density keeps
	// per-thread store counts low.
	storeBuf = func() sweep {
		var cols []string
		var machines []config.Config
		for _, n := range []int{16, 32, 64, 128, 256, 512, 0} {
			c := mtvpWF(4)
			c.VP.StoreBufEntries = n
			machines = append(machines, c)
			if n == 0 {
				cols = append(cols, "unbounded")
			} else {
				cols = append(cols, fmt.Sprintf("sb%d", n))
			}
		}
		s := speedupSweep("sb", cols, machines...)
		s.extra = []workload.Benchmark{workload.ResidentMiss}
		return s
	}()
	fig3 = speedupSweep("fig3", threadCols, stvpWF(), mtvpWF(2), mtvpWF(4), mtvpWF(8))
	dfcm = speedupSweep("dfcm", []string{"stvp-wf", "stvp-dfcm", "mtvp4-wf", "mtvp4-dfcm"},
		stvpWF(), core.STVP(config.PredDFCM, config.SelILPPred),
		mtvpWF(4), core.MTVP(4, config.PredDFCM, config.SelILPPred))
	fig4 = speedupSweep("fig4", []string{"stvp", "mtvp4-sfp", "mtvp4-nostall", "mtvp8-sfp", "mtvp8-nostall"},
		stvpWF(), mtvpWF(4), core.MTVPNoStall(4, config.PredWangFranklin, config.SelILPPred),
		mtvpWF(8), core.MTVPNoStall(8, config.PredWangFranklin, config.SelILPPred))
	fig5     = sweep{name: "fig5", labels: []string{"mtvp8-wf"}, cfgs: []config.Config{mtvpWF(8)}}
	multival = speedupSweep("multival", []string{"mtvp8-1val", "mv-2val", "mv-3val"},
		mtvpWF(8), core.MTVPMultiValue(8, 2, 6), core.MTVPMultiValue(8, 3, 4))
	fig6 = speedupSweep("fig6", []string{"wide-window", "best-mtvp", "spawn-only"},
		core.WideWindow(), mtvpWF(8), core.SpawnOnly(8))
	// The paper notes MTVP gains are larger and more consistent without
	// the stride prefetcher; the ablation disables it on every machine,
	// the baseline included.
	prefetchOff = func() sweep {
		s := speedupSweep("prefetch", []string{"stvp", "mtvp8"}, stvpWF(), mtvpWF(8))
		for i := range s.cfgs {
			s.cfgs[i].Prefetch.Enabled = false
		}
		return s
	}()
	selector = func() sweep {
		mk := func(sel config.SelectorKind) config.Config {
			c := core.MTVPOracleLimit(8)
			c.VP.Selector = sel
			return c
		}
		return speedupSweep("selector", []string{"ilp-pred", "l3-oracle", "always"},
			mk(config.SelILPPred), mk(config.SelL3Oracle), mk(config.SelAlways))
	}()
	sbOrg = speedupSweep("sborg", []string{"private-128", "unified-512", "unified-128"},
		mtvpWF(8), core.MTVPUnifiedSB(8, 512), core.MTVPUnifiedSB(8, 128))
)

// Registry lists every experiment, in report order.
var Registry = []Experiment{
	{
		Name: "table1",
		intro: "## Table 1 — simulator architectural parameters\n\n" +
			"Paper: the machine of Table 1 (30-stage pipe, 8-wide, 256-entry ROB,\n" +
			"64KB L1s, 512KB L2, 4MB L3, 1000-cycle memory, 2bcgskew, stride\n" +
			"prefetcher with 8 stream buffers).\n\nMeasured (configuration dump):\n\n" +
			"```\n" + Table1() + "```\n\n",
	},
	{
		Name:   "fig1",
		cells:  fig1.cells,
		tables: fig1.speedups("Figure 1: oracle value prediction (ILP-pred)"),
		intro: "## Figure 1 — oracle value prediction (limit study)\n\n" +
			"Paper: with an oracle predictor and ILP-pred selection, STVP gains\n" +
			"24% (INT) and 5% (FP) geomean; MTVP8 gains ~40% (INT) and ~50%\n" +
			"(FP); more threads is consistently better; several benchmarks exceed\n" +
			"+100% (mcf 258%, art 151–215%).\n\nMeasured:\n\n",
		outro: func(f1 []*stats.Table) string {
			intAvg, fpAvg := avgRow(f1[0]), avgRow(f1[1])
			okOrder := last(intAvg) > intAvg[0] && last(fpAvg) > fpAvg[0]
			okScale := intAvg[1] <= intAvg[2] && intAvg[2] <= intAvg[3]
			return fmt.Sprintf("Verdict: MTVP8 > STVP on both suites: %s; thread scaling monotonic\n"+
				"(INT averages %.1f ≤ %.1f ≤ %.1f): %s.\n\n",
				verdict(okOrder), intAvg[1], intAvg[2], intAvg[3], verdict(okScale))
		},
	},
	{
		Name: "fig2",
		cells: func(o Options) []fabric.JobSpec {
			var specs []fabric.JobSpec
			for _, s := range fig2 {
				specs = append(specs, s.cells(o)...)
			}
			return specs
		},
		tables: func(o Options, r results) []*stats.Table {
			var out []*stats.Table
			for i, s := range fig2 {
				out = append(out, s.averageTable(fmt.Sprintf("Figure 2: spawn latency %d cycles", spawnLatencies[i]), o, r))
			}
			return out
		},
		intro: "## Figure 2 — spawn latency sensitivity\n\n" +
			"Paper: with 8-cycle spawns the technique keeps ~40–50% gains; at 16\n" +
			"cycles integer programs struggle to beat STVP while FP keeps ~4x the\n" +
			"STVP gain; longer latencies reduce the value of extra contexts.\n\nMeasured:\n\n",
		outro: func(f2 []*stats.Table) string {
			lat1, lat16 := avgRow(f2[0]), avgRow(f2[2]) // first average row: [stvp mtvp2 mtvp4 mtvp8]
			return fmt.Sprintf("Verdict: MTVP8 gain at 16-cycle spawns (%.1f%%) does not exceed the\n"+
				"1-cycle gain (%.1f%%): %s.\n\n", last(lat16), last(lat1), verdict(last(lat16) <= last(lat1)))
		},
	},
	{
		Name:   "sb",
		cells:  storeBuf.cells,
		tables: storeBuf.averages("Section 5.3: store buffer size sweep (mtvp4, Wang-Franklin)"),
		intro: "## Section 5.3 — store buffer size\n\n" +
			"Paper: performance tails off at 64 entries and below; a 128-entry\n" +
			"buffer gets nearly the performance of the largest simulated.\n\nMeasured:\n\n",
		outro: func([]*stats.Table) string {
			return "Note: the suite's spawn density keeps per-thread store counts low, so\n" +
				"the bound bites mostly on the `resident+miss` kernel (long resident\n" +
				"stretches between predictable misses), as discussed in DESIGN.md §6.\n\n"
		},
	},
	{
		Name:   "fig3",
		cells:  fig3.cells,
		tables: fig3.speedups("Figure 3: Wang-Franklin hybrid predictor"),
		intro: "## Figure 3 — realistic Wang–Franklin predictor\n\n" +
			"Paper: ~40% average speedups on both SPECint and SPECfp with eight\n" +
			"threads; some benchmarks exceed the oracle (vpr 224%, mcf 353%,\n" +
			"swim 131%); more negative outliers than the oracle study; STVP is\n" +
			"small nearly everywhere (and near zero on FP).\n\nMeasured:\n\n",
		outro: func(f3 []*stats.Table) string {
			int3, fp3 := avgRow(f3[0]), avgRow(f3[1])
			okWF := last(int3) > int3[0] && last(fp3) > fp3[0]
			return fmt.Sprintf("Verdict: MTVP8 > STVP on both suites: %s; STVP near zero on FP\n"+
				"(%.1f%%): %s.\n\n", verdict(okWF), fp3[0], verdict(fp3[0] < 5))
		},
	},
	{
		Name:   "dfcm",
		cells:  dfcm.cells,
		tables: dfcm.averages("Section 5.4: DFCM-3 vs Wang-Franklin"),
		intro: "## Section 5.4 — DFCM-3 vs Wang–Franklin\n\n" +
			"Paper: the order-3 DFCM was not as good as Wang–Franklin overall —\n" +
			"a more aggressive predictor, making more correct *and* more incorrect\n" +
			"predictions.\n\nMeasured:\n\n",
	},
	{
		Name:   "fig4",
		cells:  fig4.cells,
		tables: fig4.speedups("Figure 4: fetch policy (single fetch path vs no-stall)"),
		intro: "## Figure 4 — fetch policy (single fetch path vs no-stall)\n\n" +
			"Paper: allowing the parent to keep fetching after a spawn is highly\n" +
			"counterproductive — competition for fetch and execution resources\n" +
			"swamps any recovery-time gains.\n\nMeasured:\n\n",
		outro: func(f4 []*stats.Table) string {
			// Columns: stvp, mtvp4-sfp, mtvp4-nostall, mtvp8-sfp, mtvp8-nostall.
			i4 := avgRow(f4[0])
			okSFP := i4[1] >= i4[2]-2 && i4[3] >= i4[4]-2
			return fmt.Sprintf("Verdict: SFP ≥ no-stall on the INT average (4 threads: %.1f vs %.1f;\n"+
				"8 threads: %.1f vs %.1f): %s.\n\n", i4[1], i4[2], i4[3], i4[4], verdict(okSFP))
		},
	},
	{
		Name:  "fig5",
		cells: fig5.cells,
		// Of the followed predictions that were wrong, the fraction of all
		// followed predictions whose correct value was nonetheless in the
		// predictor and over threshold.
		tables: func(o Options, r results) []*stats.Table {
			var tables []*stats.Table
			for _, suite := range suites {
				t := &stats.Table{
					Title:   fmt.Sprintf("Figure 5: wrong primary, correct value present and over threshold — %s", suite),
					Columns: []string{"fraction"},
				}
				for _, b := range fig5.benches(o) {
					if b.Suite != suite {
						continue
					}
					st := r[fig5.key(b, 0)].Stats
					frac := 0.0
					if st.VPPredicted > 0 {
						frac = float64(st.VPWrongButPresent) / float64(st.VPPredicted)
					}
					t.Add(b.Name, frac)
				}
				tables = append(tables, t)
			}
			return tables
		},
		intro: "## Figure 5 — multi-value potential\n\n" +
			"Paper: for many benchmarks a noticeable fraction (up to ~25%) of\n" +
			"followed predictions had a wrong primary value while the correct\n" +
			"value was in the predictor and over threshold.\n\nMeasured\n" +
			"(fraction of followed predictions):\n\n",
	},
	{
		Name:   "multival",
		cells:  multival.cells,
		tables: multival.speedups("Section 5.6: multiple-value MTVP"),
		intro: "## Section 5.6 — multiple-value MTVP\n\n" +
			"Paper: initial results — with a more liberal predictor and the\n" +
			"L3-miss-oracle criticality predictor, swim and parser analogues gain\n" +
			"70% and 40% where single-value MTVP gave <1% and 14%; finding\n" +
			"policies that win across the board is left open.\n\nMeasured:\n\n",
		outro: func([]*stats.Table) string {
			return "See also examples/multivalue for the scenario where following both\n" +
				"modes of a bimodal load clearly beats the best single-value machine.\n\n"
		},
	},
	{
		Name:  "fig6",
		cells: fig6.cells,
		tables: func(o Options, r results) []*stats.Table {
			return append(fig6.speedupTables("", o, r),
				fig6.averageTable("Figure 6: wide window vs MTVP vs spawn-only", o, r))
		},
		intro: "## Figure 6 — wide window vs MTVP vs spawn-only\n\n" +
			"Paper: the idealized 8K-ROB checkpoint machine wins on nearly all\n" +
			"SPECfp (abundant parallelism); on SPECint MTVP wins — over 7x the\n" +
			"checkpoint machine's speedup on vpr, more on mcf — because value\n" +
			"prediction creates parallelism instead of just finding it; spawn-only\n" +
			"(decoupling without prediction) is quite ineffective alone.\n\nMeasured:\n\n",
		outro: func(f6 []*stats.Table) string {
			var mcf []float64
			for _, t := range f6 {
				if r := rowOf(t, "mcf"); r != nil {
					mcf = r
				}
			}
			if len(mcf) != 3 {
				return ""
			}
			return fmt.Sprintf("Verdict: on mcf, MTVP (%.1f%%) beats both the wide window (%.1f%%)\n"+
				"and spawn-only (%.1f%%): %s.\n\n",
				mcf[1], mcf[0], mcf[2], verdict(mcf[1] > mcf[0] && mcf[1] > mcf[2]))
		},
	},
	{
		Name:   "prefetch",
		cells:  prefetchOff.cells,
		tables: prefetchOff.averages("Ablation: prefetcher disabled"),
		intro: "## Ablations beyond the paper's figures\n\n" +
			"### prefetcher disabled (paper: gains larger without it)\n\n",
	},
	{
		Name:   "selector",
		cells:  selector.cells,
		tables: selector.averages("Ablation: criticality selector (mtvp8, oracle values)"),
		intro:  "### criticality selector comparison (§5.1)\n\n",
	},
	{
		Name:   "sborg",
		cells:  sbOrg.cells,
		tables: sbOrg.averages("Ablation: store buffer organisation (mtvp8, Wang-Franklin)"),
		intro:  "### store buffer organisation (§3.2 vs §3.3)\n\n",
	},
	robust,
}
