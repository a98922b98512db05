// Package experiments regenerates every table and figure of the paper's
// evaluation (§4–5). Each experiment declares its cells as fabric job specs
// — a stable key ("fig1/mcf/mtvp4"), the benchmark, the seed and the fully
// resolved machine config — and hands them to one campaign driver
// (runCampaign). The driver runs them as a supervised parallel campaign on
// the local worker pool (internal/harness), or on the sweep fabric
// (internal/fabric) when Options.Coordinator is set; either way every cell
// goes through the same executor (runCell). Tables mirror the paper's:
// per-benchmark percent speedup in useful IPC over the no-value-prediction
// baseline, with geometric-mean average rows per suite.
//
// A campaign survives panics, hangs, and flaky cells, can be checkpointed
// to a journal, and resumes after an interruption by re-running only what
// is missing. Tables are always assembled in job-key order, never
// completion order: two runs of the same campaign, local or distributed,
// render byte-identical reports.
package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/fabric"
	"mtvp/internal/fault"
	"mtvp/internal/harness"
	"mtvp/internal/oracle"
	"mtvp/internal/stats"
	"mtvp/internal/workload"
)

// Options controls experiment scale and campaign supervision. The zero
// value is not usable; call DefaultOptions.
type Options struct {
	Insts    uint64 // useful committed instructions per run
	Seed     uint64
	Parallel int // concurrent simulations (harness worker pool)
	// Benchmarks to run; nil means the full SPEC stand-in suite.
	Benchmarks []workload.Benchmark
	// FaultProfile, when non-empty, arms the fault injector on every
	// simulated machine (see internal/fault for the built-in profiles).
	FaultProfile string
	FaultSeed    uint64

	// Campaign supervision (internal/harness). Timeout, StallTimeout,
	// Journal and Resume apply to local campaigns only; with Coordinator
	// set, the coordinator's lease TTL and journal directory do their jobs,
	// and setting any of them is an error.
	Timeout      time.Duration // per-cell wall-clock deadline (0 = none)
	StallTimeout time.Duration // cancel a cell whose simulated cycles stop advancing (0 = off)
	Retries      int           // re-runs per failed or timed-out cell
	Journal      string        // JSONL checkpoint path ("" = no checkpointing)
	Resume       bool          // skip journaled-done cells, re-run failures
	// HandleSignals installs the harness's graceful-shutdown handler
	// (SIGINT/SIGTERM drain workers and flush the journal) around every
	// local campaign.
	HandleSignals bool
	// Coordinator, when non-empty, runs every campaign through the
	// distributed fabric (internal/fabric) at this base URL instead of the
	// local worker pool: cells are submitted as a campaign and executed by
	// whatever worker agents (mtvpd work) are attached to the coordinator.
	// Reports are byte-identical to local runs. Token authenticates the
	// client.
	Coordinator string
	Token       string
	// Summary, when non-nil, accumulates every campaign's counters
	// (completed/retried/failed/skipped cells, wall time) for reporting.
	Summary *harness.Summary
	// OnEvent, when non-nil, receives campaign events (retries, failures,
	// drains, warnings) for logging.
	OnEvent func(harness.Event)
}

// DefaultOptions returns experiment options sized for a complete
// regeneration at moderate fidelity (~200k instructions per run, as a
// SimPoint-style steady-state sample), with one retry per flaky cell.
func DefaultOptions() Options {
	return Options{
		Insts:    200_000,
		Seed:     1,
		Parallel: runtime.NumCPU(),
		Retries:  1,
	}
}

func (o Options) benches() []workload.Benchmark {
	if o.Benchmarks != nil {
		return o.Benchmarks
	}
	return workload.All()
}

func (o Options) apply(cfg config.Config) config.Config {
	cfg.MaxInsts = o.Insts
	cfg.Seed = o.Seed
	if o.FaultProfile != "" {
		cfg = core.WithFaults(cfg, o.FaultProfile, o.FaultSeed)
	}
	return cfg
}

// journalFormat tags every campaign fingerprint with the shape of a
// journaled cell result, so a journal written in an older shape is refused
// on resume instead of misread.
const journalFormat = "cell/3"

// harnessConfig builds the campaign config for one named campaign. The
// fingerprint guards resume: a journal written at different experiment
// options, or in an older result shape, refuses to mix with this campaign.
func (o Options) harnessConfig(name string) harness.Config {
	return harness.Config{
		Name:          name,
		Workers:       o.Parallel,
		Timeout:       o.Timeout,
		StallTimeout:  o.StallTimeout,
		Retries:       o.Retries,
		Journal:       o.Journal,
		Resume:        o.Resume,
		HandleSignals: o.HandleSignals,
		Fingerprint: fmt.Sprintf("format=%s insts=%d seed=%d faults=%s faultseed=%d",
			journalFormat, o.Insts, o.Seed, o.FaultProfile, o.FaultSeed),
		OnEvent: o.OnEvent,
	}
}

// spec declares one cell in wire form: its stable key, the benchmark it
// names, and the fully resolved machine config at o's budget and seed.
func (o Options) spec(key string, b workload.Benchmark, preset string, cfg config.Config) fabric.JobSpec {
	return fabric.JobSpec{Key: key, Bench: b.Name, Preset: preset, Seed: o.Seed, Config: o.apply(cfg)}
}

// cellResult is one cell's journaled outcome: the headline IPC plus the
// run's full statistics snapshot, so a campaign journal doubles as a
// per-cell telemetry record and reports can surface simulated-work totals.
// Abort marks a fault-campaign cell that ended in a structured fault
// report; its Stats then hold only the report's injected, break and
// degradation counts.
type cellResult struct {
	IPC   float64     `json:"ipc"`
	Stats stats.Stats `json:"stats"`
	Abort bool        `json:"abort,omitempty"`
}

// faultCampaign names the campaign whose cells count a structured fault
// report as a result (the robustness contract's second permitted outcome).
// In every other campaign an abort fails its cell.
const faultCampaign = "robust"

// runCell is the one cell executor: it builds the spec's benchmark b, runs
// it on the spec's machine and returns the cell's result. Local harness
// jobs and fabric worker leases (RunSpec) both call it. progress receives
// the simulation's current cycle/commit counters from the engine's
// observer poll; ctx cancellation stops the run at the next poll. An
// oracle divergence is deterministic, so it is marked permanent: retrying
// reproduces it exactly.
func runCell(ctx context.Context, b workload.Benchmark, spec fabric.JobSpec, progress func(cycles, commits uint64)) (cellResult, error) {
	prog, image := b.Build(spec.Seed)
	cfg := spec.Config
	cfg.Observe = func(cycles, commits uint64) bool {
		if progress != nil {
			progress(cycles, commits)
		}
		return ctx.Err() == nil
	}
	res, err := core.Run(cfg, prog, image)
	var rep *fault.Report
	switch {
	case err == nil:
		return cellResult{IPC: res.Stats.UsefulIPC(), Stats: res.Stats}, nil
	case strings.HasPrefix(spec.Key, faultCampaign+"/") && errors.As(err, &rep):
		c := cellResult{Abort: true}
		c.Stats.DeadlockBreaks = rep.Breaks
		c.Stats.Degradations = rep.Degradations
		for _, n := range rep.Injected {
			c.Stats.FaultsInjected += n
		}
		return c, nil
	case oracle.IsDivergence(err):
		return cellResult{}, harness.Permanent(fmt.Errorf("%s on %s committed a wrong value: %w", spec.Bench, spec.Preset, err))
	default:
		return cellResult{}, fmt.Errorf("%s on %s: %w", spec.Bench, spec.Preset, err)
	}
}

// RunSpec is the worker side of the fabric: the RunFunc a worker agent
// (cmd/mtvpd work) runs leases with. It resolves the spec's benchmark by
// name, runs the cell executor and returns the cell's journal-form result
// (the same cellResult JSON a local campaign writes).
func RunSpec(ctx context.Context, spec fabric.JobSpec, progress func(cycles, commits uint64)) (json.RawMessage, error) {
	b, err := workload.ByName(spec.Bench)
	if err != nil {
		return nil, fmt.Errorf("%s: unknown benchmark: %w", spec.Key, err)
	}
	res, err := runCell(ctx, b, spec, progress)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// checkFabricOptions rejects the local-campaign options a fabric run
// would silently ignore, naming the mtvpd serve flag that does the job.
func (o Options) checkFabricOptions() error {
	for _, c := range []struct {
		set        bool
		opt, owner string
	}{
		{o.Resume, "Resume (-resume)", "mtvpd serve -journal-dir resumes campaigns across coordinator restarts"},
		{o.Journal != "", "Journal (-journal)", "mtvpd serve -journal-dir journals every campaign"},
		{o.Timeout != 0, "Timeout (-timeout)", "mtvpd serve -lease-ttl requeues cells whose worker stops heartbeating"},
		{o.StallTimeout != 0, "StallTimeout (-stall)", "mtvpd serve -lease-ttl requeues cells whose worker stops heartbeating"},
	} {
		if c.set {
			return fmt.Errorf("%s applies to local campaigns only, not with a coordinator: %s", c.opt, c.owner)
		}
	}
	return nil
}

// runCampaign is the one campaign driver: it runs specs as the named
// campaign — on the local harness worker pool, or, when o.Coordinator is
// set, on the fabric — folds the campaign into o.Summary, and returns each
// cell's result in spec order, never completion order, so reports cannot
// depend on scheduling. benches resolves each spec's benchmark for local
// runs (test kernels have no registered name); fabric workers resolve it
// by name.
func (o Options) runCampaign(name string, benches []workload.Benchmark, specs []fabric.JobSpec) ([]cellResult, error) {
	ctx := context.Background()
	hc := o.harnessConfig(name)
	var (
		results map[string]cellResult
		sum     *harness.Summary
		err     error
	)
	if o.Coordinator == "" {
		byName := make(map[string]workload.Benchmark, len(benches))
		for _, b := range benches {
			byName[b.Name] = b
		}
		jobs := make([]harness.Job[cellResult], len(specs))
		for i, spec := range specs {
			b := byName[spec.Bench]
			jobs[i] = harness.Job[cellResult]{
				Key:  spec.Key,
				Seed: spec.Seed,
				Run: func(ctx context.Context, hb *harness.Heartbeat) (cellResult, error) {
					return runCell(ctx, b, spec, func(cycles, _ uint64) { hb.Beat(cycles) })
				},
			}
		}
		var camp *harness.Campaign[cellResult]
		camp, err = harness.Run(ctx, hc, jobs)
		if camp != nil {
			results, sum = camp.Results, camp.Summary
		}
	} else {
		if err := o.checkFabricOptions(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		// Submission is idempotent: a resubmission after a client restart
		// attaches to the in-flight campaign.
		cl := fabric.NewClient(o.Coordinator, o.Token)
		start := time.Now()
		sub, serr := cl.Submit(ctx, fabric.CampaignSpec{Name: name, Fingerprint: hc.Fingerprint, Jobs: specs})
		if serr != nil {
			return nil, fmt.Errorf("%s: submit to %s: %w", name, o.Coordinator, serr)
		}
		if sub.Attached && o.OnEvent != nil {
			o.OnEvent(harness.Event{Kind: harness.EventWarn, Key: name,
				Err: fmt.Sprintf("attached to in-flight campaign %s (resuming, not restarting)", sub.ID)})
		}
		var final fabric.CampaignStatus
		res, werr := cl.Wait(ctx, sub.ID, func(st fabric.CampaignStatus) { final = st })
		if werr != nil {
			return nil, fmt.Errorf("%s: campaign %s: %w", name, sub.ID, werr)
		}
		if res.State == fabric.StateCancelled {
			return nil, fmt.Errorf("%s: campaign %s was cancelled on the coordinator", name, sub.ID)
		}
		results = make(map[string]cellResult, len(res.Results))
		for key, raw := range res.Results {
			var cell cellResult
			if err := json.Unmarshal(raw, &cell); err != nil {
				return nil, fmt.Errorf("%s: cell %s: undecodable result: %w", name, key, err)
			}
			results[key] = cell
		}
		// Every requeue (lost worker, reported failure, voluntary release)
		// is one attempt beyond a cell's first.
		sum = &harness.Summary{
			Name: name, Total: len(specs), Wall: time.Since(start),
			Completed: len(results), Failed: len(res.Failures), Failures: res.Failures,
			Attempts: len(results) + len(res.Failures) + final.Requeues, Retries: final.Requeues,
		}
		if len(res.Failures) > 0 {
			err = &harness.FailedError{Failures: res.Failures}
		}
	}
	if sum != nil {
		for _, r := range results {
			sum.SimCycles += r.Stats.Cycles
			sum.SimInsts += r.Stats.Committed
		}
		if o.Summary != nil {
			o.Summary.Merge(sum)
		}
	}
	if err != nil {
		return nil, err
	}
	out := make([]cellResult, len(specs))
	for i, spec := range specs {
		r, ok := results[spec.Key]
		if !ok {
			return nil, fmt.Errorf("%s: no result for %s", name, spec.Key)
		}
		out[i] = r
	}
	return out, nil
}

// grid runs every benchmark on every machine as one campaign and returns
// the results indexed [bench][machine]. name identifies the campaign
// ("fig1"); with the benchmark and the machine's label it forms each
// cell's stable key ("fig1/mcf/mtvp4").
func (o Options) grid(name string, labels []string, benches []workload.Benchmark, cfgs []config.Config) ([][]cellResult, error) {
	specs := make([]fabric.JobSpec, 0, len(benches)*len(cfgs))
	for _, b := range benches {
		for mi, cfg := range cfgs {
			specs = append(specs, o.spec(fmt.Sprintf("%s/%s/%s", name, b.Name, labels[mi]), b, labels[mi], cfg))
		}
	}
	res, err := o.runCampaign(name, benches, specs)
	if err != nil {
		return nil, err
	}
	out := make([][]cellResult, len(benches))
	for bi := range out {
		out[bi] = res[bi*len(cfgs) : (bi+1)*len(cfgs)]
	}
	return out, nil
}

// sweep runs every benchmark on the baseline plus each machine as one
// campaign, returning IPCs indexed [bench][machine]; index 0 is the
// baseline. cols name the non-base machines.
func (o Options) sweep(name string, cols []string, benches []workload.Benchmark, machines []config.Config) ([][]float64, error) {
	return o.sweepAgainst(name, cols, core.Baseline(), benches, machines)
}

// sweepAgainst is sweep with an explicit baseline machine (ablations that
// change the substrate, e.g. disabling the prefetcher, compare against a
// matching baseline).
func (o Options) sweepAgainst(name string, cols []string, base config.Config, benches []workload.Benchmark, machines []config.Config) ([][]float64, error) {
	if len(cols) != len(machines) {
		return nil, fmt.Errorf("%s: %d column labels for %d machines", name, len(cols), len(machines))
	}
	cells, err := o.grid(name, append([]string{"base"}, cols...), benches, append([]config.Config{base}, machines...))
	if err != nil {
		return nil, err
	}
	ipc := make([][]float64, len(cells))
	for bi, row := range cells {
		ipc[bi] = make([]float64, len(row))
		for mi, c := range row {
			ipc[bi][mi] = c.IPC
		}
	}
	return ipc, nil
}

// speedupTables converts a sweep into the paper's presentation: one table
// per suite, per-benchmark percent speedups over the baseline column, with
// a geometric-mean row.
func speedupTables(title string, columns []string, benches []workload.Benchmark, ipc [][]float64) []*stats.Table {
	var tables []*stats.Table
	for _, suite := range []workload.Suite{workload.INT, workload.FP} {
		t := &stats.Table{
			Title:   fmt.Sprintf("%s — %s", title, suite),
			Columns: columns,
		}
		for bi, b := range benches {
			if b.Suite != suite {
				continue
			}
			row := make([]float64, len(columns))
			for mi := range columns {
				row[mi] = stats.SpeedupPct(ipc[bi][0], ipc[bi][mi+1])
			}
			t.Add(b.Name, row...)
		}
		if len(t.Rows) == 0 {
			continue
		}
		t.AddGeoMean("average")
		tables = append(tables, t)
	}
	return tables
}

// averagesOnly reduces per-benchmark tables to their average rows (the
// presentation Figures 2 and 6 use).
func averagesOnly(title string, columns []string, tables []*stats.Table) *stats.Table {
	out := &stats.Table{Title: title, Columns: columns}
	for _, t := range tables {
		for _, r := range t.Rows {
			if r.Name == "average" {
				name := "AVG INT"
				if len(out.Rows) > 0 {
					name = "AVG FP"
				}
				out.Add(name, r.Values...)
			}
		}
	}
	return out
}
