// Package experiments regenerates every table and figure of the paper's
// evaluation (§4–5). Registry lists them, one entry each: a name, a
// declaration of its cells as fabric job specs — a stable key
// ("fig1/mcf/mtvp4"), the benchmark, the seed and the fully resolved
// machine config — and a renderer that builds its tables from the results
// read back under its own keys. Run merges the selected declarations into
// one supervised parallel campaign that runs each distinct cell once, on
// the local worker pool (internal/harness), or on the sweep fabric
// (internal/fabric) when Options.Coordinator is set; either way every cell
// goes through the same executor (runCell). Tables mirror the paper's:
// per-benchmark percent speedup in useful IPC over the no-value-prediction
// baseline, with geometric-mean average rows per suite. WriteSections
// renders the selected experiments as their EXPERIMENTS.md sections, and
// GenerateReport renders the whole report.
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
	// Summary, when non-nil, receives the campaign's counters
	// (completed/retried/failed/skipped cells, wall time, simulated work)
	// for reporting.
	Summary *harness.Summary
	// OnEvent, when non-nil, receives campaign events (retries, failures,
	// drains, warnings) for logging.
	OnEvent func(harness.Event)
}

// DefaultOptions returns experiment options for a complete regeneration at
// the run length of the committed EXPERIMENTS.md: 100k useful instructions
// per run, seed 1, one worker per CPU and one retry per flaky cell.
func DefaultOptions() Options {
	return Options{
		Insts:    100_000,
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
	if o.FaultProfile != "" {
		cfg = core.WithFaults(cfg, o.FaultProfile, o.FaultSeed)
	}
	return cfg
}

// journalFormat tags every campaign fingerprint with the shape of a
// journaled cell result, so a journal written in an older shape is refused
// on resume instead of misread.
const journalFormat = "cell/4"

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

// runCell is the one cell executor: it builds the spec's benchmark b, runs
// it on the spec's machine and returns the cell's result. Local harness
// jobs and fabric worker leases (RunSpec) both call it. progress receives
// the simulation's current cycle/commit counters from the engine's
// observer poll; ctx cancellation stops the run at the next poll. An
// oracle divergence is deterministic, so it is marked permanent: retrying
// reproduces it exactly. A structured fault report is a result only in a
// cell that declares it one (spec.AbortIsResult, the fault campaign's
// outcome rule); anywhere else it fails the cell.
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
	case spec.AbortIsResult && errors.As(err, &rep):
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

// results holds one experiment's cell results under its own keys.
type results map[string]cellResult

// An Experiment is one entry of Registry: a table or figure of the
// evaluation, or the fault campaign.
type Experiment struct {
	Name string
	// cells declares the experiment's cells at o's budget, seed and
	// benchmarks; tables renders its tables from its results. Both are
	// nil for an experiment that simulates nothing (Table 1).
	cells  func(o Options) []fabric.JobSpec
	tables func(o Options, r results) []*stats.Table
	// intro is its EXPERIMENTS.md section up to the measured tables: the
	// heading and the paper's result. outro, when set, follows the
	// tables with notes and verdicts computed from them.
	intro string
	outro func(tables []*stats.Table) string
}

// Run runs exps as one campaign named name, each distinct cell once, and
// returns each experiment's tables, in exps order. Two declared cells are
// the same when they name the same benchmark, seed, fully resolved config
// (fabric.ConfigFingerprint) and outcome rule. The first experiment to
// declare a cell gives it its campaign key; every experiment reads the
// result back under its own. A selection that declares no cells starts no
// campaign. A benchmark named twice in o.Benchmarks is refused: it would
// count twice in every average.
func Run(o Options, name string, exps []Experiment) ([][]*stats.Table, error) {
	for i, b := range o.Benchmarks {
		for _, prev := range o.Benchmarks[:i] {
			if prev.Name == b.Name {
				return nil, fmt.Errorf("benchmark %q is named twice", b.Name)
			}
		}
	}
	type cellID struct {
		bench, config string
		seed          uint64
		abortIsResult bool
	}
	var specs []fabric.JobSpec
	campaignKey := map[cellID]string{}
	own := make([]map[string]string, len(exps)) // experiment's key → campaign key
	for i, e := range exps {
		own[i] = map[string]string{}
		if e.cells == nil {
			continue
		}
		for _, s := range e.cells(o) {
			id := cellID{s.Bench, fabric.ConfigFingerprint(s), s.Seed, s.AbortIsResult}
			key, ok := campaignKey[id]
			if !ok {
				key = s.Key
				campaignKey[id] = key
				specs = append(specs, s)
			}
			own[i][s.Key] = key
		}
	}
	var res map[string]cellResult
	if len(specs) > 0 {
		var err error
		if res, err = o.runCampaign(name, specs); err != nil {
			return nil, err
		}
	}
	out := make([][]*stats.Table, len(exps))
	for i, e := range exps {
		if e.tables == nil {
			continue
		}
		r := make(results, len(own[i]))
		for k, key := range own[i] {
			r[k] = res[key]
		}
		out[i] = e.tables(o, r)
	}
	return out, nil
}

// bench resolves a spec's benchmark by name: one of the options'
// benchmarks (test kernels have no registered name), else a registered
// one. Fabric workers resolve by registered name only.
func (o Options) bench(name string) (workload.Benchmark, error) {
	for _, b := range o.Benchmarks {
		if b.Name == name {
			return b, nil
		}
	}
	return workload.ByName(name)
}

// runCampaign is the one campaign driver: it runs specs as the named
// campaign — on the local harness worker pool, or, when o.Coordinator is
// set, on the fabric — stores the campaign's summary in o.Summary, and
// returns every cell's result by key. Callers read results by key, never
// in completion order, so reports cannot depend on scheduling. Its errors
// do not name the campaign, as the harness's do not: the caller that
// reports one names it once.
func (o Options) runCampaign(name string, specs []fabric.JobSpec) (map[string]cellResult, error) {
	ctx := context.Background()
	hc := o.harnessConfig(name)
	var (
		results map[string]cellResult
		sum     *harness.Summary
		err     error
	)
	if o.Coordinator == "" {
		jobs := make([]harness.Job[cellResult], len(specs))
		for i, spec := range specs {
			b, err := o.bench(spec.Bench)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Key, err)
			}
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
			return nil, err
		}
		// Submission is idempotent: a resubmission after a client restart
		// attaches to the in-flight campaign.
		cl := fabric.NewClient(o.Coordinator, o.Token)
		start := time.Now()
		sub, serr := cl.Submit(ctx, fabric.CampaignSpec{Name: name, Fingerprint: hc.Fingerprint, Jobs: specs})
		if serr != nil {
			return nil, fmt.Errorf("submit to %s: %w", o.Coordinator, serr)
		}
		if sub.Attached && o.OnEvent != nil {
			o.OnEvent(harness.Event{Kind: harness.EventWarn, Key: name,
				Err: fmt.Sprintf("attached to in-flight campaign %s (resuming, not restarting)", sub.ID)})
		}
		var final fabric.CampaignStatus
		res, werr := cl.Wait(ctx, sub.ID, func(st fabric.CampaignStatus) { final = st })
		if werr != nil {
			return nil, fmt.Errorf("campaign %s: %w", sub.ID, werr)
		}
		if res.State == fabric.StateCancelled {
			return nil, fmt.Errorf("campaign %s was cancelled on the coordinator", sub.ID)
		}
		results = make(map[string]cellResult, len(res.Results))
		for key, raw := range res.Results {
			var cell cellResult
			if err := json.Unmarshal(raw, &cell); err != nil {
				return nil, fmt.Errorf("cell %s: undecodable result: %w", key, err)
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
			*o.Summary = *sum
		}
	}
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		if _, ok := results[spec.Key]; !ok {
			return nil, fmt.Errorf("no result for %s", spec.Key)
		}
	}
	return results, nil
}
