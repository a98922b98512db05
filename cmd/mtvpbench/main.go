// Command mtvpbench regenerates the paper's tables and figures.
//
// Usage:
//
//	mtvpbench -exp fig1              # one experiment
//	mtvpbench -exp all -insts 200000 # everything (slow)
//
// -exp names table1 (the configuration dump), one experiment of the
// registry in internal/experiments (experiments.Registry), or all; any
// other name is refused with the list of known ones. The selected
// experiments run as one campaign that runs each distinct cell once: a
// cell that several experiments share (the no-VP baseline, Figure 1's
// machines inside Figure 2) is simulated once and read back by each.
//
// The -faults flag arms a fault-injection profile (see internal/fault) on
// every simulated machine of the selected experiments; `-exp robust` runs
// the dedicated oracle-checked campaign over all built-in profiles.
//
// The campaign runs on the supervised harness (internal/harness): -jobs
// bounds the worker pool, -timeout and -stall cancel wedged cells,
// -retries re-runs flaky ones, and -journal checkpoints every finished
// cell to a JSONL file so an interrupted campaign (Ctrl-C or SIGTERM
// drains cleanly; even a SIGKILL loses only in-flight cells) can be
// completed with -resume.
//
// -coordinator hands the campaign to a distributed sweep fabric instead
// of the local worker pool: cells are submitted to a `mtvpd serve`
// coordinator and executed by whatever `mtvpd work` agents are attached
// to it (-token authenticates). Tables are byte-identical to local runs
// regardless of worker count or worker deaths. -journal, -resume,
// -timeout, -stall and an explicit -retries are local-only and are
// refused with -coordinator; the coordinator's -journal-dir, -lease-ttl
// and -retries do their jobs there.
//
// Campaign events (retries, failures, the shutdown drain, warnings such as
// a torn journal tail) are logged to stderr unless -quiet is set. Each
// experiment's tables end with a "[name finished in T]" line, T counted
// from the campaign's start; the campaign summary follows the last one.
//
// Exit codes: 0 success, 1 usage or experiment error, 4 one or more cells
// exhausted their retries (failed job keys on stderr), 130 interrupted by
// SIGINT, 143 terminated by SIGTERM (both after a clean drain and journal
// flush).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mtvp/internal/experiments"
	"mtvp/internal/fault"
	"mtvp/internal/harness"
	"mtvp/internal/hostperf"
	"mtvp/internal/version"
	"mtvp/internal/workload"
)

// stopProfiles ends the pprof profiles. Package-level because exit() leaves
// via os.Exit (skipping main's defers) and must still flush them — a
// campaign that died late is exactly the one whose profile you want.
var stopProfiles func() error

// flushProfiles ends the pprof profiles, if requested. Safe to call
// more than once.
func flushProfiles() {
	if stopProfiles != nil {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		stopProfiles = nil
	}
}

func main() {
	var (
		exp      = flag.String("exp", "fig1", "experiment to regenerate (or 'all')")
		insts    = flag.Uint64("insts", 200_000, "useful committed instructions per run")
		seed     = flag.Uint64("seed", 1, "workload seed")
		jobs     = flag.Int("jobs", runtime.NumCPU(), "campaign worker pool size")
		benchCSV = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
		faults   = flag.String("faults", "", "fault-injection profile armed on every run (\"\" = none)")
		fseed    = flag.Uint64("faultseed", 1, "fault injector seed")
		timeout  = flag.Duration("timeout", 0, "per-cell wall-clock deadline (0 = none)")
		stall    = flag.Duration("stall", 0, "cancel a cell whose simulated cycles stop advancing for this long (0 = off)")
		retries  = flag.Int("retries", 1, "re-runs per failed or timed-out cell")
		journal  = flag.String("journal", "", "JSONL checkpoint journal path (\"\" = no checkpointing)")
		resume   = flag.String("resume", "", "resume from this journal: skip done cells, re-run failures")
		coord    = flag.String("coordinator", "", "run campaigns on this sweep-fabric coordinator (base URL of `mtvpd serve`; \"\" = local worker pool)")
		token    = flag.String("token", "", "bearer token for the fabric coordinator")
		quiet    = flag.Bool("quiet", false, "suppress campaign event lines (retries, failures, warnings) on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the host process to FILE")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile at exit to FILE")
		showVer  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVer {
		version.Print(os.Stdout, "mtvpbench")
		return
	}
	if err := checkRetries(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	table1, exps, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	stop, err := hostperf.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stopProfiles = stop
	defer flushProfiles()

	opt := experiments.DefaultOptions()
	opt.Insts = *insts
	opt.Seed = *seed
	opt.Parallel = *jobs
	opt.FaultProfile = *faults
	opt.FaultSeed = *fseed
	opt.Timeout = *timeout
	opt.StallTimeout = *stall
	opt.Retries = *retries
	opt.Journal = *journal
	opt.HandleSignals = true
	opt.Summary = &harness.Summary{}
	opt.Coordinator = *coord
	opt.Token = *token
	if *resume != "" {
		if *journal != "" && *journal != *resume {
			fmt.Fprintln(os.Stderr, "-journal and -resume name different files; -resume both reads and extends its journal")
			os.Exit(1)
		}
		opt.Journal = *resume
		opt.Resume = true
	}
	if !*quiet {
		opt.OnEvent = harness.PrintEvents(os.Stderr)
	}
	if _, err := fault.ByName(*faults); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *benchCSV != "" {
		for _, name := range strings.Split(*benchCSV, ",") {
			b, err := workload.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			opt.Benchmarks = append(opt.Benchmarks, b)
		}
	}

	if table1 {
		fmt.Println("Table 1: Simulator Architectural Parameters")
		fmt.Println(experiments.Table1())
	}
	if len(exps) == 0 {
		return
	}
	start := time.Now()
	tables, err := experiments.Run(opt, *exp, exps)
	if err != nil {
		exit(*exp, err, opt.Summary)
	}
	for i, e := range exps {
		for _, t := range tables[i] {
			fmt.Println(t)
		}
		fmt.Printf("[%s finished in %s]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	opt.Summary.Render(os.Stdout)
}

// selectExperiments resolves -exp: table1 (the configuration dump), one
// registry experiment, or all of them. An unknown name is refused with the
// list of known ones.
func selectExperiments(name string) (table1 bool, exps []experiments.Experiment, err error) {
	names := []string{"table1"}
	for _, e := range experiments.Registry {
		if name == "all" || name == e.Name {
			exps = append(exps, e)
		}
		names = append(names, e.Name)
	}
	table1 = name == "table1" || name == "all"
	if !table1 && len(exps) == 0 {
		return false, nil, fmt.Errorf("unknown experiment %q: want one of %s, all", name, strings.Join(names, ", "))
	}
	return table1, exps, nil
}

// exit reports an experiment failure with the harness's exit-code contract:
// 4 when cells exhausted their retries (keys listed on stderr), 128+signum
// when the campaign was drained by a signal (130 SIGINT, 143 SIGTERM), 1
// otherwise.
func exit(name string, err error, sum *harness.Summary) {
	flushProfiles()
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	if sum != nil && sum.Total > 0 {
		sum.Render(os.Stderr)
	}
	var failed *harness.FailedError
	var interrupted *harness.InterruptedError
	switch {
	case errors.As(err, &failed):
		fmt.Fprintf(os.Stderr, "%d cells exhausted their retries:\n", len(failed.Failures))
		for _, f := range failed.Failures {
			fmt.Fprintf(os.Stderr, "  %s (%s after %d attempts): %s\n", f.Key, f.Kind, f.Attempts, f.Err)
		}
		os.Exit(4)
	case errors.As(err, &interrupted):
		os.Exit(interrupted.ExitCode())
	case errors.Is(err, harness.ErrInterrupted):
		os.Exit(130)
	}
	os.Exit(1)
}

// checkRetries refuses -retries given together with -coordinator: a fabric
// campaign spends the coordinator's requeue budget, and the experiments
// options cannot tell an explicit -retries from its default.
func checkRetries(fs *flag.FlagSet) error {
	retries := false
	fs.Visit(func(f *flag.Flag) { retries = retries || f.Name == "retries" })
	if retries && fs.Lookup("coordinator").Value.String() != "" {
		return errors.New("-retries applies to local campaigns only, not with -coordinator: mtvpd serve -retries sets the requeue budget per cell")
	}
	return nil
}
