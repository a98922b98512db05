// Command mtvpbench regenerates the paper's tables and figures as
// EXPERIMENTS.md sections.
//
// Usage:
//
//	mtvpbench -exp fig1                 # one experiment's section
//	mtvpbench -exp all -o EXPERIMENTS.md # the whole report
//
// -exp names one experiment of the registry in internal/experiments
// (experiments.Registry: table1, the figures, the §5 text results, the
// ablations and the fault campaign), or all; any other name is refused
// with the list of known ones. Each selected experiment prints its
// EXPERIMENTS.md section: the heading and the paper's claim, the measured
// tables and the verdict. -exp all prints the whole report, header and
// closing "Generated in" line included, so the plain `mtvpbench -exp all
// -o EXPERIMENTS.md` regenerates the committed file. -o writes only after
// the campaign succeeds: a failed or interrupted run leaves it as it was.
//
// The selected experiments run as one campaign that runs each distinct
// cell once: a cell that several experiments share (the no-VP baseline,
// Figure 1's machines inside Figure 2) is simulated once and read back by
// each. A selection that simulates nothing (table1) starts no campaign.
//
// The -faults flag arms a fault-injection profile (see internal/fault) on
// every simulated machine of the selected experiments; `-exp robust` runs
// the dedicated oracle-checked campaign over all built-in profiles.
//
// The campaign runs on the supervised harness (internal/harness): -jobs
// bounds the worker pool, -timeout and -stall cancel wedged cells,
// -retries re-runs failed ones at once (never a permanent failure such as
// an oracle divergence), and -journal checkpoints every finished
// cell to a JSONL file so an interrupted campaign (Ctrl-C or SIGTERM
// drains cleanly; even a SIGKILL loses only in-flight cells) can be
// completed with -resume.
//
// -coordinator hands the campaign to a distributed sweep fabric instead
// of the local worker pool: cells are submitted to a `mtvpd serve`
// coordinator and executed by whatever `mtvpd work` agents are attached
// to it (-token authenticates). Output is byte-identical to local runs
// regardless of worker count or worker deaths. -journal, -resume,
// -timeout, -stall and an explicit -retries are local-only and are
// refused with -coordinator; the coordinator's -journal-dir, -lease-ttl
// and -retries do their jobs there.
//
// Campaign events (retries, failures, the shutdown drain, warnings such as
// a torn journal tail) are logged to stderr unless -quiet is set; the
// campaign summary (cells completed/retried/failed/skipped, wall time,
// simulated work) follows them there.
//
// Exit codes: 0 success, 1 usage or experiment error, 4 one or more cells
// exhausted their retries (failed job keys on stderr), 130 interrupted by
// SIGINT, 143 terminated by SIGTERM (both after a clean drain and journal
// flush).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"mtvp/internal/experiments"
	"mtvp/internal/fault"
	"mtvp/internal/harness"
	"mtvp/internal/hostperf"
	"mtvp/internal/version"
	"mtvp/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtvpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "fig1", "experiment to regenerate (or 'all')")
		out      = fs.String("o", "-", "output file (- for stdout)")
		insts    = fs.Uint64("insts", experiments.DefaultOptions().Insts, "useful committed instructions per run")
		seed     = fs.Uint64("seed", 1, "workload seed")
		jobs     = fs.Int("jobs", runtime.NumCPU(), "campaign worker pool size")
		benchCSV = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
		faults   = fs.String("faults", "", "fault-injection profile armed on every run (\"\" = none)")
		fseed    = fs.Uint64("faultseed", experiments.DefaultOptions().FaultSeed, "fault injector seed")
		timeout  = fs.Duration("timeout", 0, "per-cell wall-clock deadline (0 = none)")
		stall    = fs.Duration("stall", 0, "cancel a cell whose simulated cycles stop advancing for this long (0 = off)")
		retries  = fs.Int("retries", 1, "re-runs per failed or timed-out cell")
		journal  = fs.String("journal", "", "JSONL checkpoint journal path (\"\" = no checkpointing)")
		resume   = fs.String("resume", "", "resume from this journal: skip done cells, re-run failures")
		coord    = fs.String("coordinator", "", "run campaigns on this sweep-fabric coordinator (base URL of `mtvpd serve`; \"\" = local worker pool)")
		token    = fs.String("token", "", "bearer token for the fabric coordinator")
		quiet    = fs.Bool("quiet", false, "suppress campaign event lines (retries, failures, warnings) on stderr")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the host process to FILE")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile at exit to FILE")
		showVer  = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	if *showVer {
		version.Print(stdout, "mtvpbench")
		return 0
	}
	if err := checkRetries(fs); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	exps, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

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
			fmt.Fprintln(stderr, "-journal and -resume name different files; -resume both reads and extends its journal")
			return 1
		}
		opt.Journal = *resume
		opt.Resume = true
	}
	if !*quiet {
		opt.OnEvent = harness.PrintEvents(stderr)
	}
	if _, err := fault.ByName(*faults); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *benchCSV != "" {
		for _, name := range strings.Split(*benchCSV, ",") {
			b, err := workload.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			opt.Benchmarks = append(opt.Benchmarks, b)
		}
	}

	stopProfiles, err := hostperf.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// Flushed by defer so profiles survive every exit path: a campaign
	// that died late is exactly the one whose profile you want.
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}()

	// Rendered in memory and written only once the campaign succeeded, so
	// a failed or interrupted run never truncates -o.
	var report bytes.Buffer
	if *exp == "all" {
		err = experiments.GenerateReport(opt, &report)
	} else {
		err = experiments.WriteSections(&report, opt, *exp, exps)
	}
	if err != nil {
		return exitCode(stderr, *exp, err, opt.Summary)
	}
	if *out == "-" {
		_, err = report.WriteTo(stdout)
	} else {
		err = os.WriteFile(*out, report.Bytes(), 0o666)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if opt.Summary.Total > 0 {
		opt.Summary.Render(stderr)
	}
	return 0
}

// selectExperiments resolves -exp: one registry experiment, or all of
// them. An unknown name is refused with the list of known ones.
func selectExperiments(name string) ([]experiments.Experiment, error) {
	var exps []experiments.Experiment
	var names []string
	for _, e := range experiments.Registry {
		if name == "all" || name == e.Name {
			exps = append(exps, e)
		}
		names = append(names, e.Name)
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("unknown experiment %q: want one of %s, all", name, strings.Join(names, ", "))
	}
	return exps, nil
}

// exitCode reports an experiment failure, with the campaign summary when
// a campaign ran, and returns the harness's exit-code contract: 4 when
// cells exhausted their retries (keys listed on stderr), 128+signum when
// the campaign was drained by a signal (130 SIGINT, 143 SIGTERM), 1
// otherwise.
func exitCode(stderr io.Writer, name string, err error, sum *harness.Summary) int {
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	if sum.Total > 0 {
		sum.Render(stderr)
	}
	var failed *harness.FailedError
	var interrupted *harness.InterruptedError
	switch {
	case errors.As(err, &failed):
		fmt.Fprintf(stderr, "%d cells exhausted their retries:\n", len(failed.Failures))
		for _, f := range failed.Failures {
			fmt.Fprintf(stderr, "  %s (%s after %d attempts): %s\n", f.Key, f.Kind, f.Attempts, f.Err)
		}
		return 4
	case errors.As(err, &interrupted):
		return interrupted.ExitCode()
	case errors.Is(err, harness.ErrInterrupted):
		return 130
	}
	return 1
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
