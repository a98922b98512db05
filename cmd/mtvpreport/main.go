// Command mtvpreport regenerates every experiment and writes the
// paper-vs-measured report (EXPERIMENTS.md).
//
// Usage:
//
//	mtvpreport -o EXPERIMENTS.md -insts 100000
//
// Every experiment of the registry in internal/experiments — Figure 5 and
// the fault campaign included — runs in one supervised harness campaign
// that runs each distinct cell once: -jobs bounds the worker pool,
// -timeout/-stall cancel wedged cells, -retries re-runs flaky ones, and
// -journal/-resume checkpoint the campaign so an interrupted report
// generation can be completed without re-simulating finished cells
// (-journal and -resume, if both given, must name the same file).
// Campaign events (retries, failures, the shutdown drain, warnings such as
// a torn journal tail) and the campaign summary (cells
// completed/retried/failed/skipped, wall time) are printed to stderr.
//
// -coordinator runs the campaign on a distributed sweep fabric (`mtvpd
// serve` + `mtvpd work` agents) instead of the local worker pool; the
// generated report is byte-identical either way. -journal, -resume,
// -timeout, -stall and an explicit -retries are local-only and are refused
// with -coordinator.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"mtvp/internal/experiments"
	"mtvp/internal/harness"
	"mtvp/internal/version"
)

func main() {
	var (
		out     = flag.String("o", "EXPERIMENTS.md", "output file (- for stdout)")
		insts   = flag.Uint64("insts", 150_000, "useful committed instructions per run")
		seed    = flag.Uint64("seed", 1, "workload seed")
		jobs    = flag.Int("jobs", runtime.NumCPU(), "campaign worker pool size")
		timeout = flag.Duration("timeout", 0, "per-cell wall-clock deadline (0 = none)")
		stall   = flag.Duration("stall", 0, "cancel a cell whose simulated cycles stop advancing for this long (0 = off)")
		retries = flag.Int("retries", 1, "re-runs per failed or timed-out cell")
		journal = flag.String("journal", "", "JSONL checkpoint journal path (\"\" = no checkpointing)")
		resume  = flag.String("resume", "", "resume from this journal: skip done cells, re-run failures")
		coord   = flag.String("coordinator", "", "run campaigns on this sweep-fabric coordinator (base URL of `mtvpd serve`; \"\" = local worker pool)")
		token   = flag.String("token", "", "bearer token for the fabric coordinator")
		showVer = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVer {
		version.Print(os.Stdout, "mtvpreport")
		return
	}
	if err := checkRetries(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opt := experiments.DefaultOptions()
	opt.Insts = *insts
	opt.Seed = *seed
	opt.Parallel = *jobs
	opt.Timeout = *timeout
	opt.StallTimeout = *stall
	opt.Retries = *retries
	opt.Journal = *journal
	opt.HandleSignals = true
	opt.Summary = &harness.Summary{}
	opt.OnEvent = harness.PrintEvents(os.Stderr)
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

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := experiments.GenerateReport(opt, w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if opt.Summary.Total > 0 {
			opt.Summary.Render(os.Stderr)
		}
		var failed *harness.FailedError
		var interrupted *harness.InterruptedError
		switch {
		case errors.As(err, &failed):
			for _, f := range failed.Failures {
				fmt.Fprintf(os.Stderr, "  %s\n", f)
			}
			os.Exit(4)
		case errors.As(err, &interrupted):
			os.Exit(interrupted.ExitCode())
		case errors.Is(err, harness.ErrInterrupted):
			os.Exit(130)
		}
		os.Exit(1)
	}
	if opt.Summary.Total > 0 {
		opt.Summary.Render(os.Stderr)
	}
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
