// Command mtvpsim runs one benchmark on one machine configuration and
// prints its statistics.
//
// Usage:
//
//	mtvpsim -bench mcf -machine mtvp -contexts 4 -vpred wf -sel ilp
//	mtvpsim -bench mcf -machine mtvp -vpred dfcm3 -sel always
//	mtvpsim -bench mcf -machine mtvp -check -faults spawn-storm
//	mtvpsim -bench mcf -deadline 30s   # cancel cooperatively if it wedges
//	mtvpsim -bench mcf -engine cycle   # per-cycle stepping (the reference)
//	mtvpsim -list
//
// The -engine flag selects the simulation scheduler: "event" (the default
// calendar-driven core, which jumps over idle cycles) or "cycle" (plain
// per-cycle stepping, the reference the calendar is tested against). Both
// produce bit-identical results (test-enforced); the flag exists for
// checking one against the other and for profiling. Exit codes are
// identical under either engine.
//
// Exit codes: 0 on success, 1 on usage or generic simulation errors, 2 when
// the lockstep oracle checker detects a divergence (a wrong committed
// value), 3 when the engine aborts with a structured fault report
// (recovery exhausted under a fault campaign), 128+signum when a SIGINT or
// SIGTERM stopped the run (130/143; the engine halts cooperatively at the
// next observer poll, so trace and series sinks are still flushed).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/fault"
	"mtvp/internal/hostperf"
	"mtvp/internal/oracle"
	"mtvp/internal/telemetry"
	"mtvp/internal/trace"
	"mtvp/internal/version"
	"mtvp/internal/workload"
)

// Exit codes. Scripts driving fault campaigns distinguish "the machine
// committed a wrong value" (the one outcome the robustness contract
// forbids) from "the machine gave up cleanly".
const (
	exitOK         = 0
	exitErr        = 1
	exitDivergence = 2
	exitFault      = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// exitCode maps a simulation error to the process exit code.
func exitCode(err error) int {
	if err == nil {
		return exitOK
	}
	if oracle.IsDivergence(err) {
		return exitDivergence
	}
	var rep *fault.Report
	if errors.As(err, &rep) {
		return exitFault
	}
	return exitErr
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtvpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "mcf", "benchmark name (see -list)")
		machine   = fs.String("machine", "baseline", "baseline | stvp | mtvp | mtvp-nostall | multival | spawn-only | wide-window")
		contexts  = fs.Int("contexts", 4, "hardware thread contexts (mtvp machines)")
		pred      = fs.String("vpred", "wf", "value predictor: "+strings.Join(config.PredictorNames(), " | "))
		sel       = fs.String("sel", "ilp", "load selector: ilp | l3 | always")
		engine    = fs.String("engine", "event", "simulation scheduler: event (calendar-driven) | cycle (per-cycle reference); results are bit-identical")
		spawnLat  = fs.Int("spawnlat", -1, "spawn latency in cycles (-1 = machine default)")
		storeBuf  = fs.Int("storebuf", -1, "store buffer entries per context (-1 = default, 0 = unbounded)")
		insts     = fs.Uint64("insts", 300_000, "useful committed instruction budget")
		seed      = fs.Uint64("seed", 1, "workload seed")
		noPrefS   = fs.Bool("noprefetch", false, "disable the stride prefetcher")
		check     = fs.Bool("check", false, "run the lockstep oracle checker and pipeline invariant auditor (slower; fails loudly on any divergence)")
		faults    = fs.String("faults", "", "fault-injection profile (pred-flip, spawn-storm, stuck-iq, monsoon, ...; \"\" = none)")
		faultSeed = fs.Uint64("faultseed", 1, "fault injector seed (campaigns are reproducible from profile+seed)")
		watchdog  = fs.Int64("watchdog", 0, "recovery watchdog base in cycles (0 = default)")
		deadline  = fs.Duration("deadline", 0, "wall-clock deadline; the engine is canceled at the next observer poll (0 = none)")
		list      = fs.Bool("list", false, "list benchmarks and exit")
		traceN    = fs.Uint64("trace", 0, "print the first N pipeline trace events to stderr")
		traceKind = fs.String("tracekinds", "", "comma-separated event kinds to trace (spawn,confirm,kill,commit,fault,...)")
		traceJSON = fs.String("trace-json", "", "write the full pipeline event stream as JSONL to FILE (-tracekinds filters it too)")
		perfetto  = fs.String("perfetto", "", "write a Chrome trace-event (Perfetto/about:tracing) timeline to FILE")
		series    = fs.String("series", "", "write a cycle-bucketed time series to FILE (.csv = CSV, else JSONL)")
		seriesN   = fs.Int64("series-every", telemetry.DefaultSampleEvery, "time-series bucket width in cycles")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the host process to FILE")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile at exit to FILE")
		showVer   = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return exitErr
	}
	if *showVer {
		version.Print(stdout, "mtvpsim")
		return exitOK
	}

	stopProfiles, err := hostperf.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitErr
	}
	// Flushed by defer so profiles survive every exit path, including a
	// divergence or structured fault abort — profiling a failing run is a
	// perfectly good reason to profile.
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}()

	if *list {
		for _, b := range workload.All() {
			fmt.Fprintf(stdout, "%-12s %-8s %s\n", b.Name, b.Kind, b.Suite)
		}
		return exitOK
	}

	bench, err := workload.ByName(*benchName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitErr
	}

	pk, err := config.ParsePredictor(*pred)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitErr
	}
	sk, err := config.ParseSelector(*sel)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return exitErr
	}

	var cfg config.Config
	switch *machine {
	case "baseline":
		cfg = core.Baseline()
	case "stvp":
		cfg = core.STVP(pk, sk)
	case "mtvp":
		cfg = core.MTVP(*contexts, pk, sk)
	case "mtvp-nostall":
		cfg = core.MTVPNoStall(*contexts, pk, sk)
	case "multival":
		cfg = core.MTVPMultiValue(*contexts, 3, 6)
	case "spawn-only":
		cfg = core.SpawnOnly(*contexts)
	case "wide-window":
		cfg = core.WideWindow()
	default:
		fmt.Fprintf(stderr, "unknown machine %q\n", *machine)
		return exitErr
	}
	switch *engine {
	case "event":
		// Default: Config zero value.
	case "cycle":
		cfg.PerCycle = true
	default:
		fmt.Fprintf(stderr, "unknown engine %q (want event or cycle)\n", *engine)
		return exitErr
	}
	if *spawnLat >= 0 {
		cfg.VP.SpawnLatency = *spawnLat
	}
	if *storeBuf >= 0 {
		cfg.VP.StoreBufEntries = *storeBuf
	}
	if *noPrefS {
		cfg.Prefetch.Enabled = false
	}
	cfg.MaxInsts = *insts
	cfg.Seed = *seed
	cfg.Check = *check
	cfg.Faults.Profile = *faults
	cfg.Faults.Seed = *faultSeed
	cfg.Recovery.WatchdogCycles = *watchdog
	if _, err := fault.ByName(*faults); err != nil {
		fmt.Fprintln(stderr, err)
		return exitErr
	}

	if *deadline > 0 {
		// Cooperative wall-clock deadline: the engine polls the observer
		// every ~1k cycles and stops with pipeline.ErrCanceled once the
		// budget is spent — the same hook the campaign harness supervises
		// sweeps through.
		start := time.Now()
		limit := *deadline
		cfg.Observe = func(cycles, commits uint64) bool {
			return time.Since(start) < limit
		}
	}

	// Graceful SIGINT/SIGTERM: stop the engine at the next observer poll so
	// every sink still flushes (the partial timeline of an interrupted run
	// is worth keeping), then exit 128+signum.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	var gotSig os.Signal
	prevObserve := cfg.Observe
	cfg.Observe = func(cycles, commits uint64) bool {
		select {
		case s := <-sigCh:
			gotSig = s
			return false
		default:
		}
		return prevObserve == nil || prevObserve(cycles, commits)
	}

	prog, image := bench.Build(*seed)

	var kinds []trace.Kind
	if *traceKind != "" {
		var err error
		if kinds, err = parseKinds(*traceKind); err != nil {
			fmt.Fprintln(stderr, err)
			return exitErr
		}
	}

	var tracers []trace.Tracer
	if *traceN > 0 {
		tracers = append(tracers, &trace.Writer{W: stderr, Max: *traceN, Kinds: kinds})
	}
	var jsonSink *telemetry.JSONLSink
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitErr
		}
		defer f.Close()
		jsonSink = telemetry.NewJSONLSink(f)
		jsonSink.Kinds = kinds
		tracers = append(tracers, jsonSink)
	}
	var perfettoSink *telemetry.PerfettoSink
	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return exitErr
		}
		defer f.Close()
		perfettoSink = telemetry.NewPerfettoSink(f)
		tracers = append(tracers, perfettoSink)
	}

	ins := core.Instruments{Tracer: trace.Multi(tracers...)}
	if *series != "" {
		ins.Sampler = telemetry.NewSampler(*seriesN)
	}

	res, runErr := core.RunInstrumented(cfg, prog, image, ins)

	// Sinks are flushed even when the run failed: a canceled or faulted
	// run's partial timeline is exactly what you want to look at.
	if jsonSink != nil {
		if err := jsonSink.Close(); err != nil {
			fmt.Fprintf(stderr, "trace-json: %v\n", err)
		}
	}
	if perfettoSink != nil {
		if err := perfettoSink.Close(); err != nil {
			fmt.Fprintf(stderr, "perfetto: %v\n", err)
		}
	}
	if ins.Sampler != nil {
		if err := writeSeries(*series, ins.Sampler); err != nil {
			fmt.Fprintf(stderr, "series: %v\n", err)
		}
	}
	if gotSig != nil {
		fmt.Fprintf(stderr, "mtvpsim: %v: run stopped at the next observer poll (sinks flushed)\n", gotSig)
		if s, ok := gotSig.(syscall.Signal); ok {
			return 128 + int(s)
		}
		return 130
	}
	if runErr != nil {
		fmt.Fprintln(stderr, runErr)
		return exitCode(runErr)
	}

	s := &res.Stats
	fmt.Fprintf(stdout, "benchmark  %s (%s, %s)\n", bench.Name, bench.Kind, bench.Suite)
	fmt.Fprintf(stdout, "machine    %s pred=%s sel=%s contexts=%d spawn=%dcyc storebuf=%d engine=%s\n",
		*machine, cfg.VP.Predictor, cfg.VP.Selector, cfg.Contexts,
		cfg.VP.SpawnLatency, cfg.VP.StoreBufEntries, *engine)
	fmt.Fprintf(stdout, "cycles     %d\n", s.Cycles)
	fmt.Fprintf(stdout, "committed  %d (useful)\n", s.Committed)
	if *check {
		fmt.Fprintf(stdout, "checked    %d useful commits verified against the lockstep oracle\n", res.Checked)
	}
	fmt.Fprintf(stdout, "IPC        %.4f\n", s.UsefulIPC())
	fmt.Fprintf(stdout, "branches   %d (%.2f%% mispredicted)\n", s.Branches,
		100*float64(s.BranchWrong)/maxf(float64(s.Branches), 1))
	fmt.Fprintf(stdout, "loads      %d  DL1 miss %d  L2 miss %d  L3 miss %d  sbuf fwd %d\n",
		s.Loads, s.DL1Miss, s.L2Miss, s.L3Miss, s.StoreBufHits)
	fmt.Fprintf(stdout, "prefetch   issued %d  stream hits %d\n", s.PrefIssued, s.PrefHits)
	if s.VPLookups > 0 {
		fmt.Fprintf(stdout, "vpred      lookups %d  confident %d  followed %d  correct %d  wrong %d (acc %.3f)\n",
			s.VPLookups, s.VPConfident, s.VPPredicted, s.VPCorrect, s.VPWrong, s.VPAccuracy())
		fmt.Fprintf(stdout, "threads    spawns %d  confirms %d  kills %d  stvp %d  reissues %d  squashed %d\n",
			s.Spawns, s.Confirms, s.Kills, s.STVPUsed, s.Reissues, s.Squashed)
		if s.VPWrongButPresent > 0 || s.MultiValueSaves > 0 {
			fmt.Fprintf(stdout, "multival   wrong-but-present %d  saves %d\n",
				s.VPWrongButPresent, s.MultiValueSaves)
		}
	}
	if *faults != "" && *faults != "none" {
		fmt.Fprintf(stdout, "faults     profile %s seed %d  injected %d (flip %d alias %d sdrop %d scorrupt %d slost %d sdup %d mdelay %d stick %d)\n",
			*faults, *faultSeed, s.FaultsInjected,
			s.FaultPredBitFlip, s.FaultPredAlias, s.FaultStoreDrop, s.FaultStoreCorrupt,
			s.FaultSpawnLost, s.FaultSpawnDup, s.FaultMemDelay, s.FaultIQStick)
	}
	if s.DeadlockBreaks > 0 || s.Degradations > 0 || s.QuarantineClamps > 0 ||
		s.QuarantineDisables > 0 || s.RecoveryUnsticks > 0 {
		fmt.Fprintf(stdout, "recovery   breaks %d  unsticks %d  degradations %d  restorations %d  quarantine clamp %d disable %d suppressed %d\n",
			s.DeadlockBreaks, s.RecoveryUnsticks, s.Degradations, s.Restorations,
			s.QuarantineClamps, s.QuarantineDisables, s.QuarantineSuppressed)
	}
	return exitOK
}

// writeSeries writes the sampler's time series to path: CSV when the name
// ends in .csv, JSONL otherwise.
func writeSeries(path string, s *telemetry.Sampler) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		if err := s.WriteCSV(f); err != nil {
			return err
		}
	} else {
		if err := s.WriteJSONL(f); err != nil {
			return err
		}
	}
	return f.Close()
}

func parseKinds(csv string) ([]trace.Kind, error) {
	var out []trace.Kind
	for _, part := range strings.Split(csv, ",") {
		k, ok := trace.KindByName(strings.TrimSpace(part))
		if !ok {
			return nil, fmt.Errorf("unknown trace kind %q (known: %s)",
				part, strings.Join(trace.KindNames(), ","))
		}
		out = append(out, k)
	}
	return out, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
