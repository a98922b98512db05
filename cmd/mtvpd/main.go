// Command mtvpd is the distributed sweep fabric daemon: the campaign
// coordinator and the worker agent (internal/fabric).
//
// Usage:
//
//	mtvpd serve -addr :8100 -token T -journal-dir /var/lib/mtvp
//	mtvpd work  -coordinator http://sweep-host:8100 -token T -slots 8
//
// `serve` runs the coordinator: it accepts campaigns (mtvpbench
// -coordinator, mtvpreport -coordinator, or any fabric client), shards
// their cells across attached workers with TTL leases, requeues cells
// whose workers die, dedupes double completions, and persists every
// finished cell to a per-campaign fsynced journal under -journal-dir so a
// coordinator crash or restart resumes campaigns without re-running done
// cells. The same listener serves an unauthenticated liveness probe on
// /healthz.
//
// `work` runs a worker agent: it pulls cell leases from the coordinator,
// simulates them (the full machine config rides in each lease, so the
// agent never re-derives experiment presets), heartbeats each lease to
// keep it alive, and reports results. Any number of agents may attach and
// detach at any time.
//
// The fleet is trusted: workers are the operator's own machines. Every
// result still carries an attestation digest over (campaign, cell key,
// config fingerprint, payload), so a payload damaged in transit or at rest
// is rejected and its cell requeued without charging its retry budget.
//
// Both subcommands shut down gracefully on SIGINT or SIGTERM and then exit
// 0: `serve` stops its listener and flushes every campaign journal;
// `work` cancels in-flight cells at the next observer poll and hands their
// leases back to the coordinator (a voluntary release, which requeues the
// cells immediately without charging their retry budgets). A second signal
// aborts immediately with exit 1. Other failures exit 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mtvp/internal/experiments"
	"mtvp/internal/fabric"
	"mtvp/internal/version"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(1)
	}
	var code int
	switch os.Args[1] {
	case "serve":
		code = serveCmd(os.Args[2:])
	case "work":
		code = workCmd(os.Args[2:])
	case "-version", "--version", "version":
		version.Print(os.Stdout, "mtvpd")
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "mtvpd: unknown subcommand %q\n\n", os.Args[1])
		usage(os.Stderr)
		code = 1
	}
	os.Exit(code)
}

func usage(w *os.File) {
	fmt.Fprintln(w, `mtvpd — distributed sweep fabric daemon

Subcommands:
  serve   run the campaign coordinator
  work    run a worker agent attached to a coordinator

Run "mtvpd <subcommand> -h" for flags; "mtvpd -version" prints the build.`)
}

// signalCtx returns a context cancelled by the first SIGINT/SIGTERM; a
// second signal exits 1 immediately (the escape hatch from a slow drain).
func signalCtx(logf func(string, ...any)) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigCh
		logf("mtvpd: %v: shutting down gracefully (again to abort)", s)
		cancel()
		<-sigCh
		logf("mtvpd: second signal: aborting")
		os.Exit(1)
	}()
	return ctx, cancel
}

func stderrLogf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func serveCmd(args []string) int {
	fs := flag.NewFlagSet("mtvpd serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", ":8100", "listen address for the API and /healthz")
		token      = fs.String("token", "", "bearer token required on every /api/v1 request (\"\" disables auth; loopback only)")
		journalDir = fs.String("journal-dir", "", "directory for per-campaign specs and fsynced result journals (\"\" = in-memory only, no crash resume)")
		leaseTTL   = fs.Duration("lease-ttl", 15*time.Second, "job lease time-to-live; a lease not heartbeat-extended within it expires and the cell requeues")
		retries    = fs.Int("retries", 3, "requeue budget per cell (lost workers and reported failures both spend it)")
		quiet      = fs.Bool("quiet", false, "suppress coordinator event logging on stderr")
	)
	fs.Parse(args)

	logf := stderrLogf
	if *quiet {
		logf = func(string, ...any) {}
	}
	co, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		LeaseTTL:   *leaseTTL,
		Retries:    *retries,
		JournalDir: *journalDir,
		Logf:       logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv, err := fabric.NewServer(co, fabric.ServerConfig{Addr: *addr, Token: *token})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	logf("mtvpd: coordinator on %s (journals: %s, lease TTL %s, %d retries per cell)",
		srv.URL(), orNone(*journalDir), *leaseTTL, *retries)
	if *token == "" {
		logf("mtvpd: WARNING: no -token set; the API is unauthenticated")
	}

	ctx, cancel := signalCtx(logf)
	defer cancel()
	<-ctx.Done()
	srv.Close()
	co.Close() // flushes and closes every campaign journal
	logf("mtvpd: coordinator stopped, journals flushed")
	return 0
}

func workCmd(args []string) int {
	fs := flag.NewFlagSet("mtvpd work", flag.ExitOnError)
	var (
		coordinator = fs.String("coordinator", "http://127.0.0.1:8100", "coordinator base URL")
		token       = fs.String("token", "", "bearer token for the coordinator")
		name        = fs.String("name", "", "stable worker name, recorded in campaign journals (\"\" = host:pid)")
		slots       = fs.Int("slots", 0, "cells simulated concurrently (0 = GOMAXPROCS)")
		poll        = fs.Duration("poll", 500*time.Millisecond, "idle backoff between lease attempts when the queue is empty (jittered ±50%)")
		reportTO    = fs.Duration("report-timeout", 0, "per-attempt timeout for result uploads (0 selects 10s)")
		quiet       = fs.Bool("quiet", false, "suppress agent event logging on stderr")
	)
	fs.Parse(args)

	logf := stderrLogf
	if *quiet {
		logf = func(string, ...any) {}
	}
	ctx, cancel := signalCtx(logf)
	defer cancel()

	err := fabric.RunWorker(ctx, fabric.WorkerConfig{
		Coordinator:   *coordinator,
		Token:         *token,
		Name:          *name,
		Slots:         *slots,
		Poll:          *poll,
		ReportTimeout: *reportTO,
		Run:           experiments.RunSpec,
		Logf:          logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
