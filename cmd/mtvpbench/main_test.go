package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mtvp/internal/experiments"
)

// TestRetriesRefusedWithCoordinator: an explicit -retries with -coordinator
// is refused, naming the mtvpd serve flag that sets the budget; either flag
// alone (or -coordinator with the default) is accepted.
func TestRetriesRefusedWithCoordinator(t *testing.T) {
	for _, c := range []struct {
		args   []string
		refuse bool
	}{
		{[]string{"-retries", "5"}, false},
		{[]string{"-coordinator", "http://127.0.0.1:8100"}, false},
		{[]string{"-coordinator", "http://127.0.0.1:8100", "-retries", "1"}, true},
		{[]string{"-retries", "3", "-coordinator", "http://127.0.0.1:8100"}, true},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.Int("retries", 1, "")
		fs.String("coordinator", "", "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		err := checkRetries(fs)
		if (err != nil) != c.refuse {
			t.Errorf("%v: err = %v, want refused=%v", c.args, err, c.refuse)
		}
		if err != nil && !strings.Contains(err.Error(), "mtvpd serve -retries") {
			t.Errorf("%v: error %q does not name mtvpd serve -retries", c.args, err)
		}
	}
}

// TestSelectExperiments: -exp takes any registry name, table1 included,
// or all; an unknown name is refused with every name it could have been.
func TestSelectExperiments(t *testing.T) {
	exps, err := selectExperiments("all")
	if err != nil || len(exps) != len(experiments.Registry) {
		t.Errorf("all: %d experiments, err %v; want all %d", len(exps), err, len(experiments.Registry))
	}
	for _, e := range experiments.Registry {
		exps, err := selectExperiments(e.Name)
		if err != nil || len(exps) != 1 || exps[0].Name != e.Name {
			t.Errorf("%s: %d experiments, err %v; want just %s", e.Name, len(exps), err, e.Name)
		}
	}
	if exps, err := selectExperiments("table1"); err != nil || len(exps) != 1 {
		t.Errorf("table1: %d experiments, err %v; want the registry's table1", len(exps), err)
	}
	_, err = selectExperiments("fig7")
	if err == nil {
		t.Fatal("unknown experiment fig7 accepted")
	}
	for _, name := range []string{"fig7", "table1", "all"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("refusal %q does not name %s", err, name)
		}
	}
	for _, e := range experiments.Registry {
		if !strings.Contains(err.Error(), e.Name) {
			t.Errorf("refusal %q does not list %s", err, e.Name)
		}
	}
}

// TestInstsDefaultMatchesReport: the committed EXPERIMENTS.md states its
// run length in its header, and -insts must default to it, so that
// `mtvpbench -exp all` without -insts reproduces it.
func TestInstsDefaultMatchesReport(t *testing.T) {
	report, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`with\s+(\d+)\s+useful\s+instructions\s+per\s+run`).FindSubmatch(report)
	if m == nil {
		t.Fatal("EXPERIMENTS.md does not state its useful instructions per run")
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-h"}, &out, &errw); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	d := regexp.MustCompile(`-insts uint\n\s+useful committed instructions per run \(default (\d+)\)`).FindStringSubmatch(errw.String())
	if d == nil {
		t.Fatalf("no -insts default in the usage:\n%s", errw.String())
	}
	if d[1] != string(m[1]) {
		t.Errorf("-insts defaults to %s, EXPERIMENTS.md is generated with %s useful instructions per run", d[1], m[1])
	}
}

// unreachable is a coordinator URL nothing listens on: any campaign sent
// there fails at submission.
const unreachable = "http://127.0.0.1:1"

// TestTable1StartsNoCampaign: -exp table1 simulates nothing, so it prints
// the Table 1 section of the report even with an unreachable coordinator,
// and no campaign summary.
func TestTable1StartsNoCampaign(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-exp", "table1", "-coordinator", unreachable}, &out, &errw); code != 0 {
		t.Fatalf("-exp table1 exited %d: %s", code, errw.String())
	}
	want := "## Table 1 — simulator architectural parameters\n\n"
	if !strings.HasPrefix(out.String(), want) || !strings.Contains(out.String(), "```\n"+experiments.Table1()+"```\n") {
		t.Errorf("-exp table1 printed\n%s\nwant the Table 1 section with its fenced configuration dump", out.String())
	}
	if errw.Len() != 0 {
		t.Errorf("-exp table1 wrote to stderr (a campaign ran?):\n%s", errw.String())
	}
}

// TestFailedRunKeepsOutput: -o is written only after the campaign
// succeeded, so a run that fails (here, at submission to an unreachable
// coordinator) leaves an existing output file byte-identical.
func TestFailedRunKeepsOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	old := []byte("# the previous report\n")
	if err := os.WriteFile(path, old, 0o666); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	args := []string{"-exp", "fig3", "-insts", "1000", "-benchmarks", "mcf", "-coordinator", unreachable, "-o", path}
	if code := run(args, &out, &errw); code != 1 {
		t.Fatalf("run against an unreachable coordinator exited %d, want 1: %s", code, errw.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Errorf("failed run changed -o to %q, want %q", got, old)
	}
}
