package main

import (
	"flag"
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

// TestSelectExperiments: -exp takes table1, any registry name or all; an
// unknown name is refused with every name it could have been.
func TestSelectExperiments(t *testing.T) {
	table1, exps, err := selectExperiments("all")
	if err != nil || !table1 || len(exps) != len(experiments.Registry) {
		t.Errorf("all: table1=%v, %d experiments, err %v; want table1 and all %d", table1, len(exps), err, len(experiments.Registry))
	}
	if table1, exps, err := selectExperiments("table1"); err != nil || !table1 || len(exps) != 0 {
		t.Errorf("table1: table1=%v, %d experiments, err %v", table1, len(exps), err)
	}
	for _, e := range experiments.Registry {
		table1, exps, err := selectExperiments(e.Name)
		if err != nil || table1 || len(exps) != 1 || exps[0].Name != e.Name {
			t.Errorf("%s: table1=%v, %d experiments, err %v; want just %s", e.Name, table1, len(exps), err, e.Name)
		}
	}
	_, _, err = selectExperiments("fig7")
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
