package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestInstsDefaultMatchesReport: the committed EXPERIMENTS.md states its
// run length in its header, and -insts must default to it, so that
// regenerating the report without flags reproduces it.
func TestInstsDefaultMatchesReport(t *testing.T) {
	report, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`with\s+(\d+)\s+useful\s+instructions\s+per\s+run`).FindSubmatch(report)
	if m == nil {
		t.Fatal("EXPERIMENTS.md does not state its useful instructions per run")
	}
	f := flag.Lookup("insts")
	if f == nil {
		t.Fatal("no -insts flag")
	}
	if f.DefValue != string(m[1]) {
		t.Errorf("-insts defaults to %s, EXPERIMENTS.md is generated with %s useful instructions per run", f.DefValue, m[1])
	}
}

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
