package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mtvp/internal/fault"
	"mtvp/internal/oracle"
)

func TestExitCode(t *testing.T) {
	div := &oracle.Divergence{Reason: "value mismatch"}
	rep := &fault.Report{Reason: "recovery exhausted"}
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, exitOK},
		{"generic", errors.New("boom"), exitErr},
		{"divergence", div, exitDivergence},
		{"wrapped divergence", fmt.Errorf("core: mcf: %w", error(div)), exitDivergence},
		{"fault report", rep, exitFault},
		{"wrapped fault report", fmt.Errorf("core: mcf: %w", error(rep)), exitFault},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("%s: exitCode = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRunList(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-list"}, &out, &errw); code != exitOK {
		t.Fatalf("-list exited %d: %s", code, errw.String())
	}
	if out.Len() == 0 {
		t.Fatal("-list printed nothing")
	}
}

func TestRunBadInputs(t *testing.T) {
	cases := [][]string{
		{"-bench", "no-such-bench"},
		{"-machine", "no-such-machine"},
		{"-vpred", "no-such-pred"},
		{"-sel", "no-such-sel"},
		{"-sel", "never"},
		{"-faults", "no-such-profile"},
		{"-engine", "no-such-engine"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != exitErr {
			t.Errorf("run(%v) exited %d, want %d", args, code, exitErr)
		}
	}
}

// TestRunRemovedPredictorRejected: the retired predictors are gone from
// -vpred, and naming one lists exactly the registered choices.
func TestRunRemovedPredictorRejected(t *testing.T) {
	for _, name := range []string{"fcm3", "fcm", "lastvalue", "stride", "vpq-stride", "vpq", "eqlcv", "eq"} {
		var out, errw bytes.Buffer
		if code := run([]string{"-vpred", name}, &out, &errw); code != exitErr {
			t.Fatalf("-vpred %s exited %d, want %d", name, code, exitErr)
		}
		if want := "(valid: oracle, wf, dfcm3)"; !strings.Contains(errw.String(), want) {
			t.Errorf("-vpred %s error %q does not list exactly %s", name, errw.String(), want)
		}
	}
}

// TestRunSharingFlagRemoved: predictor tables are always shared by every
// context, so the flag that chose another organisation is gone.
func TestRunSharingFlagRemoved(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-vpred-sharing", "private"}, &out, &errw); code != exitErr {
		t.Fatalf("-vpred-sharing private exited %d, want %d", code, exitErr)
	}
	if want := "flag provided but not defined: -vpred-sharing"; !strings.Contains(errw.String(), want) {
		t.Errorf("error %q does not say %q", errw.String(), want)
	}
}

func TestRunCheckedCleanExitsZero(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-bench", "mcf", "-machine", "mtvp", "-contexts", "4",
		"-check", "-insts", "3000"}
	if code := run(args, &out, &errw); code != exitOK {
		t.Fatalf("checked run exited %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "checked") {
		t.Fatalf("checked run output missing checker line:\n%s", out.String())
	}
}

// TestRunEngineFlag pins the -engine contract at the CLI level: both
// schedulers exit zero on a checked run and print identical statistics
// (only the machine banner, which names the engine, may differ).
func TestRunEngineFlag(t *testing.T) {
	outputs := map[string]string{}
	for _, eng := range []string{"event", "cycle"} {
		var out, errw bytes.Buffer
		args := []string{"-bench", "mcf", "-machine", "mtvp", "-contexts", "4",
			"-check", "-insts", "3000", "-engine", eng}
		if code := run(args, &out, &errw); code != exitOK {
			t.Fatalf("-engine %s exited %d: %s", eng, code, errw.String())
		}
		if !strings.Contains(out.String(), "engine="+eng) {
			t.Fatalf("-engine %s banner missing from output:\n%s", eng, out.String())
		}
		// Strip the banner line before comparing: it is the only line
		// allowed to differ between engines.
		var kept []string
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.HasPrefix(line, "machine") {
				kept = append(kept, line)
			}
		}
		outputs[eng] = strings.Join(kept, "\n")
	}
	if outputs["event"] != outputs["cycle"] {
		t.Fatalf("engine outputs diverge:\nevent:\n%s\ncycle:\n%s",
			outputs["event"], outputs["cycle"])
	}
}

func TestRunFaultCampaignPrintsCounters(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-bench", "mcf", "-machine", "mtvp", "-contexts", "4",
		"-check", "-insts", "3000", "-faults", "spawn-storm", "-faultseed", "7"}
	code := run(args, &out, &errw)
	if code != exitOK && code != exitFault {
		t.Fatalf("campaign run exited %d (want clean recovery or structured fault): %s",
			code, errw.String())
	}
	if code == exitOK && !strings.Contains(out.String(), "faults     profile spawn-storm") {
		t.Fatalf("campaign output missing fault counters:\n%s", out.String())
	}
	if code == exitFault && !strings.Contains(errw.String(), "fault report:") {
		t.Fatalf("fault exit without a structured report on stderr:\n%s", errw.String())
	}
}
