package config

import (
	"errors"
	"strings"
	"testing"
)

func TestBaselineMatchesTable1(t *testing.T) {
	c := Baseline()
	if err := c.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"FetchWidth", c.FetchWidth, 16},
		{"FetchBlocks", c.FetchBlocks, 2},
		{"ROBSize", c.ROBSize, 256},
		{"RenameRegs", c.RenameRegs, 224},
		{"IQSize", c.IQSize, 64},
		{"FQSize", c.FQSize, 64},
		{"MQSize", c.MQSize, 64},
		{"IssueWidth", c.IssueWidth, 8},
		{"IntIssue", c.IntIssue, 6},
		{"FPIssue", c.FPIssue, 2},
		{"MemIssue", c.MemIssue, 4},
		{"ICache size", c.ICache.SizeBytes, 64 << 10},
		{"ICache assoc", c.ICache.Assoc, 2},
		{"ICache latency", c.ICache.Latency, 2},
		{"DL1 size", c.DL1.SizeBytes, 64 << 10},
		{"DL1 latency", c.DL1.Latency, 2},
		{"L2 size", c.L2.SizeBytes, 512 << 10},
		{"L2 assoc", c.L2.Assoc, 8},
		{"L2 latency", c.L2.Latency, 20},
		{"L3 size", c.L3.SizeBytes, 4 << 20},
		{"L3 assoc", c.L3.Assoc, 16},
		{"L3 latency", c.L3.Latency, 50},
		{"MemLatency", c.MemLatency, 1000},
		{"Prefetch entries", c.Prefetch.Entries, 256},
		{"Stream buffers", c.Prefetch.StreamBuffers, 8},
		{"Meta entries", c.Branch.MetaEntries, 64 << 10},
		{"Bimodal entries", c.Branch.BimodalEntries, 16 << 10},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestWFDefaultsMatchPaper(t *testing.T) {
	wf := DefaultWF()
	if wf.VHTEntries != 4096 || wf.ValPHTEntries != 32768 {
		t.Errorf("WF tables %d/%d, want 4K/32K", wf.VHTEntries, wf.ValPHTEntries)
	}
}

func TestPresets(t *testing.T) {
	base := Baseline()

	stvp := base.WithSTVP(PredWangFranklin, SelILPPred)
	if stvp.VP.Mode != VPSTVP || stvp.Contexts != 1 {
		t.Errorf("STVP preset: %+v", stvp.VP)
	}

	mtvp := base.WithMTVP(8, PredOracle, SelL3Oracle)
	if mtvp.VP.Mode != VPMTVP || mtvp.Contexts != 8 ||
		mtvp.VP.Predictor != PredOracle || mtvp.VP.Selector != SelL3Oracle {
		t.Errorf("MTVP preset: %+v contexts=%d", mtvp.VP, mtvp.Contexts)
	}

	ww := base.WideWindow()
	if ww.ROBSize != 8192 || ww.IQSize != 8192 || ww.VP.Mode != VPNone {
		t.Errorf("wide-window preset: rob=%d iq=%d", ww.ROBSize, ww.IQSize)
	}
	if err := ww.Validate(); err != nil {
		t.Errorf("wide-window invalid: %v", err)
	}

	so := base.SpawnOnly(4)
	if !so.VP.SpawnOnly || so.VP.Mode != VPMTVP || so.Contexts != 4 {
		t.Errorf("spawn-only preset: %+v", so.VP)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Contexts = 0 },
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.ROBSize = 0 },
		func(c *Config) { c.MemLatency = 0 },
		func(c *Config) { c.VP.Mode = VPMTVP; c.Contexts = 1 },
		func(c *Config) { c.VP.SpawnLatency = -1 },
		func(c *Config) { c.DL1.SizeBytes = 48 << 10 }, // non-power-of-two sets
		func(c *Config) { c.VP.Mode = VPMTVP + 1; c.Contexts = 4 },
		func(c *Config) { c.VP.Selector = SelAlways + 1 },
		func(c *Config) { c.VP.FetchPolicy = FetchNoStall + 1 },
	}
	for i, mutate := range bad {
		c := Baseline()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}

	// An out-of-range selector is reported like an unknown predictor,
	// listing the registered names.
	c := Baseline()
	c.VP.Selector = -1
	var unk *UnknownNameError
	if err := c.Validate(); !errors.As(err, &unk) || unk.What != "selector" {
		t.Errorf("selector -1: got %v, want an unknown-selector error", err)
	}
}

// TestValidateRejectsBadGeometry covers every cache level's geometry and
// every table size the engine builds: each must come back as an error,
// never as a divide-by-zero panic in Validate or an index panic later in
// the engine.
func TestValidateRejectsBadGeometry(t *testing.T) {
	type tc struct {
		name    string
		mutate  func(*Config)
		errHint string
	}
	var cases []tc
	levels := []struct {
		name string
		cp   func(*Config) *CacheParams
	}{
		{"IL1", func(c *Config) *CacheParams { return &c.ICache }},
		{"DL1", func(c *Config) *CacheParams { return &c.DL1 }},
		{"L2", func(c *Config) *CacheParams { return &c.L2 }},
		{"L3", func(c *Config) *CacheParams { return &c.L3 }},
	}
	for _, l := range levels {
		cp := l.cp
		cases = append(cases,
			tc{l.name + " zero assoc", func(c *Config) { cp(c).Assoc = 0 }, l.name + " Assoc"},
			tc{l.name + " negative assoc", func(c *Config) { cp(c).Assoc = -2 }, l.name + " Assoc"},
			tc{l.name + " zero line", func(c *Config) { cp(c).LineBytes = 0 }, l.name + " LineBytes"},
			tc{l.name + " 48-byte line", func(c *Config) { cp(c).LineBytes = 48 }, l.name + " LineBytes"},
			tc{l.name + " zero size", func(c *Config) { cp(c).SizeBytes = 0 }, l.name + " has no sets"},
			tc{l.name + " 3-set size", func(c *Config) { cp(c).SizeBytes = 3 * cp(c).Assoc * cp(c).LineBytes }, "power of two"},
		)
	}
	tables := []struct {
		field  string
		mutate func(*Config)
	}{
		{"Branch.MetaEntries", func(c *Config) { c.Branch.MetaEntries = 0 }},
		{"Branch.GshareEntries", func(c *Config) { c.Branch.GshareEntries = 0 }},
		{"Branch.BimodalEntries", func(c *Config) { c.Branch.BimodalEntries = 0 }},
		{"Prefetch.Entries", func(c *Config) { c.Prefetch.Entries = 0 }},
		{"Prefetch.StreamBuffers", func(c *Config) { c.Prefetch.StreamBuffers = 0 }},
		{"VP.WF.VHTEntries", func(c *Config) { c.VP.WF.VHTEntries = 0 }},
		{"VP.WF.ValPHTEntries", func(c *Config) { c.VP.WF.ValPHTEntries = -1 }},
		{"VP.DFCM.L1Entries", func(c *Config) { c.VP.Predictor = PredDFCM; c.VP.DFCM.L1Entries = 0 }},
		{"VP.DFCM.L2Entries", func(c *Config) { c.VP.Predictor = PredDFCM; c.VP.DFCM.L2Entries = 0 }},
	}
	for _, tb := range tables {
		cases = append(cases, tc{tb.field, tb.mutate, tb.field})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Baseline()
			tc.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("validated")
			}
			if !strings.Contains(err.Error(), tc.errHint) {
				t.Errorf("error %q missing %q", err, tc.errHint)
			}
		})
	}

	// Sizes of tables the configuration does not build are not checked.
	c := Baseline()
	c.VP.Predictor = PredDFCM
	c.VP.WF.VHTEntries = 0
	c.Prefetch.Enabled, c.Prefetch.Entries = false, 0
	if err := c.Validate(); err != nil {
		t.Errorf("unused zero-size tables rejected: %v", err)
	}
}

func TestCacheSets(t *testing.T) {
	cp := CacheParams{SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64}
	if s := cp.Sets(); s != 512 {
		t.Errorf("sets = %d, want 512", s)
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []string{
		VPNone.String(), VPSTVP.String(), VPMTVP.String(),
		PredOracle.String(), PredWangFranklin.String(), PredDFCM.String(),
		SelILPPred.String(), SelL3Oracle.String(),
		FetchSFP.String(), FetchNoStall.String(),
	} {
		if s == "" || s == "pred?" {
			t.Errorf("bad stringer output %q", s)
		}
	}
}
