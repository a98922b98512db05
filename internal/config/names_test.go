package config

import (
	"errors"
	"strings"
	"testing"
)

// TestParsePredictorRegistry round-trips every registered predictor name
// through ParsePredictor and the kind's String form: the registry and the
// stringers can never disagree.
func TestParsePredictorRegistry(t *testing.T) {
	names := PredictorNames()
	if len(names) != int(predKinds) {
		t.Fatalf("PredictorNames has %d entries for %d kinds", len(names), int(predKinds))
	}
	for _, name := range names {
		k, err := ParsePredictor(name)
		if err != nil {
			t.Fatalf("ParsePredictor(%q): %v", name, err)
		}
		if k.String() != name {
			t.Errorf("ParsePredictor(%q) = %v, which strings as %q", name, k, k.String())
		}
	}
	// Historical CLI aliases keep resolving.
	for alias, want := range map[string]PredictorKind{
		"dfcm": PredDFCM, "eq": PredEqualityLCV,
	} {
		if k, err := ParsePredictor(alias); err != nil || k != want {
			t.Errorf("ParsePredictor(%q) = %v, %v; want %v", alias, k, err, want)
		}
	}
}

// TestParseUnknownNamesStructured checks the structured error contract: an
// unknown name yields an *UnknownNameError that names what failed and lists
// every valid choice.
func TestParseUnknownNamesStructured(t *testing.T) {
	cases := []struct {
		what  string
		parse func(string) error
		valid []string
	}{
		{"predictor", func(s string) error { _, err := ParsePredictor(s); return err }, PredictorNames()},
		{"selector", func(s string) error { _, err := ParseSelector(s); return err }, SelectorNames()},
	}
	for _, c := range cases {
		err := c.parse("definitely-not-registered")
		if err == nil {
			t.Fatalf("%s: unknown name parsed without error", c.what)
		}
		var ue *UnknownNameError
		if !errors.As(err, &ue) {
			t.Fatalf("%s: error %T is not *UnknownNameError", c.what, err)
		}
		if ue.What != c.what || ue.Name != "definitely-not-registered" {
			t.Errorf("%s: error fields %+v", c.what, ue)
		}
		for _, v := range c.valid {
			if !strings.Contains(err.Error(), v) {
				t.Errorf("%s: error %q does not list valid name %q", c.what, err, v)
			}
		}
	}
}

// TestValidatePredictor is the table-driven validation suite for the
// predictor registry: out-of-range kinds must be rejected with an error
// listing the valid names, and every registered kind must validate.
func TestValidatePredictor(t *testing.T) {
	bad := []struct {
		name    string
		mutate  func(*Config)
		errHint string // substring the error must carry
	}{
		{"predictor kind below range", func(c *Config) { c.VP.Predictor = -1 }, "unknown predictor"},
		{"predictor kind above range", func(c *Config) { c.VP.Predictor = predKinds }, "unknown predictor"},
		{"predictor kind far above range", func(c *Config) { c.VP.Predictor = 99 }, "oracle"},
		{"equality without table", func(c *Config) { c.VP.Predictor = PredEqualityLCV; c.VP.Equality.TableEntries = 0 }, "equality"},
		{"equality without decay period", func(c *Config) { c.VP.Predictor = PredEqualityLCV; c.VP.Equality.DecayPeriod = 0 }, "equality"},
	}
	for _, tc := range bad {
		c := Baseline()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.errHint) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.errHint)
		}
	}

	for k := PredictorKind(0); k < predKinds; k++ {
		c := Baseline().WithMTVP(4, k, SelILPPred)
		if err := c.Validate(); err != nil {
			t.Errorf("registered predictor %v rejected: %v", k, err)
		}
	}
}
