package telemetry

import (
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("in_flight", "running")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
	// Re-registering the same name returns the same instrument.
	if r.Counter("jobs_total", "jobs") != c {
		t.Error("re-registration returned a different counter")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last by name").Add(3)
	r.Gauge("aa_gauge", "first by name").Set(-2)
	r.GaugeFunc("mm_func", "computed", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP aa_gauge first by name",
		"# TYPE aa_gauge gauge",
		"aa_gauge -2",
		"# TYPE zz_total counter",
		"zz_total 3",
		"mm_func 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Deterministic name ordering.
	if strings.Index(out, "aa_gauge") > strings.Index(out, "zz_total") {
		t.Error("metrics not sorted by name")
	}
	// Two scrapes render identically.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if got := b2.String(); got != out {
		t.Errorf("scrape not deterministic:\n%s\nvs\n%s", out, got)
	}
}

func TestObserveAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
	}); n != 0 {
		t.Errorf("hot path allocates %.1f allocs/op, want 0", n)
	}
}

func TestLabeledGaugeFamilies(t *testing.T) {
	r := NewRegistry()
	r.LabeledGaugeFunc("fleet_leases", `worker="w1"`, "leases held", func() float64 { return 2 })
	r.LabeledGaugeFunc("fleet_leases", `worker="w2"`, "leases held", func() float64 { return 3 })
	// Re-registering the same series is a no-op, not a duplicate.
	r.LabeledGaugeFunc("fleet_leases", `worker="w1"`, "leases held", func() float64 { return 99 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP fleet_leases leases held\n",
		"# TYPE fleet_leases gauge\n",
		`fleet_leases{worker="w1"} 2` + "\n",
		`fleet_leases{worker="w2"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// One HELP/TYPE header per family, not per series.
	if strings.Count(out, "# TYPE fleet_leases gauge") != 1 {
		t.Errorf("family header repeated:\n%s", out)
	}
	if strings.Contains(out, "} 99") {
		t.Errorf("re-registration replaced an existing series:\n%s", out)
	}
}
