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

func TestHistogramLogBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1010 {
		t.Errorf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if m := h.Mean(); m < 168 || m > 169 {
		t.Errorf("mean = %v", m)
	}
	// Expected bucketing: 0 -> bound 1; 1 -> bound 2; 2,3 -> bound 4;
	// 4 -> bound 8; 1000 -> bound 1024.
	want := map[uint64]uint64{1: 1, 2: 1, 4: 2, 8: 1, 1024: 1}
	bs := h.Buckets()
	if len(bs) != len(want) {
		t.Fatalf("bucket count = %d, want %d (%v)", len(bs), len(want), bs)
	}
	var prev uint64
	for _, b := range bs {
		if b.UpperBound <= prev {
			t.Errorf("buckets not ascending: %v", bs)
		}
		prev = b.UpperBound
		if want[b.UpperBound] != b.Count {
			t.Errorf("bucket le=%d count=%d, want %d", b.UpperBound, b.Count, want[b.UpperBound])
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last by name").Add(3)
	r.Gauge("aa_gauge", "first by name").Set(-2)
	r.GaugeFunc("mm_func", "computed", func() float64 { return 1.5 })
	h := r.Histogram("hh_hist", "latency")
	h.Observe(1)
	h.Observe(3)

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
		"# TYPE hh_hist histogram",
		`hh_hist_bucket{le="2"} 1`,
		`hh_hist_bucket{le="4"} 2`, // cumulative
		`hh_hist_bucket{le="+Inf"} 2`,
		"hh_hist_sum 4",
		"hh_hist_count 2",
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
	var h Histogram
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.Observe(17)
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
