// Package telemetry is the simulator's observability layer: a metrics
// registry (counters, gauges, log-bucketed histograms) with a
// zero-allocation hot path, a cycle-bucketed time-series sampler the
// pipeline engine feeds every cycle, machine-readable trace sinks (JSONL
// and Chrome trace-event / Perfetto), and an HTTP endpoint serving
// Prometheus-style /metrics, /healthz, and pprof for live campaigns.
//
// Everything here is strictly observational: an attached sampler or sink
// must never change simulation results (test-enforced in internal/core).
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All mutators are atomic so
// campaign-side counters can be fed from worker goroutines while an HTTP
// scraper reads them; on the simulator's single-goroutine hot path the
// uncontended atomic is effectively a plain add.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the current value by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of log2 buckets: bucket i counts observations v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i), with bucket 0 holding
// exact zeros.
const histBuckets = 65

// Histogram accumulates a distribution in power-of-two buckets. Observe is
// allocation-free: one atomic add into a fixed bucket array.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the mean observed value (0 with no observations).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// HistBucket is one non-empty histogram bucket: Count observations with
// value < UpperBound (exclusive; the bucket spans [UpperBound/2, UpperBound)).
type HistBucket struct {
	UpperBound uint64
	Count      uint64
}

// Buckets returns the non-empty buckets in ascending bound order.
func (h *Histogram) Buckets() []HistBucket {
	var out []HistBucket
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		out = append(out, HistBucket{UpperBound: upperBound(i), Count: n})
	}
	return out
}

// upperBound returns the exclusive upper bound of log2 bucket i.
func upperBound(i int) uint64 {
	if i >= 64 {
		return ^uint64(0)
	}
	return 1 << uint(i)
}

// metric is one registered instrument.
type metric struct {
	name, help string
	labels     string // Prometheus label set rendered inside {...}, "" for none
	counter    *Counter
	gauge      *Gauge
	gaugeFunc  func() float64
	hist       *Histogram
}

// series is the full exposition identity of a metric: name plus labels.
func (m *metric) series() string {
	if m.labels == "" {
		return m.name
	}
	return m.name + "{" + m.labels + "}"
}

// Registry holds named instruments. Registration (setup time) allocates;
// the returned instruments are then fed without locks or allocation.
// Export order is sorted by name, so rendered output is deterministic.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	metrics []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

func (r *Registry) register(name, help string, fill func(*metric)) *metric {
	return r.registerLabeled(name, "", help, fill)
}

func (r *Registry) registerLabeled(name, labels, help string, fill func(*metric)) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := &metric{name: name, labels: labels, help: help}
	key := m.series()
	if m, ok := r.byName[key]; ok {
		return m
	}
	fill(m)
	r.byName[key] = m
	r.metrics = append(r.metrics, m)
	sort.Slice(r.metrics, func(i, j int) bool { return r.metrics[i].series() < r.metrics[j].series() })
	return m
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, func(m *metric) { m.counter = &Counter{} }).counter
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, func(m *metric) { m.gauge = &Gauge{} }).gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time (e.g.
// a heartbeat age derived from wall-clock now).
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(name, help, func(m *metric) { m.gaugeFunc = f })
}

// LabeledGaugeFunc registers a scrape-time gauge rendered with a Prometheus
// label set, e.g. LabeledGaugeFunc("mtvp_build_info", `version="v1"`, ...)
// exports `mtvp_build_info{version="v1"} 1`. Series sharing a metric name
// (differing only in labels) render as one family under a single HELP/TYPE
// header. Re-registering an existing (name, labels) pair is a no-op.
func (r *Registry) LabeledGaugeFunc(name, labels, help string, f func() float64) {
	r.registerLabeled(name, labels, help, func(m *metric) { m.gaugeFunc = f })
}

// Histogram returns (registering on first use) the named histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, func(m *metric) { m.hist = &Histogram{} }).hist
}

// snapshot returns the registered metrics in name order.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	return out
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format, sorted by metric name then label set. Histograms
// render as cumulative _bucket series plus _sum and _count. Labeled series
// sharing a metric name render under one HELP/TYPE header.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastHeader := ""
	for _, m := range r.snapshot() {
		if m.name != lastHeader {
			lastHeader = m.name
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
					return err
				}
			}
			kind := ""
			switch {
			case m.counter != nil:
				kind = "counter"
			case m.gauge != nil, m.gaugeFunc != nil:
				kind = "gauge"
			}
			if kind != "" {
				if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, kind); err != nil {
					return err
				}
			}
		}
		var err error
		switch {
		case m.counter != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.series(), m.counter.Value())
		case m.gauge != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.series(), m.gauge.Value())
		case m.gaugeFunc != nil:
			_, err = fmt.Fprintf(w, "%s %g\n", m.series(), m.gaugeFunc())
		case m.hist != nil:
			err = writePromHistogram(w, m.name, m.hist)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	cum := uint64(0)
	for _, b := range h.Buckets() {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b.UpperBound, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum(), name, h.Count())
	return err
}
