// Package telemetry is the simulator's observability layer: a metrics
// registry (counters and gauges) with a zero-allocation hot path, the
// cycle-bucketed time-series Sampler the pipeline engine feeds directly,
// machine-readable trace sinks (JSONL and Chrome trace-event / Perfetto),
// and an HTTP endpoint serving Prometheus-style /metrics, /healthz, and
// pprof for live campaigns.
//
// Everything here is strictly observational: an attached sampler or sink
// must never change simulation results (test-enforced in internal/core).
package telemetry

import (
	"fmt"
	"io"
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

// metric is one registered instrument.
type metric struct {
	name, help string
	labels     string // Prometheus label set rendered inside {...}, "" for none
	counter    *Counter
	gauge      *Gauge
	gaugeFunc  func() float64
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

// snapshot returns the registered metrics in name order.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	return out
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format, sorted by metric name then label set. Labeled
// series sharing a metric name render under one HELP/TYPE header.
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
			kind := "gauge"
			if m.counter != nil {
				kind = "counter"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, kind); err != nil {
				return err
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
		}
		if err != nil {
			return err
		}
	}
	return nil
}
