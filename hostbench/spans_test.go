package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		// 0: a campaign from 0 to 100 ms.
		{Name: "fabric.campaign", Cell: -1, Parent: -1, Start: 0, End: 100 * ms},
		// 1-3: cells inside it; 2 overlaps 1; 3 runs past the parent's end.
		{Name: "cell", Cell: 0, Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "cell", Cell: 1, Parent: 0, Start: 20 * ms, End: 40 * ms},
		{Name: "cell", Cell: 2, Parent: 0, Start: 90 * ms, End: 120 * ms},
		// 4-5: a cell's own children, which must not count against the
		// campaign (only direct children do).
		{Name: "workload.build", Cell: 0, Parent: 1, Start: 10 * ms, End: 15 * ms},
		{Name: "pipeline.run", Cell: 0, Parent: 1, Start: 15 * ms, End: 30 * ms},
		// 6: a root with no children.
		{Name: "pass", Cell: -1, Parent: -1, Start: 200 * ms, End: 210 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{
		100*ms - 30*ms - 10*ms, // cells cover 10-40 and 90-100
		0,                      // build and run cover the whole cell
		20 * ms,
		30 * ms,
		5 * ms,
		15 * ms,
		10 * ms,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}

	dur, self, count := spanTotals(spans)
	if dur["cell"] != 70*ms || self["cell"] != 50*ms || count["cell"] != 3 {
		t.Errorf("cell totals: dur %v self %v count %d, want 70ms 50ms 3", dur["cell"], self["cell"], count["cell"])
	}
}

func TestRecorderSpans(t *testing.T) {
	r := newRecorder(true, 1)
	p, ps := r.begin("pass", -1, -1)
	c, cs := r.begin("cell", 0, p)
	r.end(c, cs)
	r.end(p, ps)
	r.cellDone(0, cellTime{Wall: 3, Setup: 1, Run: 2})
	cells, _, _, spans := r.results()
	if cells[0] != (cellTime{Wall: 3, Setup: 1, Run: 2}) {
		t.Errorf("cell time = %+v", cells[0])
	}
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].Cell != 0 {
		t.Fatalf("spans = %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s not closed: %+v", s.Name, s)
		}
	}

	off := newRecorder(false, 0)
	id, start := off.begin("pass", -1, -1)
	if id != -1 {
		t.Errorf("untraced begin returned span %d, want -1", id)
	}
	if d := off.end(id, start); d < 0 {
		t.Errorf("untraced end returned %v", d)
	}
	if _, _, _, spans := off.results(); len(spans) != 0 {
		t.Error("untraced recorder kept spans")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
