package telemetry

import (
	"strings"
	"testing"

	"mtvp/internal/stats"
)

func TestSamplerBucketsAndRates(t *testing.T) {
	s := NewSampler(100)

	var st stats.Stats
	for edge := s.NextEdge(0); edge <= 250; edge = s.NextEdge(edge) {
		st.Committed = uint64(edge) * 2 // IPC 2.0 throughout
		if edge == 200 {
			st.VPCorrect, st.VPWrong = 8, 2
		}
		s.Sample(edge, &st, Gauges{ROBUsed: int(edge), SpecThreads: 1})
	}
	st.Committed = 500
	s.Finish(250, &st, Gauges{ROBUsed: 250, SpecThreads: 1})

	pts := s.Points()
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3 (two full buckets + the final partial)", len(pts))
	}
	if pts[0].Cycle != 100 || pts[1].Cycle != 200 || pts[2].Cycle != 250 {
		t.Errorf("bucket close cycles: %d %d %d", pts[0].Cycle, pts[1].Cycle, pts[2].Cycle)
	}
	for i, p := range pts {
		if p.IPC < 1.99 || p.IPC > 2.01 {
			t.Errorf("point %d IPC = %v, want 2.0", i, p.IPC)
		}
		if p.SpecThreads != 1 {
			t.Errorf("point %d spec threads = %d", i, p.SpecThreads)
		}
	}
	if pts[0].Occupancy != 100 || pts[2].Occupancy != 250 {
		t.Errorf("occupancy snapshots: %d %d", pts[0].Occupancy, pts[2].Occupancy)
	}
	// VP deltas landed in the second bucket only.
	if pts[0].VPAccuracy != 0 || pts[1].VPAccuracy != 0.8 || pts[2].VPAccuracy != 0 {
		t.Errorf("vp accuracy per bucket: %v %v %v",
			pts[0].VPAccuracy, pts[1].VPAccuracy, pts[2].VPAccuracy)
	}
	// Finishing twice (or after no progress) adds nothing.
	s.Finish(250, &st, Gauges{})
	if len(s.Points()) != 3 {
		t.Error("double Finish added a bucket")
	}
	// Edges are the multiples of Every, from any cycle.
	for _, c := range [][2]int64{{0, 100}, {1, 100}, {99, 100}, {100, 200}, {250, 300}} {
		if got := s.NextEdge(c[0]); got != c[1] {
			t.Errorf("NextEdge(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

// TestSamplerNegativeCommitClamp: a killed speculative thread's commits are
// discounted retroactively, so a bucket's committed delta can be net
// negative; the sampler clamps it to zero instead of wrapping.
func TestSamplerNegativeCommitClamp(t *testing.T) {
	s := NewSampler(10)
	var st stats.Stats
	st.Committed = 100
	s.Sample(10, &st, Gauges{}) // first bucket closes with 100 commits
	st.Committed = 40           // 60 commits discounted by kills
	s.Sample(20, &st, Gauges{})
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].Committed != 0 || pts[1].IPC != 0 {
		t.Errorf("negative bucket not clamped: committed=%d ipc=%v",
			pts[1].Committed, pts[1].IPC)
	}
}

func TestSeriesCSVAndJSONL(t *testing.T) {
	s := NewSampler(10)
	var st stats.Stats
	st.Committed = 20 // 20 commits over the 10-cycle bucket (0,10]: IPC 2.0
	st.Loads = 3
	s.Sample(10, &st, Gauges{ROBUsed: 5, LiveThreads: 2, SpecThreads: 1})

	var csv strings.Builder
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv.String())
	}
	header := lines[0]
	for _, col := range []string{"cycle", "ipc", "occupancy", "spec_threads"} {
		if !strings.Contains(header, col) {
			t.Errorf("csv header missing %q: %s", col, header)
		}
	}
	if !strings.HasPrefix(lines[1], "10,2.000000,") {
		t.Errorf("csv row wrong: %s", lines[1])
	}

	var jl strings.Builder
	if err := s.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cycle":10`, `"ipc":2`, `"spec_threads":1`} {
		if !strings.Contains(jl.String(), want) {
			t.Errorf("jsonl missing %q: %s", want, jl.String())
		}
	}
}
