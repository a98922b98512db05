package prefetch

import (
	"testing"

	"mtvp/internal/config"
)

func params() config.PrefetchParams {
	return config.PrefetchParams{
		Enabled:       true,
		Entries:       256,
		StreamBuffers: 8,
	}
}

// drain issues and completes every wanted prefetch at the given ready cycle.
func drain(pf *Prefetcher, ready int64) []uint64 {
	var lines []uint64
	for {
		la, ok := pf.NextPrefetch()
		if !ok {
			return lines
		}
		pf.Complete(la, ready)
		lines = append(lines, la)
	}
}

func TestTrainingAllocatesStream(t *testing.T) {
	pf := New(params(), 64)
	pc := uint64(0x10)
	// Three misses with a stable 64-byte stride: conf reaches minConfidence.
	pf.Train(pc, 0x1000, 0)
	pf.Train(pc, 0x1040, 10)
	pf.Train(pc, 0x1080, 20)
	lines := drain(pf, 100)
	if len(lines) != bufferDepth {
		t.Fatalf("issued %d prefetches, want bufferDepth=%d", len(lines), bufferDepth)
	}
	if lines[0] != 0x10c0 {
		t.Errorf("first prefetch at %#x, want 0x10c0", lines[0])
	}
	if !pf.Probe(0x10c0) {
		t.Error("probe missed a buffered line")
	}
}

func TestUnstableStrideDoesNotAllocate(t *testing.T) {
	pf := New(params(), 64)
	pc := uint64(0x10)
	pf.Train(pc, 0x1000, 0)
	pf.Train(pc, 0x1040, 10)
	pf.Train(pc, 0x2000, 20) // break
	pf.Train(pc, 0x5000, 30) // break
	if lines := drain(pf, 100); len(lines) != 0 {
		t.Errorf("unstable stride issued %d prefetches", len(lines))
	}
}

func TestDemandHitConsumesAndExtends(t *testing.T) {
	pf := New(params(), 64)
	pc := uint64(0x10)
	pf.Train(pc, 0x1000, 0)
	pf.Train(pc, 0x1040, 1)
	pf.Train(pc, 0x1080, 2)
	drain(pf, 50)

	ready, ok := pf.Demand(0x10c0, 60)
	if !ok || ready != 50 {
		t.Fatalf("demand hit = (%d, %v), want (50, true)", ready, ok)
	}
	if _, again := pf.Demand(0x10c0, 61); again {
		t.Error("line served twice")
	}
	// Consuming a line lets the stream run one line further ahead.
	if lines := drain(pf, 70); len(lines) != 1 {
		t.Errorf("stream extended by %d lines, want 1", len(lines))
	}
}

func TestSubLineStrideRoundsToLine(t *testing.T) {
	pf := New(params(), 64)
	pc := uint64(0x20)
	// 8-byte stride: the stream must advance by whole lines.
	for i := 0; i < 4; i++ {
		pf.Train(pc, uint64(0x3000+8*i), int64(i))
	}
	lines := drain(pf, 10)
	if len(lines) == 0 {
		t.Fatal("no prefetches for dense stride")
	}
	for i := 1; i < len(lines); i++ {
		if lines[i]-lines[i-1] != 64 {
			t.Errorf("stream advanced %d bytes, want 64", lines[i]-lines[i-1])
		}
	}
}

func TestNegativeStride(t *testing.T) {
	pf := New(params(), 64)
	pc := uint64(0x30)
	pf.Train(pc, 0x9000, 0)
	pf.Train(pc, 0x8fc0, 1)
	pf.Train(pc, 0x8f80, 2)
	lines := drain(pf, 10)
	if len(lines) == 0 {
		t.Fatal("no prefetches for descending stream")
	}
	if lines[0] != 0x8f40 {
		t.Errorf("descending prefetch at %#x, want 0x8f40", lines[0])
	}
}

// TestRedirectAfterJump: a stream whose PC jumps far away (plane boundary)
// must be redirected rather than parked forever — the regression behind the
// original stream-coverage bug.
func TestRedirectAfterJump(t *testing.T) {
	pf := New(params(), 64)
	pc := uint64(0x40)
	for i := 0; i < 4; i++ {
		pf.Train(pc, uint64(0x10000+64*i), int64(i))
	}
	drain(pf, 10)
	// Jump 1MB away, then resume the same stride.
	base := uint64(0x110000)
	for i := 0; i < 4; i++ {
		pf.Train(pc, base+uint64(64*i), int64(10+i))
	}
	lines := drain(pf, 20)
	found := false
	for _, la := range lines {
		if la >= base {
			found = true
		}
	}
	if !found {
		t.Error("stream not redirected after the access point jumped away")
	}
}

func TestStreamBufferLRUEviction(t *testing.T) {
	p := params()
	p.StreamBuffers = 2
	pf := New(p, 64)
	alloc := func(pc, base uint64, at int64) {
		pf.Train(pc, base, at)
		pf.Train(pc, base+64, at+1)
		pf.Train(pc, base+128, at+2)
	}
	alloc(0x1, 0x10000, 0)
	alloc(0x2, 0x20000, 10)
	alloc(0x3, 0x30000, 20) // evicts the LRU stream (pc 0x1)
	drain(pf, 100)
	if pf.Probe(0x10000 + 192) {
		t.Error("evicted stream still probed")
	}
}

func TestTableAliasing(t *testing.T) {
	p := params()
	p.Entries = 4
	pf := New(p, 64)
	// Two PCs aliasing to the same entry keep resetting each other.
	pf.Train(0x0, 0x1000, 0)
	pf.Train(0x4, 0x9000, 1)
	pf.Train(0x0, 0x1040, 2)
	pf.Train(0x4, 0x9040, 3)
	if lines := drain(pf, 10); len(lines) != 0 {
		t.Errorf("aliased PCs issued %d prefetches", len(lines))
	}
}
