package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

const (
	fnFetch    = "mtvp/internal/pipeline.(*Engine).fetch"
	fnFetchFr  = "mtvp/internal/pipeline.(*Engine).fetchFrom"
	fnSpawn    = "mtvp/internal/pipeline.(*Engine).spawn"
	fnIssue    = "mtvp/internal/pipeline.(*Engine).issue"
	fnCommit   = "mtvp/internal/pipeline.(*Engine).commit"
	fnFreeRet  = "mtvp/internal/pipeline.(*Engine).freeRetiring"
	fnRunCycle = "mtvp/internal/pipeline.(*Engine).runCycle"
	fnRun      = "mtvp/internal/pipeline.(*Engine).Run"
	fnNew      = "mtvp/internal/pipeline.New"
	fnMemLoad  = "mtvp/internal/mem.(*Memory).Load"
	fnMemPage  = "mtvp/internal/mem.(*Memory).page"
	fnSBLoad   = "mtvp/internal/storebuf.(*Overlay).Load"
	fnBuild    = "mtvp/internal/workload.Benchmark.Build"
	fnGather   = "mtvp/internal/workload.Gather.func1"
	fnIsaStep  = "mtvp/internal/isa.(*Context).Step"
	fnCacheAcc = "mtvp/internal/cache.(*Hierarchy).Access"
	fnAsm      = "mtvp/internal/asm.(*Builder).Emit"
	fnTelem    = "mtvp/internal/telemetry.(*Registry).Counter"
	fnMain     = "main.simulate"
	fnMalloc   = "runtime.mallocgc"
	fnGCWorker = "runtime.gcBgMarkWorker"
	fnGCDrain  = "runtime.gcDrain"
	fnHTTP     = "net/http.(*conn).serve"
)

func TestAttribute(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"stage", []string{fnFetchFr, fnFetch, fnRunCycle, fnRun, fnMain}, "pipeline.fetch"},
		{"issue leaf", []string{fnIssue, fnRunCycle, fnRun}, "pipeline.issue"},
		{"spawn under fetch", []string{fnSpawn, fnFetchFr, fnFetch, fnRunCycle}, "pipeline.spawn"},
		{"spawn frame outer of inner pipeline frame", []string{fnFetchFr, fnSpawn, fnFetch}, "pipeline.spawn"},
		{"free-retiring under commit", []string{fnFreeRet, fnCommit, fnRunCycle}, "pipeline.spawn"},
		{"cycle loop", []string{fnRunCycle, fnRun, fnMain}, "pipeline.engine"},
		{"engine construction", []string{fnMalloc, fnNew, fnMain}, "pipeline.engine"},
		{"innermost package wins", []string{fnCacheAcc, fnIssue, fnRunCycle}, "cache"},
		{"runtime leaf under package", []string{fnMalloc, fnIsaStep, fnFetch}, "isa"},
		{"mem under workload", []string{fnMemPage, fnMemLoad, fnGather, fnBuild, fnMain}, "workload"},
		{"mem under storebuf", []string{fnMemLoad, fnSBLoad, fnIsaStep, fnFetch}, "storebuf"},
		{"mem under other package", []string{fnMemLoad, fnIsaStep, fnFetch}, "mem"},
		{"mem alone", []string{fnMemLoad, fnMain}, "mem"},
		{"gc worker", []string{fnGCDrain, fnGCWorker}, "runtime.gc"},
		{"gc worker beats internal frames", []string{fnMemLoad, fnGCDrain, fnGCWorker}, "runtime.gc"},
		{"asm under workload", []string{fnAsm, fnGather, fnBuild}, "asm"},
		{"unlisted internal package", []string{fnTelem, fnMain}, "other"},
		{"no internal frame", []string{fnHTTP}, "other"},
		{"empty stack", nil, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute(%v) = %q, want %q", c.name, c.stack, got, c.want)
		}
	}
}

func TestAttributeAllSumsToTotal(t *testing.T) {
	samples := []profSample{
		{Stack: []string{fnIssue, fnRunCycle}, CPUNs: 30e6},
		{Stack: []string{fnGCDrain, fnGCWorker}, CPUNs: 10e6},
		{Stack: []string{fnHTTP}, CPUNs: 20e6},
		{Stack: []string{fnMemLoad, fnGather, fnBuild}, CPUNs: 10e6},
		{Stack: []string{fnIssue, fnRunCycle}, CPUNs: 10e6},
	}
	buckets, total := attributeAll(samples)
	if total != 0.08 {
		t.Fatalf("total = %v, want 0.08", total)
	}
	var sum float64
	for _, b := range cpuBuckets {
		sum += buckets[b]
	}
	if math.Abs(sum-total) > 1e-12 || len(buckets) != 4 {
		t.Fatalf("buckets %v sum to %v, want %v in 4 buckets", buckets, sum, total)
	}
	for b, want := range map[string]float64{"pipeline.issue": 0.04, "runtime.gc": 0.01, "other": 0.02, "workload": 0.01} {
		if math.Abs(buckets[b]-want) > 1e-12 {
			t.Errorf("bucket %s = %v, want %v", b, buckets[b], want)
		}
	}
}

func TestBucketMetric(t *testing.T) {
	for b, want := range map[string]string{
		"pipeline.issue": "pipeline.issue_cpu_s",
		"storebuf":       "storebuf.cpu_s",
		"runtime.gc":     "runtime.gc_cpu_s",
		"other":          "other.cpu_s",
	} {
		if got := bucketMetric(b); got != want {
			t.Errorf("bucketMetric(%q) = %q, want %q", b, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ bytes.Buffer }

func (p *pb) varint(field int, v uint64) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	p.Write(binary.AppendUvarint(nil, v))
}

func (p *pb) bytesField(field int, b []byte) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	p.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.Write(b)
}

func (p *pb) packed(field int, vs ...uint64) {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	p.bytesField(field, b)
}

func TestParseCPUProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", fnMemLoad, fnGather, fnBuild, fnIssue}
	var prof pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pb
		vt.varint(1, st[0])
		vt.varint(2, st[1])
		prof.bytesField(fProfileSampleType, vt.Bytes())
	}
	// Sample 1: packed location ids, two locations; sample 2: unpacked.
	var s1 pb
	s1.packed(fSampleLocation, 1, 2)
	s1.packed(fSampleValue, 1, 10_000_000)
	prof.bytesField(fProfileSample, s1.Bytes())
	var s2 pb
	s2.varint(fSampleLocation, 3)
	s2.varint(fSampleValue, 2)
	s2.varint(fSampleValue, 20_000_000)
	prof.bytesField(fProfileSample, s2.Bytes())
	// Location 1 holds an inlined pair: mem.Load inlined into Gather.
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{1, []uint64{1, 2}}, {2, []uint64{3}}, {3, []uint64{4}}} {
		var l pb
		l.varint(fLocationID, loc.id)
		l.varint(2, 9) // mapping id, ignored
		for _, fn := range loc.fns {
			var line pb
			line.varint(fLineFunction, fn)
			line.varint(2, 42)
			l.bytesField(fLocationLine, line.Bytes())
		}
		prof.bytesField(fProfileLocation, l.Bytes())
	}
	for id, name := range map[uint64]uint64{1: 5, 2: 6, 3: 7, 4: 8} {
		var f pb
		f.varint(fFunctionID, id)
		f.varint(fFunctionName, name)
		prof.bytesField(fProfileFunction, f.Bytes())
	}
	for _, s := range strs {
		prof.bytesField(fProfileStringTable, []byte(s))
	}
	prof.varint(12, 10_000_000) // period, ignored

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	samples, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	want0 := []string{fnMemLoad, fnGather, fnBuild}
	if len(samples[0].Stack) != 3 || samples[0].CPUNs != 10_000_000 {
		t.Fatalf("sample 0 = %+v", samples[0])
	}
	for i, fn := range want0 {
		if samples[0].Stack[i] != fn {
			t.Errorf("sample 0 frame %d = %q, want %q", i, samples[0].Stack[i], fn)
		}
	}
	if len(samples[1].Stack) != 1 || samples[1].Stack[0] != fnIssue || samples[1].CPUNs != 20_000_000 {
		t.Fatalf("sample 1 = %+v", samples[1])
	}
	if got := attribute(samples[0].Stack); got != "workload" {
		t.Errorf("decoded sample 0 attributed to %q, want workload", got)
	}

	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Error("parseCPUProfile accepted a non-gzip input")
	}
}
