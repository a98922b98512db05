package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzip-compressed protocol buffer
// (github.com/google/pprof/proto/profile.proto). The module takes no
// dependencies, so this file decodes the few messages attribution needs:
// samples, locations (with their inlined lines) and functions.

// profSample is one decoded sample: its stack as function names, leaf
// first (inlined frames expanded), and its CPU time.
type profSample struct {
	Stack []string
	CPUNs int64
}

// Profile field numbers (profile.proto).
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// parseCPUProfile decodes a runtime/pprof CPU profile into samples. The
// CPU value is the sample type whose name is "cpu".
func parseCPUProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		typeNames []uint64 // string indices of each sample type
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case fProfileSampleType:
			return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == fValueTypeType {
					typeNames = append(typeNames, v)
				}
				return nil
			})
		case fProfileSample:
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case fSampleLocation:
					return appendVarints(&s.locs, w, v, b)
				case fSampleValue:
					return appendVarints(&s.vals, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case fProfileFunction:
			var id, name uint64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case fProfileStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	cpu := -1
	for i, n := range typeNames {
		if n < uint64(len(strs)) && strs[n] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		out = append(out, profSample{Stack: stack, CPUNs: int64(s.vals[cpu])})
	}
	return out, nil
}

// walkFields calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func walkFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Attribution buckets. Every sample lands in exactly one, so the buckets
// sum to the profile's total.
const (
	bucketOther = "other"
	bucketGC    = "runtime.gc"
)

// cpuBuckets lists every bucket a sample can land in, in report order.
// Packages of mtvp/internal not named here count as other.
var cpuBuckets = []string{
	"pipeline.fetch", "pipeline.dispatch", "pipeline.issue",
	"pipeline.complete", "pipeline.commit", "pipeline.spawn", "pipeline.engine",
	"storebuf", "vpred", "cache", "prefetch", "bpred", "crit", "isa", "mem",
	"asm", "workload", "harness", "fabric", bucketGC, bucketOther,
}

const internalPrefix = "mtvp/internal/"

// gcWorkers are the runtime's background collector goroutines' entry
// points; their samples are garbage-collection cost.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// spawnFrames are the engine methods that create, promote or tear down
// speculative threads; time under them is the speculation overhead even
// when they are reached from a stage.
var spawnFrames = map[string]bool{
	"spawn": true, "promoteReady": true, "killSubtree": true, "killOne": true, "freeRetiring": true,
}

// stageFrames are the per-cycle stage methods runCycle calls.
var stageFrames = map[string]bool{
	"fetch": true, "dispatch": true, "issue": true, "complete": true, "commit": true,
}

// internalPkg returns the package under mtvp/internal that defines the
// function, or "" when it is outside.
func internalPkg(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// engineMethod returns the method name of a pipeline.(*Engine) frame.
func engineMethod(fn string) (string, bool) {
	return strings.CutPrefix(fn, internalPrefix+"pipeline.(*Engine).")
}

// attribute names the bucket for one stack, leaf first:
//   - a stack run by a GC background worker is runtime.gc;
//   - otherwise the innermost mtvp/internal package decides, except that
//     mem directly under workload is workload and mem under storebuf is
//     storebuf (the image being built, the overlay being read through);
//   - pipeline splits by the innermost spawn frame, else the innermost
//     stage frame, else engine (the cycle loop, scheduler and New);
//   - packages not in cpuBuckets, and stacks with no internal frame, are
//     other.
func attribute(stack []string) string {
	for _, fn := range stack {
		for _, gc := range gcWorkers {
			if fn == gc {
				return bucketGC
			}
		}
	}
	for i, fn := range stack {
		pkg := internalPkg(fn)
		if pkg == "" {
			continue
		}
		if pkg == "mem" {
			for _, outer := range stack[i+1:] {
				if p := internalPkg(outer); p != "" && p != "mem" {
					if p == "workload" || p == "storebuf" {
						return p
					}
					break
				}
			}
		}
		if pkg == "pipeline" {
			return pipelineBucket(stack[i:])
		}
		for _, b := range cpuBuckets {
			if b == pkg {
				return pkg
			}
		}
		return bucketOther
	}
	return bucketOther
}

func pipelineBucket(stack []string) string {
	stage := ""
	for _, fn := range stack {
		m, ok := engineMethod(fn)
		if !ok {
			continue
		}
		if spawnFrames[m] {
			return "pipeline.spawn"
		}
		if stage == "" && stageFrames[m] {
			stage = "pipeline." + m
		}
	}
	if stage != "" {
		return stage
	}
	return "pipeline.engine"
}

// bucketMetric names a bucket's metric: "pipeline.issue_cpu_s" for a
// sub-bucket, "storebuf.cpu_s" for a package.
func bucketMetric(b string) string {
	if strings.Contains(b, ".") {
		return b + "_cpu_s"
	}
	return b + ".cpu_s"
}

// attributeAll sums samples' CPU seconds per bucket; the second result is
// the profile's total.
func attributeAll(samples []profSample) (map[string]float64, float64) {
	out := make(map[string]float64, len(cpuBuckets))
	var total int64
	for _, s := range samples {
		out[attribute(s.Stack)] += float64(s.CPUNs) / 1e9
		total += s.CPUNs
	}
	return out, float64(total) / 1e9
}
