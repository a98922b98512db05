// Package workload provides the synthetic stand-ins for the SPEC CPU2000
// benchmarks the paper evaluates. Seven parameterised archetypes — pointer
// chase, FP stream, sparse gather, cache-resident compute, hash lookup,
// branchy token processing, and block sort — are instantiated with
// per-benchmark working sets, value-reuse rates, and branch behaviour to
// mimic each SPEC program's memory-boundedness, load-value locality, and
// available ILP (the three axes the paper's results turn on).
package workload

import (
	"fmt"
	"math"
	"sort"

	"mtvp/internal/isa"
	"mtvp/internal/mem"
)

// Suite labels a benchmark as SPEC INT or SPEC FP.
type Suite int

// Benchmark suites.
const (
	INT Suite = iota
	FP
)

func (s Suite) String() string {
	if s == FP {
		return "SPEC FP"
	}
	return "SPEC INT"
}

// Benchmark is a runnable synthetic kernel.
type Benchmark struct {
	Name  string
	Suite Suite
	Kind  string // archetype name
	build func(seed uint64) (*isa.Program, *mem.Memory)
}

// Build assembles the program and initialises its memory image. Every call
// returns fresh state; runs are deterministic in (benchmark, seed).
func (b Benchmark) Build(seed uint64) (*isa.Program, *mem.Memory) {
	return b.build(seed ^ nameHash(b.Name))
}

func nameHash(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

var registry []Benchmark

func register(b Benchmark) { registry = append(registry, b) }

// All returns every registered benchmark, INT suite first, each suite in
// name order.
func All() []Benchmark {
	out := append([]Benchmark(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// BySuite returns the benchmarks of one suite, in name order.
func BySuite(s Suite) []Benchmark {
	var out []Benchmark
	for _, b := range All() {
		if b.Suite == s {
			out = append(out, b)
		}
	}
	return out
}

// ByName returns the named benchmark: a SPEC stand-in or ResidentMiss.
func ByName(name string) (Benchmark, error) {
	for _, b := range registry {
		if b.Name == name {
			return b, nil
		}
	}
	if name == ResidentMiss.Name {
		return ResidentMiss, nil
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names returns all benchmark names in All() order.
func Names() []string {
	var out []string
	for _, b := range All() {
		out = append(out, b.Name)
	}
	return out
}

// --- shared data-initialisation helpers -------------------------------------

// dataBase is where workload data begins; low addresses are left unused so
// stray null-pointer-style accesses in killed speculative threads read zero
// pages rather than workload data.
const dataBase = 1 << 20

// valuePool draws k reusable payload values; pool[0] is the dominant value
// (zero for integer pools, a fixed real for FP pools — mirroring the
// mostly-zero fields real value-prediction studies find). Integer pools are
// small-ish values; FP pools are bit patterns of well-behaved reals.
func valuePool(r *mem.Rand, k int, fp bool) []uint64 {
	pool := make([]uint64, k)
	for i := range pool {
		if fp {
			pool[i] = math.Float64bits(float64(r.Intn(1000)) / 8.0)
		} else {
			pool[i] = uint64(r.Intn(1 << 16))
		}
	}
	if fp {
		pool[0] = math.Float64bits(1.0)
	} else {
		pool[0] = 0
	}
	return pool
}

// drawValue models the value locality of real programs: with probability
// dominantPct/100 it returns the pool's dominant value (think mcf's
// mostly-zero cost fields or art's thresholded activations — this is what
// makes a load predictable under the paper's strict +1/−8 confidence); with
// probability reusePct/100 it returns some other pool value; otherwise a
// fresh pseudo-random value.
func drawValue(r *mem.Rand, pool []uint64, dominantPct, reusePct int, fp bool) uint64 {
	n := r.Intn(100)
	if n < dominantPct {
		return pool[0]
	}
	if n < dominantPct+reusePct && len(pool) > 1 {
		return pool[1+r.Intn(len(pool)-1)]
	}
	if fp {
		return math.Float64bits(r.Float64() * 1000)
	}
	return r.Next() >> 16
}

// permutation returns a random permutation of [0, n).
func permutation(r *mem.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// runPermutation returns a visiting order over [0, n) made of
// address-sequential runs spliced together in random order, such that a
// fraction seqPct/100 of steps advance to the next index and the rest jump
// to the start of another run.
func runPermutation(r *mem.Rand, n, seqPct int) []int {
	if seqPct <= 0 {
		return permutation(r, n)
	}
	// Cut [0, n) into runs with geometric lengths of mean 1/(1-p).
	var runs [][2]int // start, len
	start := 0
	length := 1
	for i := 1; i < n; i++ {
		if r.Intn(100) < seqPct {
			length++
			continue
		}
		runs = append(runs, [2]int{start, length})
		start, length = i, 1
	}
	runs = append(runs, [2]int{start, length})
	for i := len(runs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		runs[i], runs[j] = runs[j], runs[i]
	}
	order := make([]int, 0, n)
	for _, run := range runs {
		for k := 0; k < run[1]; k++ {
			order = append(order, run[0]+k)
		}
	}
	return order
}
