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
	// build is a method value of the archetype's builder (chaseBuilder
	// and so on). A closure returned by the constructor would be compiled
	// into the package's init, where the constructors are inlined, and
	// that copy calls mem.Rand.Intn and binary.LittleEndian.PutUint64 out
	// of line; a method is compiled on its own and inlines them.
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
// pages rather than workload data. It is page-aligned: the lazily filled
// areas that start there number their pages from it.
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

// runPermutation links [0, n) into one cycle made of address-sequential
// runs spliced together in random order, such that a fraction seqPct/100 of
// steps advance to the next index and the rest jump to the start of another
// run. It returns each index's successor and the first index visited.
// Cutting the runs draws once per index after the first (none when seqPct
// is 0: every index is a run), and shuffling them once per run after the
// first.
func runPermutation(r *mem.Rand, n, seqPct int) (succ []int32, head int32) {
	// Cut [0, n) into runs with geometric lengths of mean 1/(1-p). Until
	// the runs are spliced, a run's last index has successor -1.
	succ = make([]int32, n)
	runs := 1
	for i := 1; i < n; i++ {
		if seqPct > 0 && r.Intn(100) < seqPct {
			succ[i-1] = int32(i)
			continue
		}
		succ[i-1] = -1
		runs++
	}
	succ[n-1] = -1
	starts := make([]int32, 0, runs)
	starts = append(starts, 0)
	for i, s := range succ[:n-1] {
		if s < 0 {
			starts = append(starts, int32(i+1))
		}
	}
	for i := len(starts) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		starts[i], starts[j] = starts[j], starts[i]
	}
	// Splice: each run's last index jumps to the next run's start.
	for k, s := range starts {
		for succ[s] >= 0 {
			s++
		}
		succ[s] = starts[(k+1)%len(starts)]
	}
	return succ, starts[0]
}
