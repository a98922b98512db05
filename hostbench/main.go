// Command hostbench measures how fast the simulator runs on the host, end
// to end and layer by layer, on three workloads:
//
//	fig3          Figure 3 cells on a fixed slice of stand-ins, through harness.Run
//	base-suite    all 32 stand-ins on the Table 1 baseline, one after another
//	fabric-cells  800 tiny cells through an in-process fabric fleet
//
// Usage (from the repository root, through run.sh which builds it):
//
//	bash hostbench/run.sh --workload fig3 --seed 1 --seconds 24 --trace 0
//
// A run makes a fixed number of passes per --seconds over the workload's
// cells (one per 6 s, 3 s for fabric-cells), each pass on fresh inputs, and reports per-cell medians over the passes. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it spends half
// the passes untraced and half traced (spans, a CPU profile, the cells'
// counters) and prints the per-layer metrics. The last line of standard
// output is one JSON object. README.md describes the workloads and metrics.
//
// The seed reaches the simulator only through Benchmark.Build and
// JobSpec.Seed. Every run checks its outputs: cells repeated on one seed
// must simulate bit-identically, and a fixed subset of cells is re-run
// under the lockstep functional oracle (Config.Check) and must reproduce
// the timed Stats.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mtvp/internal/stats"
)

func main() {
	name := flag.String("workload", "", "workload: fig3, base-suite or fabric-cells")
	seed := flag.Uint64("seed", 1, "workload seed, passed to Build and JobSpec.Seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traceOn := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()

	w, ok := benches()[*name]
	if !ok || *seconds < 1 || *traceOn < 0 || *traceOn > 1 {
		fmt.Fprintln(os.Stderr, "usage: hostbench --workload fig3|base-suite|fabric-cells [--seed n] [--seconds s] [--trace 0|1]")
		os.Exit(2)
	}
	if err := run(w, *seed, *seconds, *traceOn == 1); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(w *bench, seed uint64, seconds int, traced bool) error {
	var (
		plain, tracedPasses []passResult
		profile             bytes.Buffer
		err                 error
	)
	passes := max(1, seconds/w.PassSeconds)
	if !traced {
		if plain, err = measure(w, seed, passes, false); err != nil {
			return err
		}
	} else {
		half := max(1, passes/2)
		if plain, err = measure(w, seed, half, false); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return err
		}
		tracedPasses, err = measure(w, seed, half, true)
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
	}
	all := append(append([]passResult(nil), plain...), tracedPasses...)
	attempted, failed, digest := verify(w, all)
	fmt.Printf("digest %s seed=%d passes=%d cells=%d: %s\n", w.Name, seed, len(plain), len(w.Cells), digest)

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if !traced {
		res.Metrics = endToEnd(plain)
	} else {
		samples, err := parseCPUProfile(profile.Bytes())
		if err != nil {
			return err
		}
		var localDelta float64
		if w.Name == "fabric-cells" {
			localDelta = plain[0].Wall.Seconds() - localPass(plain[0].Seed, w.Cells).Seconds()
		}
		res.Metrics = perLayer(w, plain, tracedPasses, samples, localDelta)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// passSeed is the seed pass j builds its inputs from: the run's seed for
// the first pass, then seeds no other run's first pass uses. Each pass
// draws fresh inputs, so a run's medians are taken over several inputs
// and the seed-to-seed spread of speculative cells is damped.
func passSeed(seed uint64, j int) uint64 { return seed + uint64(j)<<32 }

// measure runs the given number of passes. Before each pass, outside the
// timed region, the heap is collected and its free memory returned to the
// system, so every pass starts from the same heap and resident set.
func measure(w *bench, seed uint64, passes int, traced bool) ([]passResult, error) {
	rss := startRSSSampler()
	defer rss.stop()
	if rss.max() == 0 {
		return nil, fmt.Errorf("cannot read the resident set size from /proc/self/statm")
	}
	var out []passResult
	for j := 0; j < passes; j++ {
		debug.FreeOSMemory()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rec := newRecorder(traced, len(w.Cells))
		rec.rss = rss
		rec.isolate = w.Isolate
		pr, err := w.Pass(rec, passSeed(seed, j), w.Cells)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", w.Name, j, err)
		}
		runtime.ReadMemStats(&m1)
		pr.Seed = passSeed(seed, j)
		pr.Cells, pr.Startup, pr.Isolate, pr.Spans = rec.results()
		pr.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
		pr.Mallocs = m1.Mallocs - m0.Mallocs
		pr.GCs = m1.NumGC - m0.NumGC
		fmt.Fprintf(os.Stderr, "%s pass %d: wall %.3fs alloc %.0fMB\n",
			w.Name, j, pr.Wall.Seconds(), float64(pr.AllocBytes)/(1<<20))
		out = append(out, pr)
	}
	return out, nil
}

// verify counts attempted and failed cells over the passes and returns
// the simulation digest over every pass's Stats. A cell fails when it
// errored, when its Stats differ from another run of its group on the
// same seed, or when the group's re-run under the lockstep oracle errors
// or reproduces different Stats.
func verify(w *bench, passes []passResult) (attempted, failed int, digest string) {
	type groupKey struct {
		seed  uint64
		group string
	}
	ref := map[groupKey]*stats.Stats{}
	bad := map[groupKey]bool{}
	for _, p := range passes {
		for i, c := range w.Cells {
			attempted++
			if p.Errs[i] != nil {
				fmt.Fprintln(os.Stderr, "hostbench: cell failed:", p.Errs[i])
				failed++
				continue
			}
			k := groupKey{p.Seed, c.Group}
			if r, ok := ref[k]; !ok {
				ref[k] = &p.Stats[i]
			} else if *r != p.Stats[i] {
				fmt.Fprintf(os.Stderr, "hostbench: %s: Stats differ between runs of %s on seed %d\n", c.Key, c.Group, p.Seed)
				failed++
			}
		}
	}
	// The first pass's seed is checked; every run uses a different one.
	seed := passes[0].Seed
	for _, i := range w.Checked {
		c := w.Cells[i]
		cfg := c.Cfg
		cfg.Check = true
		st, err := simulate(newRecorder(false, len(w.Cells)), c.Bench, cfg, seed, i, -1)
		k := groupKey{seed, c.Group}
		switch r := ref[k]; {
		case err != nil:
			fmt.Fprintf(os.Stderr, "hostbench: %s: oracle check: %v\n", c.Key, err)
			bad[k] = true
		case r != nil && *r != st:
			fmt.Fprintf(os.Stderr, "hostbench: %s: Stats differ from the oracle-checked run\n", c.Key)
			bad[k] = true
		}
	}
	h := sha256.New()
	for _, p := range passes {
		for i, c := range w.Cells {
			if bad[groupKey{p.Seed, c.Group}] && p.Errs[i] == nil {
				failed++
			}
			fmt.Fprintf(h, "%d %s\n", p.Seed, c.Key)
			for _, nc := range p.Stats[i].Counters() {
				fmt.Fprintf(h, "%s=%d\n", nc.Name, nc.Value)
			}
		}
	}
	return attempted, failed, fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// endToEnd reports the untraced passes. The host is shared and slows in
// spells, and a speculative cell's cost depends on its inputs, so each
// figure is taken per cell: the cell's median over the passes (one input
// seed each), summed over the cells, plus the median of the part of the
// pass outside cells (harness, fabric). Peak resident memory is each
// cell's median peak over the passes, averaged over the cells: the
// hungriest cell alone moves by a third with its inputs (parser on MTVP2
// peaks at 104 to 173 MB over five seeds).
func endToEnd(passes []passResult) map[string]metric {
	per := make([]float64, len(passes))
	over := func(f func(p passResult) float64) float64 {
		for j, p := range passes {
			per[j] = f(p)
		}
		return median(per)
	}
	wall := over(func(p passResult) float64 {
		v := (p.Wall - p.Isolate).Seconds()
		for _, c := range p.Cells {
			v -= c.Wall.Seconds()
		}
		return v
	})
	alloc := over(func(p passResult) float64 {
		v := float64(p.AllocBytes)
		for _, c := range p.Cells {
			v -= float64(c.Alloc)
		}
		return v
	})
	setup := over(func(p passResult) float64 { return p.Startup.Seconds() })
	var run, cycles, peak float64
	for i := range passes[0].Cells {
		peak += over(func(p passResult) float64 { return float64(p.Cells[i].PeakRSS) })
		wall += over(func(p passResult) float64 { return p.Cells[i].Wall.Seconds() })
		setup += over(func(p passResult) float64 { return p.Cells[i].Setup.Seconds() })
		run += over(func(p passResult) float64 { return p.Cells[i].Run.Seconds() })
		alloc += over(func(p passResult) float64 { return float64(p.Cells[i].Alloc) })
		cycles += over(func(p passResult) float64 { return float64(p.Stats[i].Cycles) })
	}
	return map[string]metric{
		"wall_s":            {wall, "s"},
		"setup_s":           {setup, "s"},
		"sim_mcycles_per_s": {cycles / 1e6 / run, "Mcycles/s"},
		"peak_rss_mb":       {peak / float64(len(passes[0].Cells)) / (1 << 20), "MB"},
		"alloc_mb":          {alloc / (1 << 20), "MB"},
	}
}

// perLayer reports per-pass means over the traced passes.
func perLayer(w *bench, plain, traced []passResult, samples []profSample, localDelta float64) map[string]metric {
	n := float64(len(traced))
	m := map[string]metric{}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	// Span indices are per pass, so spans are totalled pass by pass.
	dur, self, count := map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	var requeues, harnessCells int
	var gcs, mallocs float64
	for _, p := range traced {
		d, s, c := spanTotals(p.Spans)
		for k, v := range d {
			dur[k] += v
			self[k] += s[k]
			count[k] += c[k]
		}
		for _, sp := range p.Spans {
			if sp.Name == "cell" && sp.Parent >= 0 && p.Spans[sp.Parent].Name == "harness.run" {
				harnessCells++
			}
		}
		requeues += p.Requeues
		gcs += float64(p.GCs)
		mallocs += float64(p.Mallocs)
	}

	put("workload.build_s", "s", dur["workload.build"].Seconds()/n)
	put("workload.builds", "count", float64(count["workload.build"])/n)
	put("pipeline.new_s", "s", dur["pipeline.new"].Seconds()/n)
	put("pipeline.run_s", "s", dur["pipeline.run"].Seconds()/n)

	buckets, total := attributeAll(samples)
	for _, b := range cpuBuckets {
		put(bucketMetric(b), "s", buckets[b]/n)
	}
	put("trace.profile_cpu_s", "s", total/n)

	// The first traced pass's counters, summed over cells.
	sum := map[string]uint64{}
	for _, st := range traced[0].Stats {
		for _, c := range st.Counters() {
			sum[c.Name] += c.Value
		}
	}
	ctr := func(name string) float64 { return float64(sum[name]) }
	ratio := func(a, b string) float64 { return ctr(a) / ctr(b) } // 0/0 reads as 0
	put("pipeline.sim_cycles", "count", ctr("Cycles"))
	put("pipeline.committed", "count", ctr("Committed"))
	put("pipeline.fetched", "count", ctr("Fetched"))
	put("pipeline.squashed", "count", ctr("Squashed"))
	put("pipeline.useful_ratio", "ratio", ratio("Committed", "Fetched"))
	put("pipeline.fetch_blocked_ratio", "ratio", ratio("FetchBlocked", "Cycles"))
	put("pipeline.spawns", "count", ctr("Spawns"))
	put("pipeline.kills", "count", ctr("Kills"))
	put("pipeline.confirm_ratio", "ratio", ratio("Confirms", "Spawns"))
	put("storebuf.fwd_hits", "count", ctr("StoreBufHits"))
	put("vpred.lookups", "count", ctr("VPLookups"))
	put("vpred.accuracy", "ratio", ctr("VPCorrect")/(ctr("VPCorrect")+ctr("VPWrong")))
	put("vpred.follow_ratio", "ratio", ratio("VPPredicted", "VPLookups"))
	put("cache.loads", "count", ctr("Loads"))
	put("cache.dl1_miss_ratio", "ratio", ratio("DL1Miss", "Loads"))
	put("cache.l3_miss_ratio", "ratio", ratio("L3Miss", "L2Miss"))
	put("prefetch.useful_ratio", "ratio", ratio("PrefHits", "PrefIssued"))
	put("bpred.mispredict_ratio", "ratio", ratio("BranchWrong", "Branches"))

	put("runtime.gc_cycles", "count", gcs/n)
	put("runtime.allocs", "count", mallocs/n)

	put("harness.self_s", "s", self["harness.run"].Seconds()/n)
	put("harness.cells", "count", float64(harnessCells)/n)

	campaign := dur["fabric.campaign"].Seconds() / n
	put("fabric.campaign_s", "s", campaign)
	put("fabric.self_s", "s", self["fabric.campaign"].Seconds()/n)
	if w.Name == "fabric-cells" {
		put("fabric.ms_per_cell", "ms", 1000*campaign/float64(len(w.Cells)))
	} else {
		put("fabric.ms_per_cell", "ms", 0)
	}
	put("fabric.requeues", "count", float64(requeues)/n)
	put("fabric.local_delta_s", "s", localDelta)

	wall := func(ps []passResult) float64 {
		v := make([]float64, len(ps))
		for i, p := range ps {
			v[i] = p.Wall.Seconds()
		}
		return median(v)
	}
	put("trace.overhead_pct", "%", 100*(wall(traced)/wall(plain)-1))
	return m
}

// rssSampler tracks the peak resident set size of this process since its
// last reset, reading /proc/self/statm every rssEvery. A cell resets it
// when it starts and reads it when it ends.
type rssSampler struct {
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

const rssEvery = 2 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.reset()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.note(residentBytes())
			}
		}
	}()
	return s
}

func (s *rssSampler) note(v uint64) {
	for {
		old := s.peak.Load()
		if v <= old || s.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func (s *rssSampler) reset() { s.peak.Store(residentBytes()) }

// max returns the peak since the last reset, the current size included.
func (s *rssSampler) max() uint64 {
	s.note(residentBytes())
	return s.peak.Load()
}

// stop ends sampling and waits for the sampler to exit.
func (s *rssSampler) stop() {
	close(s.quit)
	<-s.done
}

// residentBytes returns the current resident set size, or 0 where
// /proc/self/statm cannot be read.
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// median returns the middle value (the mean of the two middle values for
// an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
