package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"mtvp/internal/config"
	"mtvp/internal/fabric"
	"mtvp/internal/harness"
	"mtvp/internal/pipeline"
	"mtvp/internal/stats"
	"mtvp/internal/workload"
)

// cell is one simulation: a stand-in on a machine. Cells of one group
// must simulate identically (the fabric workload repeats each group).
type cell struct {
	Key     string
	Group   string
	Bench   workload.Benchmark
	Machine string
	Cfg     config.Config
}

// passResult is what one pass over a workload's cells produced.
type passResult struct {
	Seed    uint64        // the inputs' seed
	Stats   []stats.Stats // per cell, zero when the cell failed
	Errs    []error       // per cell
	Wall    time.Duration // set-up included; fabric teardown excluded
	Cells   []cellTime    // per cell
	Startup time.Duration // fabric start-up
	Isolate time.Duration // collecting the heap before cells, not timed
	Spans   []span        // traced passes only

	Requeues int // fabric only

	// Go heap counters over the pass (filled by the caller).
	AllocBytes, Mallocs uint64
	GCs                 uint32
}

// bench is one workload: its fixed cells, how one pass runs them, the
// cells the output check re-runs under the lockstep oracle, and the
// seconds of --seconds each pass stands for, which sets how many passes a
// run makes (a fixed count keeps a run's inputs a function of its
// arguments alone). The fabric workload's passes are shortest and its
// cells' few-millisecond times noisiest, so it gets the most. Isolate
// starts every cell from a collected heap, so a cell's time and peak
// memory do not depend on the garbage the cell before it left; the fabric
// workload's cells are too small for that to matter and too many for its
// cost.
type bench struct {
	Name        string
	Cells       []cell
	Pass        func(rec *recorder, seed uint64, cells []cell) (passResult, error)
	Checked     []int // indices into Cells
	PassSeconds int
	Isolate     bool
}

const (
	figInsts    = 200_000 // the experiments' default budget
	fabricInsts = 2_000
	fabricReps  = 40
)

type machine struct {
	Name string
	Cfg  config.Config
}

// fig3Machines are Figure 3's columns plus its baseline: the Wang–Franklin
// hybrid predictor with ILP-pred selection.
func fig3Machines() []machine {
	base := config.Baseline()
	wf, sel := config.PredWangFranklin, config.SelILPPred
	return []machine{
		{"base", base},
		{"stvp", base.WithSTVP(wf, sel)},
		{"mtvp2", base.WithMTVP(2, wf, sel)},
		{"mtvp4", base.WithMTVP(4, wf, sel)},
		{"mtvp8", base.WithMTVP(8, wf, sel)},
	}
}

// fig3Slice spans the chase, gather, hash and branchy archetypes, with
// working sets from DL1-resident (gcc e) through L2 (perlbmk) and
// L3-sized (parser, vortex) to twice the 4 MB L3 (vpr r). It has no
// stream stand-in, and its chase is parser rather than mcf: on the
// speculative machines the streams' host cost depends on the input seed
// by up to 7x (gap: 1.4 to 10 s over seeds 1-10), and mcf's by 2x, which
// no run length here can average out. base-suite still runs them.
var fig3Slice = []string{"parser", "vpr r", "vortex", "gcc e", "perlbmk"}

// fabricSlice holds the stand-ins whose Build takes under 2 ms, so fabric
// cells cost engine construction and round trips, not image building.
var fabricSlice = []string{
	"crafty", "eon r", "twolf", "mesa", "sixtrack",
	"gcc 1", "gcc 2", "gcc e", "gcc i", "perlbmk",
}

func newCell(prefix string, b workload.Benchmark, m machine, insts uint64) cell {
	cfg := m.Cfg
	cfg.MaxInsts = insts
	group := b.Name + "/" + m.Name
	return cell{Key: prefix + "/" + group, Group: group, Bench: b, Machine: m.Name, Cfg: cfg}
}

func mustBench(name string) workload.Benchmark {
	b, err := workload.ByName(name)
	if err != nil {
		panic(err) // the slices above name registered stand-ins
	}
	return b
}

func benches() map[string]*bench {
	out := map[string]*bench{}

	fig3 := &bench{Name: "fig3", Pass: harnessPass, PassSeconds: 6, Isolate: true}
	ms := fig3Machines()
	for bi, name := range fig3Slice {
		for mi, m := range ms {
			// The check runs the diagonal: every machine and every
			// archetype once.
			if bi == mi {
				fig3.Checked = append(fig3.Checked, len(fig3.Cells))
			}
			fig3.Cells = append(fig3.Cells, newCell("fig3", mustBench(name), m, figInsts))
		}
	}
	out[fig3.Name] = fig3

	base := &bench{Name: "base-suite", Pass: sequentialPass, PassSeconds: 6, Isolate: true}
	kinds := map[string]bool{}
	for _, b := range workload.All() {
		// The check runs the first stand-in of each archetype.
		if !kinds[b.Kind] {
			kinds[b.Kind] = true
			base.Checked = append(base.Checked, len(base.Cells))
		}
		base.Cells = append(base.Cells, newCell("base", b, machine{"base", config.Baseline()}, figInsts))
	}
	out[base.Name] = base

	fab := &bench{Name: "fabric-cells", Pass: fabricPass, PassSeconds: 3}
	fabMachines := []machine{ms[0], ms[4]} // baseline and MTVP8
	for rep := 0; rep < fabricReps; rep++ {
		for _, name := range fabricSlice {
			for _, m := range fabMachines {
				// The check runs every group once; each covers its reps.
				if rep == 0 {
					fab.Checked = append(fab.Checked, len(fab.Cells))
				}
				fab.Cells = append(fab.Cells, newCell(fmt.Sprintf("fabric/%d", rep), mustBench(name), m, fabricInsts))
			}
		}
	}
	out[fab.Name] = fab
	return out
}

// simulate runs one cell through Build, pipeline.New and Engine.Run,
// timing each call under a "cell" span.
func simulate(rec *recorder, b workload.Benchmark, cfg config.Config, seed uint64, id, parent int) (stats.Stats, error) {
	if rec.isolate {
		is, t := rec.begin("isolate", id, parent)
		debug.FreeOSMemory()
		rec.addIsolation(rec.end(is, t))
	}
	var ct cellTime
	if rec.rss != nil {
		rec.rss.reset()
	}
	alloc0 := heapAllocs()
	cs, cstart := rec.begin("cell", id, parent)
	defer func() {
		ct.Wall = rec.end(cs, cstart)
		ct.Alloc = heapAllocs() - alloc0
		if rec.rss != nil {
			ct.PeakRSS = rec.rss.max()
		}
		rec.cellDone(id, ct)
	}()

	sb, t := rec.begin("workload.build", id, cs)
	prog, image := b.Build(seed)
	ct.Setup = rec.end(sb, t)

	var st stats.Stats
	sn, t := rec.begin("pipeline.new", id, cs)
	eng, err := pipeline.New(&cfg, prog, image, &st)
	ct.Setup += rec.end(sn, t)
	if err != nil {
		return stats.Stats{}, fmt.Errorf("%s: %w", b.Name, err)
	}

	sr, t := rec.begin("pipeline.run", id, cs)
	err = eng.Run()
	ct.Run = rec.end(sr, t)
	if err != nil {
		return stats.Stats{}, fmt.Errorf("%s: %w", b.Name, err)
	}
	return st, nil
}

// heapAllocs returns the bytes the Go heap has allocated so far. Unlike
// runtime.ReadMemStats it does not stop the world, so it can bracket
// every cell.
func heapAllocs() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

func newPassResult(n int) passResult {
	return passResult{Stats: make([]stats.Stats, n), Errs: make([]error, n)}
}

// sequentialPass runs the cells one after another, the way mtvpsim and
// every figure's baseline column do.
func sequentialPass(rec *recorder, seed uint64, cells []cell) (passResult, error) {
	pr := newPassResult(len(cells))
	start := time.Now()
	ps, t := rec.begin("pass", -1, -1)
	for i, c := range cells {
		pr.Stats[i], pr.Errs[i] = simulate(rec, c.Bench, c.Cfg, seed, i, ps)
	}
	rec.end(ps, t)
	pr.Wall = time.Since(start)
	return pr, nil
}

// harnessPass runs the cells as one harness campaign with a single
// worker, as mtvpbench does for a figure.
func harnessPass(rec *recorder, seed uint64, cells []cell) (passResult, error) {
	pr := newPassResult(len(cells))
	start := time.Now()
	hs, t := rec.begin("harness.run", -1, -1)
	jobs := make([]harness.Job[stats.Stats], len(cells))
	for i, c := range cells {
		i, c := i, c
		jobs[i] = harness.Job[stats.Stats]{
			Key:  c.Key,
			Seed: seed,
			Run: func(context.Context, *harness.Heartbeat) (stats.Stats, error) {
				return simulate(rec, c.Bench, c.Cfg, seed, i, hs)
			},
		}
	}
	camp, err := harness.Run(context.Background(), harness.Config{Name: "fig3", Workers: 1, Retries: 1}, jobs)
	rec.end(hs, t)
	pr.Wall = time.Since(start)
	if camp == nil {
		return pr, fmt.Errorf("harness: %w", err)
	}
	for i, c := range cells {
		st, ok := camp.Results[c.Key]
		if !ok {
			pr.Errs[i] = fmt.Errorf("%s: no result (%v)", c.Key, err)
			continue
		}
		pr.Stats[i] = st
	}
	return pr, nil
}

// Poll periods for the in-process fleet, far below the 500 ms defaults so
// a pass's finish time is not rounded to a poll.
const (
	clientPoll = 10 * time.Millisecond
	workerPoll = 5 * time.Millisecond
)

// fabricPass submits the cells as one campaign to an in-process
// coordinator on loopback, run by one single-slot worker agent. Start-up
// counts as set-up; worker drain and server close happen after the pass
// is timed. The coordinator journal stays off.
func fabricPass(rec *recorder, seed uint64, cells []cell) (passResult, error) {
	pr := newPassResult(len(cells))
	index := make(map[string]int, len(cells))
	specs := make([]fabric.JobSpec, len(cells))
	for i, c := range cells {
		index[c.Key] = i
		specs[i] = fabric.JobSpec{Key: c.Key, Bench: c.Bench.Name, Preset: c.Machine, Seed: seed, Config: c.Cfg}
	}

	start := time.Now()
	ss, t := rec.begin("fabric.startup", -1, -1)
	co, err := fabric.NewCoordinator(fabric.CoordinatorConfig{})
	if err != nil {
		return pr, err
	}
	srv, err := fabric.NewServer(co, fabric.ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		return pr, err
	}
	defer srv.Close()
	var campaignSpan atomic.Int64
	campaignSpan.Store(-1)
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- fabric.RunWorker(ctx, fabric.WorkerConfig{
			Coordinator: srv.URL(),
			Name:        "hostbench",
			Slots:       1,
			Poll:        workerPoll,
			Run: func(_ context.Context, spec fabric.JobSpec, _ func(uint64, uint64)) (json.RawMessage, error) {
				b, err := workload.ByName(spec.Bench)
				if err != nil {
					return nil, err
				}
				st, err := simulate(rec, b, spec.Config, spec.Seed, index[spec.Key], int(campaignSpan.Load()))
				if err != nil {
					return nil, err
				}
				return json.Marshal(st)
			},
		})
	}()
	defer func() {
		cancel()
		<-workerDone
	}()
	rec.addStartup(rec.end(ss, t))

	cl := fabric.NewClient(srv.URL(), "")
	cl.Poll = clientPoll
	cs, t := rec.begin("fabric.campaign", -1, -1)
	campaignSpan.Store(int64(cs))
	sub, err := cl.Submit(ctx, fabric.CampaignSpec{
		Name:        "fabric-cells",
		Fingerprint: fmt.Sprintf("seed=%d", seed),
		Jobs:        specs,
	})
	if err != nil {
		return pr, fmt.Errorf("fabric: submit: %w", err)
	}
	var final fabric.CampaignStatus
	res, err := cl.Wait(ctx, sub.ID, func(st fabric.CampaignStatus) { final = st })
	rec.end(cs, t)
	pr.Wall = time.Since(start)
	if err != nil {
		return pr, fmt.Errorf("fabric: wait: %w", err)
	}
	pr.Requeues = final.Requeues

	for i, c := range cells {
		raw, ok := res.Results[c.Key]
		if !ok {
			pr.Errs[i] = fmt.Errorf("%s: no result (campaign %s)", c.Key, res.State)
			continue
		}
		if err := json.Unmarshal(raw, &pr.Stats[i]); err != nil {
			pr.Errs[i] = fmt.Errorf("%s: undecodable result: %w", c.Key, err)
		}
	}
	for _, f := range res.Failures {
		if i, ok := index[f.Key]; ok && pr.Errs[i] == nil {
			pr.Errs[i] = fmt.Errorf("%s: %s", f.Key, f.Err)
		}
	}
	return pr, nil
}

// localPass runs the fabric workload's cells in this process without the
// fabric, so the traced run can state the fabric's cost.
func localPass(seed uint64, cells []cell) time.Duration {
	rec := newRecorder(false, len(cells))
	start := time.Now()
	for i, c := range cells {
		simulate(rec, c.Bench, c.Cfg, seed, i, -1)
	}
	return time.Since(start)
}
