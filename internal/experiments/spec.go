// Remote execution: the experiments package speaks both sides of the sweep
// fabric. sweepRemote (wired into every sweep via Options.Coordinator)
// converts a campaign into wire-form fabric job specs and waits on the
// coordinator; RunSpec is the worker side, turning one leased spec back
// into a simulation. Cells carry their fully-resolved machine configs over
// the wire, so a worker never re-derives presets and a version-skewed
// worker cannot silently change what a job key means.

package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"mtvp/internal/config"
	"mtvp/internal/core"
	"mtvp/internal/fabric"
	"mtvp/internal/harness"
	"mtvp/internal/workload"
)

// RunSpec executes one fabric job spec on this machine and returns the
// cell's journal-form result (the same cellResult JSON a local campaign
// writes). It is the RunFunc a worker agent (cmd/mtvpd work) runs leases
// with. progress receives the simulation's current cycle/commit counters
// from the engine's observer poll; ctx cancellation stops the run at the
// next poll.
func RunSpec(ctx context.Context, spec fabric.JobSpec, progress func(cycles, commits uint64)) (json.RawMessage, error) {
	b, err := workload.ByName(spec.Bench)
	if err != nil {
		return nil, fmt.Errorf("%s: unknown benchmark: %w", spec.Key, err)
	}
	prog, image := b.Build(spec.Seed)
	cfg := spec.Config
	cfg.Observe = func(cycles, commits uint64) bool {
		if progress != nil {
			progress(cycles, commits)
		}
		return ctx.Err() == nil
	}
	res, err := core.Run(cfg, prog, image)
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", spec.Bench, spec.Preset, err)
	}
	return json.Marshal(cellResult{IPC: res.Stats.UsefulIPC(), Stats: res.Stats})
}

// jobSpecs converts a sweep's cells into wire form: stable keys, workload
// coordinates, and the fully-resolved machine config per cell.
func (o Options) jobSpecs(name string, labels []string, benches []workload.Benchmark, cfgs []config.Config) []fabric.JobSpec {
	specs := make([]fabric.JobSpec, 0, len(benches)*len(cfgs))
	for _, b := range benches {
		for mi, cfg := range cfgs {
			specs = append(specs, fabric.JobSpec{
				Key:    fmt.Sprintf("%s/%s/%s", name, b.Name, labels[mi]),
				Bench:  b.Name,
				Preset: labels[mi],
				Seed:   o.Seed,
				Config: o.apply(cfg),
			})
		}
	}
	return specs
}

// sweepRemote runs one sweep through the fabric coordinator instead of the
// local worker pool: submit the cells (idempotently — a resubmission after
// a client restart attaches to the in-flight campaign), wait for the
// fleet, and assemble the matrix in job-key order exactly as the local
// path does. The report bytes are identical either way.
func (o Options) sweepRemote(ctx context.Context, name string, labels []string, benches []workload.Benchmark, cfgs []config.Config) ([][]float64, error) {
	specs := o.jobSpecs(name, labels, benches, cfgs)
	hc := o.harnessConfig(name)
	cl := fabric.NewClient(o.Coordinator, o.Token)
	start := time.Now()

	sub, err := cl.Submit(ctx, fabric.CampaignSpec{
		Name:        name,
		Fingerprint: hc.Fingerprint,
		Jobs:        specs,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: submit to %s: %w", name, o.Coordinator, err)
	}
	if sub.Attached {
		o.event(harness.Event{Kind: harness.EventWarn, Key: name,
			Err: fmt.Sprintf("attached to in-flight campaign %s (resuming, not restarting)", sub.ID)})
	}

	// Track the final counters for the campaign summary.
	var final fabric.CampaignStatus
	res, err := cl.Wait(ctx, sub.ID, func(st fabric.CampaignStatus) { final = st })
	if err != nil {
		return nil, fmt.Errorf("%s: campaign %s: %w", name, sub.ID, err)
	}
	if res.State == fabric.StateCancelled {
		return nil, fmt.Errorf("%s: campaign %s was cancelled on the coordinator", name, sub.ID)
	}

	// Fold the remote campaign into the run summary and decode the cells.
	sum := &harness.Summary{Name: name, Total: len(specs), Wall: time.Since(start)}
	results := make(map[string]cellResult, len(res.Results))
	for key, raw := range res.Results {
		var cell cellResult
		if err := json.Unmarshal(raw, &cell); err != nil {
			return nil, fmt.Errorf("%s: cell %s: undecodable result: %w", name, key, err)
		}
		results[key] = cell
		sum.Completed++
		sum.SimCycles += cell.Stats.Cycles
		sum.SimInsts += cell.Stats.Committed
	}
	sum.Failed = len(res.Failures)
	sum.Failures = append(sum.Failures, res.Failures...)
	// Every requeue (lost worker, reported failure, voluntary release) is
	// one attempt beyond a cell's first.
	sum.Attempts = sum.Completed + sum.Failed + final.Requeues
	sum.Retries = final.Requeues
	o.mergeSummary(sum)
	if len(res.Failures) > 0 {
		return nil, &harness.FailedError{Failures: res.Failures}
	}

	// Assemble in job-key order (the specs slice), never completion order.
	ipc := make([][]float64, len(benches))
	idx := 0
	for bi := range benches {
		ipc[bi] = make([]float64, len(cfgs))
		for mi := range cfgs {
			cell, ok := results[specs[idx].Key]
			if !ok {
				return nil, fmt.Errorf("%s: coordinator returned no result for %s", name, specs[idx].Key)
			}
			ipc[bi][mi] = cell.IPC
			idx++
		}
	}
	return ipc, nil
}

// event forwards a harness event to the configured sink.
func (o Options) event(ev harness.Event) {
	if o.OnEvent != nil {
		o.OnEvent(ev)
	}
}
