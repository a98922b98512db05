package harness

import (
	"context"
	"sync/atomic"
	"time"
)

// Heartbeat is a job's progress channel to the stall watchdog: the job (or
// the simulator, through its config.Observe hook) calls Beat with a
// monotonically advancing progress value — simulated cycles, in the sweeps —
// and the watchdog cancels the attempt when the value stops changing. A nil
// Heartbeat is safe to beat.
type Heartbeat struct {
	v     atomic.Uint64
	beats atomic.Uint64
}

// Beat reports progress. The value only has to change while the job is
// making progress; simulated-cycle counts are the natural choice.
func (h *Heartbeat) Beat(progress uint64) {
	if h == nil {
		return
	}
	h.v.Store(progress)
	h.beats.Add(1)
}

// Load returns the last beaten progress value.
func (h *Heartbeat) Load() uint64 {
	if h == nil {
		return 0
	}
	return h.v.Load()
}

// Since reports whether the job has advanced past last, a progress value
// read from it earlier, and returns the value now. A heartbeat never beaten
// counts as advancing: a job that has reported no progress yet (a workload
// still being built) cannot be judged stalled. Both executors' liveness
// rules read it: the stall watchdog here and the fabric worker's lease
// renewal.
func (h *Heartbeat) Since(last uint64) (cur uint64, moved bool) {
	if h == nil {
		return 0, true
	}
	cur = h.v.Load()
	return cur, h.beats.Load() == 0 || cur != last
}

// watch starts the simulated-cycle progress watchdog: once the job has
// beaten at least once, if the heartbeat value then fails to advance for
// stall, onStall fires (the runner cancels the attempt's context with
// ErrStalled). Jobs that never beat are left to the wall-clock deadline.
// The returned func stops the watchdog. A stall of 0 disables it.
func watch(ctx context.Context, hb *Heartbeat, stall time.Duration, onStall func()) (stop func()) {
	if stall <= 0 {
		return func() {}
	}
	poll := stall / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	stopCh := make(chan struct{})
	go func() {
		t := time.NewTicker(poll)
		defer t.Stop()
		var last uint64
		lastChange := time.Now()
		for {
			select {
			case <-ctx.Done():
				return
			case <-stopCh:
				return
			case now := <-t.C:
				cur, moved := hb.Since(last)
				if moved {
					last, lastChange = cur, now
				} else if now.Sub(lastChange) > stall {
					onStall()
					return
				}
			}
		}
	}()
	return func() { close(stopCh) }
}
