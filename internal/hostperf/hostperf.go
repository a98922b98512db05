// Package hostperf backs the CLI tools' -cpuprofile/-memprofile flags with
// runtime/pprof host profiles. The project's performance record is the
// host-speed benchmark (hostbench/) and the BENCH_*.json snapshots at the
// repo root.
package hostperf

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts a runtime/pprof CPU profile to cpuPath and arranges
// a heap profile to memPath, either of which may be empty. The returned
// stop function (never nil) ends the CPU profile and writes the heap
// snapshot; call it exactly once, on every exit path that should keep the
// profiles.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			// Collect first so the profile shows live steady-state heap,
			// not garbage awaiting the next GC cycle.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("memprofile: %w", err)
			}
			return f.Close()
		}
		return nil
	}, nil
}
