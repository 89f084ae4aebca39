package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Runtime metric names read at the window's edges.
const (
	metricGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCPU = "/cpu/classes/total:cpu-seconds"
	metricIdleCPU  = "/cpu/classes/idle:cpu-seconds"
	metricHeapLive = "/memory/classes/heap/objects:bytes"
)

// readProc reads the whole-process accounting: user+sys CPU from
// getrusage, the allocator's cumulative counters, and the runtime's CPU
// classes. ReadMemStats stops the world for a moment; it is called twice
// per run, at the window's edges, never inside it.
func readProc() procSnapshot {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{{Name: metricGCCPU}, {Name: metricTotalCPU}, {Name: metricIdleCPU}}
	metrics.Read(samples)
	return procSnapshot{
		at:        time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   ms.Mallocs,
		allocated: ms.TotalAlloc,
		gcCPU:     samples[0].Value.Float64(),
		busyCPU:   samples[1].Value.Float64() - samples[2].Value.Float64(),
	}
}

// heapObjectsBytes is the memory occupied by live and not-yet-swept heap
// objects right now.
func heapObjectsBytes() uint64 {
	sample := []metrics.Sample{{Name: metricHeapLive}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
