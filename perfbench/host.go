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

// usage is a snapshot of the process's host-side resource counters.
type usage struct {
	cpu      time.Duration // user + system CPU of every thread
	allocB   uint64        // cumulative heap bytes allocated
	gcCycles uint64        // completed GC cycles
	gcCPU    float64       // CPU seconds spent in GC (estimate from runtime/metrics)
	steal    float64       // machine-wide hypervisor steal, seconds
}

// readUsage samples the process's CPU time and the Go runtime counters.
func readUsage() usage {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	u := usage{cpu: processCPU(), steal: stealSeconds()}
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		u.allocB = v.Uint64()
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		u.gcCycles = v.Uint64()
	}
	if v := samples[2].Value; v.Kind() == metrics.KindFloat64 {
		u.gcCPU = v.Float64()
	}
	return u
}

// processCPU is the user + system CPU time of every thread of the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSeconds reads the CPU time the hypervisor took from this machine's
// virtual CPUs, summed over CPUs (0 where /proc/stat does not say). It is
// logged per iteration to explain host noise; no metric depends on it.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// peakRSSMB is the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports kilobytes
}

// fingerprint identifies the host a result was measured on. Numbers from
// different fingerprints are not comparable.
func fingerprint() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
