// Package memalloc implements EXIST's Usage-aware Memory Allocator (UMA,
// §3.3 of the paper): given a node memory budget for tracing, it picks the
// Traced Core Set (TCS) from the target process's Mapped Core Set (MCS)
// and sizes each core's buffer.
//
// The two CPU provisioning modes get different treatment:
//
//   - CPU-set processes own a small exclusive core set, so the whole MCS
//     is traced with equal buffers.
//   - CPU-share processes are mapped onto many cores but tend to execute
//     on a few, so UMA samples a core subset — the cores the process
//     recently ran on, plus a utilization-weighted sample of the rest,
//     with lower-utilization cores preferred (they are more likely to
//     receive the next schedule-in) and given larger buffers.
package memalloc

import (
	"sort"

	"exist/internal/sched"
	"exist/internal/xrand"
)

// Config parameterizes the allocator.
type Config struct {
	// Budget is the node memory allowance for trace buffers, in bytes.
	// The paper permits roughly 0.5-1 GB per node (§2.3, §4).
	Budget int64
	// PerCoreMin and PerCoreMax bound individual buffers (4 MB-128 MB in
	// the paper's implementation).
	PerCoreMin, PerCoreMax int64
	// SampleRatio is the fraction of the MCS to trace for CPU-share
	// processes; zero selects it automatically from the budget.
	SampleRatio float64
}

// DefaultConfig returns the paper's deployment values.
func DefaultConfig() Config {
	return Config{
		Budget:     500 << 20,
		PerCoreMin: 4 << 20,
		PerCoreMax: 128 << 20,
	}
}

// CorePlan is one traced core's allocation.
type CorePlan struct {
	// Core is the logical core ID.
	Core int
	// BufBytes is the buffer size assigned to the core.
	BufBytes int64
}

// Plan is the allocator's output.
type Plan struct {
	// Cores lists the traced core set with buffer sizes, ordered by core.
	Cores []CorePlan
	// TotalBytes is the memory the plan consumes.
	TotalBytes int64
	// SampleRatio is the achieved TCS/MCS ratio.
	SampleRatio float64
}

// PlanBuffers computes the traced core set and buffer sizes for target on
// machine m. Core utilization is read from the machine's accounting so
// far (the paper's UMA consults node runtime status at initialization).
func PlanBuffers(m *sched.Machine, target *sched.Process, cfg Config, rng *xrand.Rand) Plan {
	if cfg.Budget <= 0 || cfg.PerCoreMin <= 0 || cfg.PerCoreMax < cfg.PerCoreMin {
		panic("memalloc: invalid config")
	}
	mcs := target.Allowed
	if target.Mode == sched.CPUSet {
		return equalSplit(mcs, cfg)
	}
	return sampledSplit(m, target, cfg, rng)
}

// equalSplit traces the whole MCS with equal per-core buffers.
func equalSplit(mcs []int, cfg Config) Plan {
	per := clamp(cfg.Budget/int64(len(mcs)), cfg.PerCoreMin, cfg.PerCoreMax)
	p := Plan{SampleRatio: 1}
	for _, c := range sortedCopy(mcs) {
		p.Cores = append(p.Cores, CorePlan{Core: c, BufBytes: per})
		p.TotalBytes += per
	}
	return p
}

// sampledSplit picks a TCS subset for a CPU-share process.
func sampledSplit(m *sched.Machine, target *sched.Process, cfg Config, rng *xrand.Rand) Plan {
	mcs := sortedCopy(target.Allowed)
	ratio := cfg.SampleRatio
	if ratio <= 0 {
		// Auto ratio: as many cores as the budget can give a usefully
		// large (mid-range) buffer, but no more than the MCS.
		useful := (cfg.PerCoreMin + cfg.PerCoreMax) / 2
		n := cfg.Budget / useful
		if n < 1 {
			n = 1
		}
		ratio = float64(n) / float64(len(mcs))
		if ratio > 1 {
			ratio = 1
		}
	}
	want := int(float64(len(mcs))*ratio + 0.5)
	if want < 1 {
		want = 1
	}
	if want > len(mcs) {
		want = len(mcs)
	}

	elapsed := m.Eng.Now()
	util := func(core int) float64 {
		if elapsed <= 0 {
			return 0
		}
		c := m.Cores[core]
		return float64(c.BusyNS+c.KernelNS) / float64(elapsed)
	}

	// Compulsory members: cores the target's threads are on right now or
	// ran on last (the "current core" of §3.3).
	selected := map[int]bool{}
	compulsory := map[int]bool{}
	var tcs []int
	for _, th := range target.Threads {
		if len(tcs) >= want {
			break
		}
		if c := th.LastCore(); c >= 0 && containsInt(mcs, c) && !selected[c] {
			selected[c] = true
			compulsory[c] = true
			tcs = append(tcs, c)
		}
	}
	// Fill with a utilization-weighted random sample of the rest; idle
	// cores are likelier to receive the next schedule-in and are
	// preferred.
	var rest []int
	for _, c := range mcs {
		if !selected[c] {
			rest = append(rest, c)
		}
	}
	for len(tcs) < want && len(rest) > 0 {
		weights := make([]float64, len(rest))
		for i, c := range rest {
			weights[i] = 1 / (0.15 + util(c))
		}
		i := rng.WeightedPick(weights)
		tcs = append(tcs, rest[i])
		rest = append(rest[:i], rest[i+1:]...)
	}
	sort.Ints(tcs)

	// Budget split — usage-aware: the cores the target is actually on
	// (affinity keeps threads there) dominate the allocation; among the
	// speculative rest, lower-utilization cores get bigger buffers since
	// they are likelier to receive the next schedule-in.
	weights := make([]float64, len(tcs))
	var wTotal float64
	for i, c := range tcs {
		if compulsory[c] {
			weights[i] = 8
		} else {
			weights[i] = 1 / (0.15 + util(c))
		}
		wTotal += weights[i]
	}
	p := Plan{SampleRatio: float64(len(tcs)) / float64(len(mcs))}
	for i, c := range tcs {
		buf := clamp(int64(float64(cfg.Budget)*weights[i]/wTotal), cfg.PerCoreMin, cfg.PerCoreMax)
		p.Cores = append(p.Cores, CorePlan{Core: c, BufBytes: buf})
		p.TotalBytes += buf
	}
	return p
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func sortedCopy(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	return out
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
