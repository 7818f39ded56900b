// Command perfbench is the repository's benchmark. It runs one workload
// at a seed for a given number of seconds, checks the simulator's outputs,
// and prints every metric with its unit; the last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash perfbench/run.sh --workload node-sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of catalog.go; with
// --trace 1 it alternates untraced and traced iterations and reports the
// per-layer metrics, the tracing overhead among them. README.md explains
// the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// iteration is one set-up and one measured phase of a workload. Every
// iteration of a run builds the same inputs from the same seed, so its
// simulated statistics, and their digest, repeat exactly.
type iteration interface {
	// setup builds the inputs; its CPU time is setup_s.
	setup(rec *recorder) error
	// run is the measured phase.
	run(rec *recorder) outcome
}

// outcome is what one measured phase did and found.
type outcome struct {
	ops, failed int
	// problems describe failed correctness checks.
	problems []string
	// sim holds the simulated statistics the digest covers, in a fixed
	// order.
	sim []float64
	// layer holds per-layer metrics (filled only when traced, except for
	// counts, which are cheap to take every time).
	layer map[string]float64
}

// fail records a failed check.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// digest hashes the simulated statistics bit for bit.
func (o *outcome) digest() uint64 {
	h := fnv.New64a()
	for _, v := range o.sim {
		fmt.Fprintf(h, "%x;", v)
	}
	return h.Sum64()
}

// workloads maps each workload name to its iteration constructor.
var workloads = map[string]func(seed uint64) iteration{
	"node-sweep":     func(seed uint64) iteration { return newNodeSweep(seed, nodeSweepFull) },
	"trace-accuracy": func(seed uint64) iteration { return newTraceAccuracy(seed, traceAccuracyFull) },
	"fleet-ctrl":     func(seed uint64) iteration { return newFleetCtrl(seed, fleetCtrlFull) },
}

// minIterations is the fewest iterations a run makes, whatever --seconds
// says, so that setup_s and cpu_s are medians of several samples.
const minIterations = 3

// options are a run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spans    string
}

// iterSample is one iteration's host measurements.
type iterSample struct {
	traced   bool
	setup    time.Duration // wall time of the set-up
	setupCPU time.Duration // process CPU time of the set-up
	wall     time.Duration
	cpu      time.Duration
	allocB   uint64
	gcCycles uint64
	gcCPU    float64
	steal    float64
	out      outcome
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := runBenchmark(opt, os.Stdout, workloads[opt.workload])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload name")
	fs.Uint64Var(&opt.seed, "seed", 1, "input seed")
	fs.IntVar(&opt.seconds, "seconds", 10, "seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&opt.spans, "spans", "", "span output file for traced runs (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if _, ok := workloads[opt.workload]; !ok {
		return opt, fmt.Errorf("unknown workload %q (node-sweep, trace-accuracy, fleet-ctrl)", opt.workload)
	}
	if opt.seconds < 1 {
		return opt, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return opt, errors.New("--trace must be 0 or 1")
	}
	opt.trace = trace == 1
	if opt.trace && opt.spans == "" {
		opt.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", opt.workload, opt.seed))
	}
	return opt, nil
}

// runBenchmark runs iterations of one workload for opt.seconds (and at
// least minIterations), logging each to log, and aggregates them. In a
// traced run, even iterations run untraced and odd ones traced, so drift
// on the host affects both sides alike.
func runBenchmark(opt options, log io.Writer, newIter func(uint64) iteration) (result, error) {
	fmt.Fprintf(log, "# perfbench workload=%s seed=%d seconds=%d trace=%v\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	fmt.Fprintf(log, "# host %s seed=%d\n", fingerprint(), opt.seed)
	var samples []iterSample
	var lastSpans []span
	start := time.Now()
	budget := time.Duration(opt.seconds) * time.Second
	for i := 0; i < minIterations || time.Since(start) < budget || (opt.trace && i < 2); i++ {
		traced := opt.trace && i%2 == 1
		var rec *recorder
		if traced {
			rec = newRecorder()
		}
		s, err := measureIteration(newIter(opt.seed), rec)
		if err != nil {
			return result{}, err
		}
		s.traced = traced
		samples = append(samples, s)
		if rec != nil {
			lastSpans = rec.spans
		}
		fmt.Fprintf(log, "# iter %d traced=%v setup_s=%.4f setup_wall_s=%.4f wall_s=%.4f cpu_s=%.4f steal_s=%.2f alloc_mb=%.1f ops=%d failed=%d digest=%016x\n",
			i, traced, s.setupCPU.Seconds(), s.setup.Seconds(), s.wall.Seconds(), s.cpu.Seconds(), s.steal, float64(s.allocB)/(1<<20),
			s.out.ops, s.out.failed, s.out.digest())
	}
	if opt.trace {
		if err := writeSpans(opt.spans, lastSpans); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(log, "# spans %d written to %s\n", len(lastSpans), opt.spans)
	}
	return aggregate(samples, opt.trace, log), nil
}

// measureIteration sets up one iteration and times its measured phase.
// The heap is collected before each phase so that one phase's garbage is
// not charged to the next.
func measureIteration(it iteration, rec *recorder) (iterSample, error) {
	var s iterSample
	runtime.GC()
	c0 := processCPU()
	t0 := time.Now()
	root := rec.begin("setup", "")
	err := it.setup(rec)
	rec.end(root)
	s.setup = time.Since(t0)
	s.setupCPU = processCPU() - c0
	if err != nil {
		return s, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	u0 := readUsage()
	t0 = time.Now()
	root = rec.begin("run", "")
	s.out = it.run(rec)
	rec.end(root)
	s.wall = time.Since(t0)
	u1 := readUsage()
	s.cpu = u1.cpu - u0.cpu
	s.allocB = u1.allocB - u0.allocB
	s.gcCycles = u1.gcCycles - u0.gcCycles
	s.gcCPU = u1.gcCPU - u0.gcCPU
	s.steal = u1.steal - u0.steal
	return s, nil
}

// aggregate turns iteration samples into the result line: medians of the
// untraced iterations for the end-to-end metrics, medians of the traced
// ones for the per-layer metrics. The end-to-end times are CPU times, not
// wall times: on a virtual machine the hypervisor's steal inflates wall
// time by a share that drifts over minutes, while CPU time leaves it out.
// Wall time is reported per layer, as bench.wall_s. Every iteration must
// pass its checks and produce the first iteration's digest.
func aggregate(samples []iterSample, traced bool, log io.Writer) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	want := samples[0].out.digest()
	for i, s := range samples {
		res.Attempted += s.out.ops
		res.Failed += s.out.failed
		for _, p := range s.out.problems {
			res.Correct = false
			fmt.Fprintf(log, "# FAIL iter %d: %s\n", i, p)
		}
		if d := s.out.digest(); d != want {
			res.Correct = false
			fmt.Fprintf(log, "# FAIL iter %d: sim digest %016x, iteration 0 gave %016x\n", i, d, want)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	fmt.Fprintf(log, "# sim digest %016x\n", want)

	pick := func(tr bool, f func(iterSample) float64) []float64 {
		var xs []float64
		for _, s := range samples {
			if s.traced == tr {
				xs = append(xs, f(s))
			}
		}
		return xs
	}
	wall := func(s iterSample) float64 { return s.wall.Seconds() }
	if !traced {
		vals := map[string]float64{
			"cpu_s":       median(pick(false, func(s iterSample) float64 { return s.cpu.Seconds() })),
			"setup_s":     median(pick(false, func(s iterSample) float64 { return s.setupCPU.Seconds() })),
			"peak_rss_mb": peakRSSMB(),
			"alloc_mb":    median(pick(false, func(s iterSample) float64 { return float64(s.allocB) / (1 << 20) })),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		return res
	}
	vals := map[string]float64{
		"bench.wall_s":           median(pick(false, wall)),
		"bench.trace_overhead_s": median(pick(true, wall)) - median(pick(false, wall)),
		"go.gc_cycles":           median(pick(true, func(s iterSample) float64 { return float64(s.gcCycles) })),
		"go.gc_cpu_s":            median(pick(true, func(s iterSample) float64 { return s.gcCPU })),
	}
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			v = median(pick(true, func(s iterSample) float64 { return s.out.layer[m.name] }))
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	return res
}
