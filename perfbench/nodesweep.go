package main

import (
	"math"

	"exist/internal/node"
	"exist/internal/simtime"
	"exist/internal/workload"
	"exist/internal/xrand"
)

// node-sweep is the paper's overhead comparison (Figures 13-15): every
// registry backend traces every cloud app and online benchmark over the
// same node realization, and EXIST's service-time inflation is read
// against the paired Oracle window. Execution is analytic at full rate, so
// the work is in sched, simtime, kernel, core (OTC), the baselines and the
// ipt bulk/PAD path; no walker, decoder or cluster runs.

// nodeSweepSize sets how much node-sweep simulates.
type nodeSweepSize struct {
	apps int              // leading apps of CloudApps()+OnlineBenchmarks() (0: all)
	dur  simtime.Duration // simulated tracing window per node
}

var nodeSweepFull = nodeSweepSize{dur: 2 * simtime.Second}

// sweepBackends are the tracer registry's backends, Oracle first: it is
// the untraced baseline every other window is paired with.
var sweepBackends = []string{"Oracle", "EXIST", "StaSam", "eBPF", "NHT"}

type nodeSweep struct {
	seed uint64
	size nodeSweepSize
	apps []workload.Profile
	// nodes[a][b] is app a's node under sweepBackends[b], provisioned in
	// setup and released once harvested.
	nodes [][]*node.Runtime
}

func newNodeSweep(seed uint64, size nodeSweepSize) *nodeSweep {
	return &nodeSweep{seed: seed, size: size}
}

func (w *nodeSweep) setup(rec *recorder) error {
	xz, err := workload.ByName("xz")
	if err != nil {
		return err
	}
	w.apps = append(workload.CloudApps(), workload.OnlineBenchmarks()...)
	if w.size.apps > 0 {
		w.apps = w.apps[:w.size.apps]
	}
	w.nodes = make([][]*node.Runtime, len(w.apps))
	for a, p := range w.apps {
		// One machine seed per app, shared by its five windows: the
		// comparison is paired, so every backend sees the same realization.
		seed := xrand.Split(w.seed, "node-sweep/"+p.Name).Uint64()
		for _, b := range sweepBackends {
			spec := node.Spec{
				Cores:     8,
				Timeslice: simtime.Millisecond,
				Seed:      seed,
				Workload:  p,
				CoRunners: []node.CoRunner{{Profile: xz, SeedOffset: 101}},
				Backend:   b,
				Dur:       w.size.dur,
			}
			sp := rec.begin("node.Provision", p.Name+"/"+b)
			w.nodes[a] = append(w.nodes[a], node.Provision(spec))
			rec.end(sp)
		}
	}
	return nil
}

func (w *nodeSweep) run(rec *recorder) outcome {
	out := outcome{layer: map[string]float64{}}
	var wc windowCounts
	res := make([][]node.Result, len(w.apps))
	for a, p := range w.apps {
		res[a] = make([]node.Result, len(sweepBackends))
		for b, name := range sweepBackends {
			out.ops++
			r, err := runWindow(rec, w.nodes[a][b], p.Name+"/"+name, &wc)
			w.nodes[a][b] = nil
			if err != nil {
				out.failed++
				out.fail("%s under %s: %v", p.Name, name, err)
				continue
			}
			// Keep the counters only: a Result holds its machine, and with
			// it the tracers' buffers.
			res[a][b] = node.Result{Stats: r.Stats}
			out.sim = append(out.sim, float64(r.Stats.Cycles), float64(r.Stats.Insns),
				float64(r.Stats.CPUTime), float64(r.Stats.KernelTime), float64(r.Stats.Switches),
				float64(r.MSROps), r.SpaceMB)
		}
	}

	// Mean inflation per backend over the apps, against the paired Oracle.
	infl := make([]float64, len(sweepBackends))
	for a := range w.apps {
		for b := range sweepBackends {
			infl[b] += res[a][b].Inflation(res[a][0]) / float64(len(w.apps))
		}
	}
	out.sim = append(out.sim, infl...)
	out.ops++
	exist, stasam, ebpf, nht := infl[1], infl[2], infl[3], infl[4]
	if !(exist < math.Min(stasam, ebpf) && math.Max(stasam, ebpf) < nht) {
		out.failed++
		out.fail("paper-shape ordering broken: mean inflation EXIST %.4f%%, StaSam %.4f%%, eBPF %.4f%%, NHT %.4f%%",
			exist*100, stasam*100, ebpf*100, nht*100)
	}
	out.layer["sim.exist_overhead_pct"] = exist * 100
	wc.report(rec, out.layer)
	return out
}
