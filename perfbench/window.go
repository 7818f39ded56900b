package main

import (
	"strings"

	"exist/internal/metrics"
	"exist/internal/node"
)

// Node windows are shared by node-sweep and trace-accuracy: both drive
// provisioned nodes through the same lifecycle and count the same things.

// windowCounts accumulates the simulator's counts over the node windows
// of one iteration.
type windowCounts struct {
	switches int64 // machine-wide context switches
	insns    int64 // target instructions retired
	branches int64 // target branches retired in branch-exact (walker) windows
	msrOps   int64 // backend control MSR operations
	iptBytes int64 // PT bytes accepted by the core tracers
}

// runWindow drives a provisioned node through Attach, Run and Harvest,
// each in its own span, and adds the window's counts to wc.
func runWindow(rec *recorder, rt *node.Runtime, id string, wc *windowCounts) (node.Result, error) {
	sp := rec.begin("node.Attach", id)
	err := rt.Attach()
	rec.end(sp)
	if err != nil {
		return node.Result{}, err
	}
	sp = rec.begin("node.Run", id)
	rt.Run()
	rec.end(sp)
	sp = rec.begin("node.Harvest", id)
	r, err := rt.Harvest()
	rec.end(sp)
	if err != nil {
		return r, err
	}
	for _, c := range r.Machine.Cores {
		wc.iptBytes += c.Tracer.Stats.Bytes
	}
	wc.switches += r.Machine.Stats.Switches
	wc.insns += r.Stats.Insns
	if rt.Spec.Walker {
		// Analytic execution retires branches as a rate, not as events
		// the simulator handles one by one.
		wc.branches += r.Stats.Branches
	}
	wc.msrOps += r.MSROps
	return r, nil
}

// report writes the window counts, and with a recorder the node-layer
// host times, into layer.
func (wc *windowCounts) report(rec *recorder, layer map[string]float64) {
	layer["sched.switches"] = float64(wc.switches)
	layer["sched.insns_m"] = float64(wc.insns) / 1e6
	layer["sched.branches_m"] = float64(wc.branches) / 1e6
	layer["core.msr_ops"] = float64(wc.msrOps)
	layer["ipt.bytes_mb"] = float64(wc.iptBytes) / (1 << 20)
	if rec == nil {
		return
	}
	self := rec.selfMS(func(s *span) string {
		if s.Name == "node.Run" {
			_, backend, _ := strings.Cut(s.ID, "/")
			return "node.run." + strings.ToLower(backend) + "_ms"
		}
		return nodeSpanMetric[s.Name]
	})
	for k, v := range self {
		layer[k] = v
	}
	runs := rec.durationsMS("node.Run")
	layer["node.run_p50_ms"] = metrics.Percentile(runs, 50)
	layer["node.run_p90_ms"] = metrics.Percentile(runs, 90)
	var runNS float64
	for _, ms := range runs {
		runNS += ms * 1e6
	}
	if wc.switches > 0 {
		layer["sched.host_ns_per_switch"] = runNS / float64(wc.switches)
	}
	if wc.branches > 0 {
		layer["sched.host_ns_per_branch"] = runNS / float64(wc.branches)
	}
}

// nodeSpanMetric maps node-layer span names to their self-time metrics.
var nodeSpanMetric = map[string]string{
	"node.Provision": "node.provision_ms",
	"node.Attach":    "node.attach_ms",
	"node.Harvest":   "node.harvest_ms",
}
