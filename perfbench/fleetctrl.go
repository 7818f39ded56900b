package main

import (
	"fmt"
	"strings"

	"exist/internal/cluster"
	"exist/internal/coverage"
	"exist/internal/faults"
	"exist/internal/metrics"
	"exist/internal/simtime"
	"exist/internal/workload"
)

// fleet-ctrl is the paper's orchestration claim at fleet scale: a burst of
// striped trace requests hits a sharded, replicated control plane over
// lite nodes that churn (graceful leave and rejoin). The control plane
// does nearly all the work — store, watch streams, work queues, leases —
// and no walker, tracer or decoder runs. The burst is open loop in
// simulated time, so the generator cannot run late. Controller crashes
// are left out on purpose: they make the simulated tail latency swing
// several-fold across seeds, which would hide real changes.

// fleetCtrlSize sets how much fleet-ctrl simulates.
type fleetCtrlSize struct {
	nodes, requests int
}

var fleetCtrlFull = fleetCtrlSize{nodes: 100_000, requests: 25_000}

const (
	fleetStripe    = 8                                // nodes per request
	fleetStagger   = 10 * simtime.Microsecond         // filing interval
	fleetFileStart = simtime.Time(2 * simtime.Second) // after shard ownership converges
	fleetStep      = 250 * simtime.Millisecond        // stop-test granularity
	fleetMaxT      = simtime.Time(90 * simtime.Second)
)

// fleetRequest is one generated trace request.
type fleetRequest struct {
	name  string
	nodes []string
	at    simtime.Time
}

type fleetCtrl struct {
	seed  uint64
	size  fleetCtrlSize
	c     *cluster.Cluster
	burst []fleetRequest
}

func newFleetCtrl(seed uint64, size fleetCtrlSize) *fleetCtrl {
	return &fleetCtrl{seed: seed, size: size}
}

func (w *fleetCtrl) setup(rec *recorder) error {
	cfg := cluster.DefaultConfig()
	cfg.Lite = true
	cfg.Nodes = w.size.nodes
	cfg.CoresPerNode = 4
	cfg.Seed = w.seed
	cfg.Replicas = 3
	cfg.Shards = 8
	cfg.Faults = faults.New(faults.Config{
		Seed:          w.seed + 41,
		ChurnMTBF:     240 * simtime.Second,
		ChurnDownMean: simtime.Second,
	})
	cfg.RequestDeadline = 30 * simtime.Second
	sp := rec.begin("cluster.New", "")
	w.c = cluster.New(cfg)
	rec.end(sp)
	agent, err := workload.ByName("Agent")
	if err != nil {
		return err
	}
	sp = rec.begin("cluster.Deploy", "Agent")
	err = w.c.Deploy(agent, nil, workload.InstallOpts{})
	rec.end(sp)
	if err != nil {
		return err
	}
	// Each request traces an 8-node stripe; stripes tile the fleet.
	w.burst = make([]fleetRequest, w.size.requests)
	for i := range w.burst {
		names := make([]string, fleetStripe)
		for j := range names {
			names[j] = fmt.Sprintf("node-%d", (i*fleetStripe+j)%w.size.nodes)
		}
		w.burst[i] = fleetRequest{
			name:  fmt.Sprintf("cp-%05d", i),
			nodes: names,
			at:    fleetFileStart + simtime.Time(i)*simtime.Time(fleetStagger),
		}
	}
	return nil
}

func (w *fleetCtrl) run(rec *recorder) outcome {
	out := outcome{layer: map[string]float64{}}
	c := w.c
	n := len(w.burst)

	// Pending→Running latency probe; it observes phases and never feeds
	// back into the run.
	runningAt := make(map[string]simtime.Time, n)
	c.API.Watch(func(r *cluster.TraceRequest) {
		if r.Phase == cluster.PhaseRunning {
			if _, ok := runningAt[r.Name]; !ok {
				runningAt[r.Name] = c.Eng.Now()
			}
		}
	})
	filedAt := make(map[string]simtime.Time, n)
	reqs := make([]*cluster.TraceRequest, 0, n)
	for i := range w.burst {
		fr := &w.burst[i]
		c.Eng.Schedule(fr.at, func(now simtime.Time) {
			sp := rec.begin("cluster.Request", fr.name)
			r, err := c.Request(fr.name, cluster.TraceRequestSpec{
				App:     "Agent",
				Purpose: coverage.PurposeAnomaly,
				Nodes:   fr.nodes,
				Period:  400 * simtime.Millisecond,
			})
			rec.end(sp)
			if err != nil {
				out.fail("request %s: %v", fr.name, err)
				return
			}
			reqs = append(reqs, r)
			filedAt[fr.name] = now
		})
	}

	// Sample the aggregate queue depth and per-shard lease owners every
	// 20 ms until the burst drains.
	qMax, maxOwners := 0, 0
	done := false
	var sample func(now simtime.Time)
	sample = func(now simtime.Time) {
		depth := 0
		for _, ct := range c.Controllers {
			depth += ct.QueueDepth()
		}
		qMax = max(qMax, depth)
		for s := 0; s < c.API.Shards(); s++ {
			maxOwners = max(maxOwners, c.ActiveOwnersShard(s, now))
		}
		if !done {
			c.Eng.AfterDetached(20*simtime.Millisecond, sample)
		}
	}
	c.Eng.Schedule(fleetFileStart+simtime.Time(20*simtime.Millisecond), sample)

	// Step until every request is terminal. The stop test reads simulated
	// state at fixed simulated times, so the makespan is deterministic.
	var end simtime.Time
	for end = fleetFileStart + simtime.Time(fleetStep); ; end += simtime.Time(fleetStep) {
		sp := rec.begin("cluster.Run", "")
		c.Run(end)
		rec.end(sp)
		if (len(reqs) == n && allTerminal(reqs)) || end >= fleetMaxT {
			done = true
			break
		}
	}

	out.ops = n + 1
	checkRequests(reqs, n, &out)
	if maxOwners > 1 {
		out.failed++
		out.fail("%d lease-valid owners sampled on one shard", maxOwners)
	}

	var lat []float64
	for _, r := range reqs {
		if at, ok := runningAt[r.Name]; ok {
			lat = append(lat, (at-filedAt[r.Name]).Seconds()*1e3)
		}
	}
	p50, p99 := metrics.Percentile(lat, 50), metrics.Percentile(lat, 99)
	cpuPerReq := 0.0
	if len(reqs) > 0 {
		cpuPerReq = c.Mgmt.CPUSeconds / float64(len(reqs)) * 1e6
	}
	fs := c.Cfg.Faults.Stats()
	m := c.Mgmt
	out.sim = append(out.sim, p50, p99, cpuPerReq, float64(end), float64(len(lat)),
		float64(m.Syncs), float64(m.Requeues), float64(m.Conflicts), float64(m.FencedOps),
		float64(m.Relists), float64(m.Elections), float64(c.ShardRebalances()), float64(qMax),
		float64(c.OSS.Puts()), float64(fs.Leaves), float64(fs.Joins))

	l := out.layer
	l["sim.ctrl_p50_ms"] = p50
	l["sim.ctrl_p99_ms"] = p99
	l["sim.mgmt_cpu_us_per_req"] = cpuPerReq
	l["cluster.syncs"] = float64(m.Syncs)
	if len(reqs) > 0 {
		l["cluster.syncs_per_request"] = float64(m.Syncs) / float64(len(reqs))
	}
	l["cluster.requeues"] = float64(m.Requeues)
	l["cluster.conflicts"] = float64(m.Conflicts)
	l["cluster.fenced_ops"] = float64(m.FencedOps)
	l["cluster.relists"] = float64(m.Relists)
	l["cluster.elections"] = float64(m.Elections)
	l["cluster.rebalances"] = float64(c.ShardRebalances())
	l["cluster.queue_max"] = float64(qMax)
	l["cluster.oss_puts"] = float64(c.OSS.Puts())
	l["faults.leaves"] = float64(fs.Leaves)
	l["faults.joins"] = float64(fs.Joins)
	if rec != nil {
		for k, v := range rec.selfMS(func(s *span) string { return clusterSpanMetric[s.Name] }) {
			l[k] = v
		}
		steps := rec.durationsMS("cluster.Run")
		l["cluster.step_p50_ms"] = metrics.Percentile(steps, 50)
		l["cluster.step_p90_ms"] = metrics.Percentile(steps, 90)
		var runMS float64
		for _, ms := range steps {
			runMS += ms
		}
		if m.Syncs > 0 {
			l["cluster.host_us_per_sync"] = runMS * 1e3 / float64(m.Syncs)
		}
	}
	w.c = nil
	return out
}

func allTerminal(reqs []*cluster.TraceRequest) bool {
	for _, r := range reqs {
		if !r.Phase.Terminal() {
			return false
		}
	}
	return true
}

// checkRequests fails every request that was not filed, is not terminal,
// shares a session key with an earlier upload, or has planned session
// slots that neither landed nor were accounted as lost. Slots of requests
// cut short by their deadline are not expected to land.
func checkRequests(reqs []*cluster.TraceRequest, filed int, out *outcome) {
	if missing := filed - len(reqs); missing > 0 {
		out.failed += missing
		out.fail("%d of %d requests were not filed", missing, filed)
	}
	seen := make(map[string]bool)
	for _, r := range reqs {
		var bad []string
		if !r.Phase.Terminal() {
			bad = append(bad, fmt.Sprintf("phase %s is not terminal", r.Phase))
		}
		for _, k := range r.SessionKeys {
			if seen[k] {
				bad = append(bad, "duplicated session key "+k)
			}
			seen[k] = true
		}
		if r.Planned > 0 && !expiredByDeadline(r) {
			if diff := r.Planned - len(r.SessionKeys) - r.Lost; diff > 0 {
				bad = append(bad, fmt.Sprintf("%d unaccounted slots", diff))
			}
		}
		if len(bad) > 0 {
			out.failed++
			out.fail("request %s: %v", r.Name, bad)
		}
	}
}

// expiredByDeadline reports a request forced terminal by its deadline.
func expiredByDeadline(r *cluster.TraceRequest) bool {
	return strings.HasPrefix(r.Message, "deadline exceeded")
}

// clusterSpanMetric maps control-plane span names to their self-time
// metrics.
var clusterSpanMetric = map[string]string{
	"cluster.New":     "cluster.new_ms",
	"cluster.Deploy":  "cluster.deploy_ms",
	"cluster.Request": "cluster.request_ms",
	"cluster.Run":     "cluster.run_ms",
}
