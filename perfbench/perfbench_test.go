package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"exist/internal/cluster"
	"exist/internal/simtime"
	"exist/internal/trace"
)

// Small sizes keep the smoke tests to seconds; they exercise the same
// code paths as the full workloads.
var smallSizes = map[string]func(uint64) iteration{
	"node-sweep": func(seed uint64) iteration {
		return newNodeSweep(seed, nodeSweepSize{apps: 3, dur: 300 * simtime.Millisecond})
	},
	"trace-accuracy": func(seed uint64) iteration {
		return newTraceAccuracy(seed, traceAccuracySize{apps: 1, dur: 100 * simtime.Millisecond})
	},
	"fleet-ctrl": func(seed uint64) iteration {
		return newFleetCtrl(seed, fleetCtrlSize{nodes: 2000, requests: 500})
	},
}

// benchmarkJSON is the part of BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v, perfbench implements %d", names, len(workloads))
	}
	check := func(kind string, json []struct{ Name, Unit string }, defs []metricDef) {
		if len(json) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, catalog.go %d", kind, len(json), len(defs))
		}
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		for _, m := range json {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json %s [%s], catalog.go has [%s] (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// runSmall runs a short benchmark of one workload at its small size and
// checks the result line as a caller of the command would read it.
func runSmall(t *testing.T, name string, traced bool) result {
	t.Helper()
	opt := options{workload: name, seed: 3, seconds: 1, trace: traced,
		spans: filepath.Join(t.TempDir(), "spans.jsonl")}
	res, err := runBenchmark(opt, io.Discard, smallSizes[name])
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range back {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := keys; len(got) != 4 || got[0] != "attempted" || got[1] != "correct" || got[2] != "failed" || got[3] != "metrics" {
		t.Fatalf("result keys %v", got)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s printed as %+v (present %v), want unit %s", name, d.name, m, ok, d.unit)
		}
	}
	if traced {
		if _, err := os.Stat(opt.spans); err != nil {
			t.Errorf("%s: spans not written: %v", name, err)
		}
	}
	return res
}

func TestSmokeEndToEnd(t *testing.T) {
	for name := range smallSizes {
		t.Run(name, func(t *testing.T) {
			res := runSmall(t, name, false)
			for _, d := range endToEnd {
				if v := res.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v)
				}
			}
		})
	}
}

// layerOf lists, per workload, per-layer metrics that must be non-zero.
var layerOf = map[string][]string{
	"node-sweep": {"node.provision_ms", "node.run.exist_ms", "node.run.nht_ms", "node.run_p50_ms",
		"sched.switches", "sched.host_ns_per_switch", "core.msr_ops", "ipt.bytes_mb", "sim.exist_overhead_pct"},
	"trace-accuracy": {"binary.synthesize_ms", "node.run.exist_ms", "sched.branches_m", "sched.host_ns_per_branch",
		"ipt.accepted_frac", "trace.marshal_ms", "trace.unmarshal_ms", "trace.wire_mb", "decode.decode_ms",
		"decode.mb_per_s", "decode.events_m", "sim.accuracy", "sim.wire_ratio"},
	"fleet-ctrl": {"cluster.new_ms", "cluster.deploy_ms", "cluster.request_ms", "cluster.run_ms", "cluster.step_p50_ms",
		"cluster.syncs", "cluster.syncs_per_request", "cluster.elections", "cluster.oss_puts", "cluster.host_us_per_sync",
		"sim.ctrl_p50_ms", "sim.ctrl_p99_ms", "sim.mgmt_cpu_us_per_req"},
}

func TestSmokeTraced(t *testing.T) {
	for name := range smallSizes {
		t.Run(name, func(t *testing.T) {
			res := runSmall(t, name, true)
			for _, m := range layerOf[name] {
				if v := res.Metrics[m].Value; !(v > 0) {
					t.Errorf("%s: per-layer metric %s = %v, want > 0", name, m, v)
				}
			}
		})
	}
}

// TestSpanSelfTimesWithinWall checks that self times partition the
// measured phase: over the spans of a traced iteration's run phase they
// sum to no more than the phase's wall time.
func TestSpanSelfTimesWithinWall(t *testing.T) {
	for name, newIter := range smallSizes {
		t.Run(name, func(t *testing.T) {
			rec := newRecorder()
			s, err := measureIteration(newIter(5), rec)
			if err != nil {
				t.Fatal(err)
			}
			self := rec.selfTimes()
			var inRun time.Duration
			n := 0
			for i := range rec.spans {
				root := i
				for rec.spans[root].Parent >= 0 {
					root = rec.spans[root].Parent
				}
				if rec.spans[root].Name == "run" {
					inRun += self[i]
					n++
				}
			}
			if n < 2 {
				t.Fatalf("only %d spans in the run phase", n)
			}
			if inRun > s.wall {
				t.Errorf("span self times sum to %v, more than the traced wall %v", inRun, s.wall)
			}
			for i, d := range self {
				if d < 0 {
					t.Errorf("span %s has negative self time %v", rec.spans[i].Name, d)
				}
			}
		})
	}
}

// TestSameSeedSameDigest runs each workload twice at one seed: every
// simulated statistic must repeat bit for bit.
func TestSameSeedSameDigest(t *testing.T) {
	for name, newIter := range smallSizes {
		t.Run(name, func(t *testing.T) {
			var digests [2]uint64
			for k := range digests {
				s, err := measureIteration(newIter(11), nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(s.out.problems) > 0 {
					t.Fatalf("checks failed: %v", s.out.problems)
				}
				digests[k] = s.out.digest()
			}
			if digests[0] != digests[1] {
				t.Errorf("seed 11 gave digests %016x and %016x", digests[0], digests[1])
			}
			other, err := measureIteration(newIter(12), nil)
			if err != nil {
				t.Fatal(err)
			}
			if other.out.digest() == digests[0] {
				t.Errorf("seeds 11 and 12 gave the same digest %016x", digests[0])
			}
		})
	}
}

// TestCorruptWireBlobFails flips bytes in a shipped session and expects
// the round-trip check to count a failed operation.
func TestCorruptWireBlobFails(t *testing.T) {
	w := newTraceAccuracy(1, traceAccuracySize{apps: 1, dur: 100 * simtime.Millisecond})
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	r, err := runWindow(nil, w.apps[0].exist, "test", &windowCounts{})
	if err != nil {
		t.Fatal(err)
	}
	blob := r.Session.Marshal()
	var ok outcome
	if receive(nil, r.Session, blob, "intact", &ok) == nil || ok.failed != 0 {
		t.Fatalf("intact blob failed: %v", ok.problems)
	}
	for _, corrupt := range []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)/2] }, // truncated upload
		func(b []byte) []byte { // flipped payload bits
			c := append([]byte(nil), b...)
			for i := len(c) / 3; i < len(c)/3+64 && i < len(c); i++ {
				c[i] ^= 0x5a
			}
			return c
		},
	} {
		var out outcome
		if got := receive(nil, r.Session, corrupt(blob), "corrupt", &out); got != nil || out.failed != 1 {
			t.Errorf("corrupted blob: session %v, failed %d, problems %v", got != nil, out.failed, out.problems)
		}
	}
	var empty trace.Session
	if err := sameCoreData(r.Session, &empty); err == nil {
		t.Error("sessions with different core counts compare equal")
	}
}

// TestDuplicatedSessionKeyFails feeds the request check a duplicated
// upload, an unaccounted slot, a request still running and a request
// that was never filed.
func TestDuplicatedSessionKeyFails(t *testing.T) {
	good := &cluster.TraceRequest{Name: "a", Phase: cluster.PhaseCompleted, Planned: 2, SessionKeys: []string{"k1", "k2"}}
	var out outcome
	checkRequests([]*cluster.TraceRequest{good}, 1, &out)
	if out.failed != 0 {
		t.Fatalf("healthy request failed: %v", out.problems)
	}
	dup := &cluster.TraceRequest{Name: "b", Phase: cluster.PhaseCompleted, Planned: 1, SessionKeys: []string{"k2"}}
	short := &cluster.TraceRequest{Name: "c", Phase: cluster.PhaseCompleted, Planned: 3, SessionKeys: []string{"k3"}, Lost: 1}
	running := &cluster.TraceRequest{Name: "d", Phase: cluster.PhaseRunning}
	out = outcome{}
	checkRequests([]*cluster.TraceRequest{good, dup, short, running}, 5, &out)
	if out.failed != 4 {
		t.Errorf("failed = %d, want 4 (duplicate, unaccounted, running, unfiled): %v", out.failed, out.problems)
	}
}

func TestParseArgs(t *testing.T) {
	opt, err := parseArgs([]string{"--workload", "fleet-ctrl", "--seed", "7", "--seconds", "3", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if opt.workload != "fleet-ctrl" || opt.seed != 7 || opt.seconds != 3 || !opt.trace || opt.spans == "" {
		t.Errorf("parsed %+v", opt)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "node-sweep", "--trace", "2"},
		{"--workload", "node-sweep", "--seconds", "0"},
	} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("parseArgs(%v) accepted", bad)
		}
	}
}
