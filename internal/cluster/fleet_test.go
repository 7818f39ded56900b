package cluster

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"exist/internal/coverage"
	"exist/internal/faults"
	"exist/internal/simtime"
)

var update = flag.Bool("update", false, "rewrite testdata/fleet_equivalence.golden")

// fleetEquivalenceScenario drives a 2k-node replicated, sharded lite
// fleet through gray heartbeats, node crashes, churn and controller
// partitions while a stream of striped and coverage-sampled requests
// runs, and renders every counter the lease and session bookkeeping can
// move.
func fleetEquivalenceScenario(t *testing.T) string {
	t.Helper()
	c := liteCluster(t, func(cfg *Config) {
		cfg.Nodes = 2000
		cfg.Seed = 5
		cfg.Replicas = 3
		cfg.Shards = 4
		cfg.Faults = faults.New(faults.Config{
			Seed:             31,
			GrayNodeProb:     0.1,
			GrayDelayMean:    400 * simtime.Millisecond,
			CrashMTBF:        20 * simtime.Second,
			CrashDowntime:    800 * simtime.Millisecond,
			ChurnMTBF:        30 * simtime.Second,
			ChurnDownMean:    800 * simtime.Millisecond,
			PartitionMTBF:    3 * simtime.Second,
			PartitionMeanDur: 300 * simtime.Millisecond,
			PutFailProb:      0.05,
		})
	})
	for i := 0; i < 48; i++ {
		name := fmt.Sprintf("f-%02d", i)
		spec := TraceRequestSpec{App: "Agent", Purpose: coverage.PurposeAnomaly, Period: 100 * simtime.Millisecond}
		if i%2 == 0 {
			for j := 0; j < 8; j++ {
				spec.Nodes = append(spec.Nodes, fmt.Sprintf("node-%d", (i*37+j*250)%2000))
			}
		}
		c.Eng.AfterDetached(simtime.Duration(i)*150*simtime.Millisecond, func(simtime.Time) {
			if _, err := c.Request(name, spec); err != nil {
				t.Errorf("request %s: %v", name, err)
			}
		})
	}
	c.Run(14 * simtime.Second)

	var b strings.Builder
	fmt.Fprintf(&b, "mgmt %+v\n", c.Mgmt)
	fmt.Fprintf(&b, "faults %+v\n", c.Cfg.Faults.Stats())
	fmt.Fprintf(&b, "uploads %+v oss_puts=%d oss_failures=%d\n", c.Uploads, c.OSS.Puts(), c.OSS.Failures())
	for _, r := range c.API.List() {
		fmt.Fprintf(&b, "%s %s keys=%d lost=%d resampled=%d\n",
			r.Name, r.Phase, len(r.SessionKeys), r.Lost, r.Resampled)
	}
	return b.String()
}

// TestFleetHeartbeatCrashEquivalence pins the lite fleet's lease and
// session bookkeeping under gray, crash, churn and partition faults to a
// committed golden. A host-cost change must leave it byte-identical: a
// diff means the simulated event order changed. Only a change meant to
// alter the simulated fleet regenerates it
// (go test ./internal/cluster -run FleetHeartbeat -update).
func TestFleetHeartbeatCrashEquivalence(t *testing.T) {
	got := fleetEquivalenceScenario(t)
	path := filepath.Join("testdata", "fleet_equivalence.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("fleet bookkeeping diverged from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
	if !strings.Contains(got, "FalseSuspicions:") || strings.Contains(got, "GrayDelays:0 ") {
		t.Fatalf("scenario does not exercise gray heartbeats:\n%s", got)
	}
}

// TestLiteCrashLosesOnlyNodeSessions pins the per-node lite session
// slots: a crash loses exactly the crashed node's in-flight sessions, in
// session-ID order whatever order they opened in, and their completion
// timers, which stay armed, later fire without touching any counter.
func TestLiteCrashLosesOnlyNodeSessions(t *testing.T) {
	c := liteCluster(t, func(cfg *Config) {
		cfg.Nodes = 4
		cfg.Faults = faults.New(faults.Config{Seed: 3})
		// A slow pump (dispatch latency and re-arm tick) keeps the lost
		// slots recorded until every window has closed.
		cfg.QueueLatency = 50 * simtime.Millisecond
		cfg.QueueTick = 50 * simtime.Millisecond
	})
	// Filed out of name order; the first three all land on node-1.
	for _, f := range []struct{ name, node string }{
		{"r-b", "node-1"}, {"r-c", "node-1"}, {"r-a", "node-1"}, {"r-z", "node-2"},
	} {
		if _, err := c.Request(f.name, TraceRequestSpec{
			App: "Agent", Purpose: coverage.PurposeAnomaly,
			Nodes: []string{f.node}, Period: 20 * simtime.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The first pump (t = 50 ms, one dispatch latency after the filing
	// events) opens every session; their windows close in [70, 90) ms.
	c.Run(50 * simtime.Millisecond)
	if c.Mgmt.Syncs != 4 {
		t.Fatalf("syncs = %d after the first pump, want 4", c.Mgmt.Syncs)
	}
	crashed, _ := c.Node("node-1")
	survivor, _ := c.Node("node-2")
	if len(crashed.lite) != 3 || len(survivor.lite) != 1 {
		t.Fatalf("in flight: node-1 %d, node-2 %d; want 3 and 1", len(crashed.lite), len(survivor.lite))
	}
	for i, ls := range crashed.lite {
		if ls.slot != i || ls.node != crashed || ls.key != "sessions/"+ls.id {
			t.Fatalf("slot %d holds %+v", i, ls)
		}
	}

	// A lost slot is a store write on its request: the watch feed shows
	// the crash's losses in the order they were recorded.
	w := c.API.WatchStream(16, nil)
	drain := func() string {
		var order []string
		for ev, ok := w.Next(); ok; ev, ok = w.Next() {
			r, _ := c.API.Get(ev.Name)
			order = append(order, fmt.Sprintf("%s %s%v", ev.Name, ev.Phase, r.resampleSlots))
		}
		return fmt.Sprint(order)
	}
	c.crashNode(crashed, c.Eng.Now())
	if len(crashed.lite) != 0 || len(survivor.lite) != 1 {
		t.Fatalf("after crash: node-1 %d, node-2 %d in flight; want 0 and 1", len(crashed.lite), len(survivor.lite))
	}
	if got := drain(); got != "[r-a Running[0] r-b Running[0] r-c Running[0]]" {
		t.Fatalf("lost slots %s; want node-1's sessions in ID order", got)
	}

	// Past every window close but before the next pump: the stale timers
	// fire as no-ops, and only the survivor's session lands.
	c.Run(99 * simtime.Millisecond)
	if got := drain(); got != "[r-z Completed[]]" {
		t.Fatalf("after the stale timers fired, the watch feed shows %s", got)
	}
	if c.Mgmt.Syncs != 4 {
		t.Fatalf("syncs = %d before the second pump, want 4", c.Mgmt.Syncs)
	}
	if c.Uploads.Sessions != 1 || c.OSS.Puts() != 1 || len(survivor.lite) != 0 {
		t.Fatalf("uploads=%d puts=%d survivor in flight=%d; want 1, 1, 0",
			c.Uploads.Sessions, c.OSS.Puts(), len(survivor.lite))
	}
	for _, name := range []string{"r-a", "r-b", "r-c"} {
		r, _ := c.API.Get(name)
		if len(r.SessionKeys) != 0 || r.Lost != 0 || r.Resampled != 0 || fmt.Sprint(r.resampleSlots) != "[0]" {
			t.Fatalf("%s: keys=%v lost=%d resampled=%d slots=%v after its session was lost",
				name, r.SessionKeys, r.Lost, r.Resampled, r.resampleSlots)
		}
	}
	if r, _ := c.API.Get("r-z"); fmt.Sprint(r.SessionKeys) != "[sessions/r-z/node-2]" {
		t.Fatalf("r-z keys = %v", r.SessionKeys)
	}
	if s := c.Cfg.Faults.Stats(); s.Crashes != 1 || s.SessionsLost != 0 {
		t.Fatalf("fault stats %+v", s)
	}
}

// TestLiteSessionKey pins the session key and ID layout, including the
// re-sampling suffix.
func TestLiteSessionKey(t *testing.T) {
	r := &TraceRequest{Name: "cp-00042"}
	n := &Node{Name: "node-99"}
	for attempt, want := range []string{
		"sessions/cp-00042/node-99",
		"sessions/cp-00042/node-99/r1",
		"sessions/cp-00042/node-99/r2",
	} {
		ls := newLiteSession(r, n, attempt)
		if ls.key != want || ls.id != want[len("sessions/"):] {
			t.Fatalf("attempt %d: key %q id %q, want key %q", attempt, ls.key, ls.id, want)
		}
	}
	if ls := newLiteSession(r, n, 12); ls.id != "cp-00042/node-99/r12" {
		t.Fatalf("attempt 12: id %q", ls.id)
	}
}
