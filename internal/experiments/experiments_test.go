package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact from the DESIGN.md index must be registered.
	want := []string{
		"fig03a", "fig03b", "fig04", "fig05", "fig08", "fig11", "fig12",
		"fig13", "fig14", "tab03", "fig15", "fig16", "tab04", "fig17",
		"fig18", "fig19", "fig20", "acc-bench",
		"fig21", "fig22", "tab05", "casestudy",
		"ablation-control", "ablation-drop",
	}
	for _, id := range want {
		e, err := ByID(id)
		if err != nil {
			t.Errorf("missing experiment %q: %v", id, err)
			continue
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %q incompletely registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d entries, want >= %d", len(All()), len(want))
	}
}

func TestRegistryUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestByIDUnknown(t *testing.T) {
	_, err := ByID("nope")
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("ByID error = %v", err)
	}
}

func TestResultMetrics(t *testing.T) {
	r := &Result{ID: "x"}
	r.Metric("b", 2)
	r.Metric("a", 1)
	names := r.SortedMetrics()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("SortedMetrics = %v", names)
	}
	if r.Metrics["b"] != 2 {
		t.Fatalf("metrics map = %v", r.Metrics)
	}
}

func TestSchemeKindStrings(t *testing.T) {
	want := map[SchemeKind]string{
		SchemeOracle: "Oracle", SchemeEXIST: "EXIST", SchemeStaSam: "StaSam",
		SchemeEBPF: "eBPF", SchemeNHT: "NHT", SchemeKind(99): "?",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("SchemeKind(%d) = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestHeadlineShapes asserts the reproduction's central claims hold in
// quick mode: EXIST is per-mille-class and beats every baseline by the
// paper's ordering.
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("headline shapes need the fig13 sweep")
	}
	cfg := Config{Quick: true, Seed: 1}
	res, err := runFig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m["exist_avg_overhead"] > 0.02 {
		t.Errorf("EXIST average overhead %.4f not per-mille class", m["exist_avg_overhead"])
	}
	if !(m["nht_factor"] > m["ebpf_factor"] && m["ebpf_factor"] > m["stasam_factor"] && m["stasam_factor"] > 1.5) {
		t.Errorf("baseline ordering broken: StaSam %.1fx, eBPF %.1fx, NHT %.1fx",
			m["stasam_factor"], m["ebpf_factor"], m["nht_factor"])
	}
}

// TestControlPlaneShapes asserts the paper's orchestration claims on the
// default-config clusters in quick mode: RCO's management CPU stays under
// 3e-3 cores and under one permille per node at thousand-node scale
// (Figure 17), sessions reach the object store, and upload batching
// issues fewer PUTs than one PUT per session.
func TestControlPlaneShapes(t *testing.T) {
	cfg := Config{Quick: true, Seed: 1}
	fig17, err := runFig17(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := fig17.Metrics
	if m["mgmt_cores"] >= 3e-3 {
		t.Errorf("fig17 management CPU %.2e cores, want < 3e-3", m["mgmt_cores"])
	}
	if m["oss_puts"] <= 0 {
		t.Errorf("fig17 uploaded no sessions")
	}
	permille := -1.0
	for _, row := range fig17.Tables[0].Rows {
		if strings.HasPrefix(row[0], "extrapolated management") {
			if _, err := fmt.Sscanf(row[1][strings.Index(row[1], "(")+1:], "%f permille/node", &permille); err != nil {
				t.Fatalf("parse extrapolation %q: %v", row[1], err)
			}
		}
	}
	if permille < 0 || permille >= 1 {
		t.Errorf("fig17 per-node extrapolation %.3f permille, want in [0, 1)", permille)
	}

	dp, err := runDatapath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if single, batched := dp.Metrics["puts_single"], dp.Metrics["puts_batched"]; !(batched < single) {
		t.Errorf("datapath batching: %v PUTs batched vs %v single, want fewer", batched, single)
	}
}
