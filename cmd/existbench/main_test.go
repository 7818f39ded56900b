package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"exist/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the committed stdout goldens under testdata/")

// TestControlPlaneStdoutGolden diffs the quick-mode stdout of three
// experiment sets against their committed goldens:
//
//	ctrlplane_quick.golden  existbench -run chaos,ctrlplane,resilience,fig17 -quick -jobs 1
//	overhead_quick.golden   existbench -run fig13,fig14,fig15,fig16,ablation-control,ablation-drop,ablation-hotswap -quick -jobs 1
//	trace_quick.golden      existbench -run datapath,fig18,fig19,tab03,acc-bench -quick -jobs 1
//
// The first pins the control plane's event order, fault schedule and
// ledgers; the second pins the EXIST windows of the overhead and ablation
// experiments (session harvest, buffer accounting, MSR counts); the third
// pins the walker-to-PT-tracer path: the hotbench fixture bytes that
// datapath prints and the walker-trace accuracy of the decode
// experiments. A change that is meant to move the output regenerates the
// goldens with
//
//	go test ./cmd/existbench -run ControlPlaneStdoutGolden -update
//
// and says why in its description.
func TestControlPlaneStdoutGolden(t *testing.T) {
	goldens := []struct{ file, ids string }{
		{"ctrlplane_quick.golden", "chaos,ctrlplane,resilience,fig17"},
		{"overhead_quick.golden", "fig13,fig14,fig15,fig16,ablation-control,ablation-drop,ablation-hotswap"},
		{"trace_quick.golden", "datapath,fig18,fig19,tab03,acc-bench"},
	}
	for _, g := range goldens {
		t.Run(g.file, func(t *testing.T) {
			ids, err := selectIDs(false, g.ids)
			if err != nil {
				t.Fatal(err)
			}
			reports := experiments.RunAll(experiments.Config{Quick: true, Seed: 1, Jobs: 1}, ids)
			var out bytes.Buffer
			if n := writeReports(&out, io.Discard, reports); n != 0 {
				t.Fatalf("%d experiments failed", n)
			}
			path := filepath.Join("testdata", g.file)
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Fatalf("stdout differs from %s (rerun with -update if the change is intended):\n%s",
					path, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff renders the first differing line of two outputs.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, gl, wl)
		}
	}
	return "(outputs differ only in length)"
}
