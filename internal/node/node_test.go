package node

import (
	"runtime"
	"testing"

	"exist/internal/kernel"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/tracer"
	"exist/internal/workload"
)

// goldenCell pins node.Run to the exact numbers the experiments' previous
// hand-rolled runNode produced (captured before the refactor, cfg.Seed=1,
// quick durations). Any drift here means the runtime changed a seed
// derivation, an install ordering, or a phase boundary — all of which break
// the repo's byte-identical-output determinism bar.
type goldenCell struct {
	name     string
	workload string
	threads  int
	backend  string
	seed     uint64 // spec seed before the cfg.Seed XOR convention
	want     struct {
		stats    sched.ThreadStats
		cpi      float64
		utilFrac float64
		spaceMB  float64
		msrOps   int64
	}
}

func TestRunReproducesRunNodeGolden(t *testing.T) {
	cells := []goldenCell{
		// Compute profile under EXIST (fig15's om cell) and Oracle.
		{name: "om/EXIST", workload: "om", threads: 4, backend: "EXIST", seed: 301},
		{name: "om/Oracle", workload: "om", threads: 4, backend: "Oracle", seed: 301},
		// Online profile under EXIST and NHT (fig16's mc cells).
		{name: "mc/EXIST", workload: "mc", backend: "EXIST", seed: 17},
		{name: "mc/NHT", workload: "mc", backend: "NHT", seed: 17},
	}
	cells[0].want.stats = sched.ThreadStats{Cycles: 1350958642, Insns: 1080766810, Branches: 70249436,
		Syscalls: 11, Switches: 504, Migrations: 0, CPUTime: 498933700, KernelTime: 1653540}
	cells[0].want.cpi = 1.3432157451245195
	cells[0].want.utilFrac = 0.128898235
	cells[0].want.spaceMB = 16.023048400878906
	cells[0].want.msrOps = 4

	cells[1].want.stats = sched.ThreadStats{Cycles: 1364154838, Insns: 1091323767, Branches: 70935973,
		Syscalls: 11, Switches: 505, Migrations: 0, CPUTime: 498621624, KernelTime: 1534500}
	cells[1].want.cpi = 1.32907648752783
	cells[1].want.utilFrac = 0.12503903099999999
	cells[1].want.spaceMB = 0
	cells[1].want.msrOps = 0

	cells[2].want.stats = sched.ThreadStats{Cycles: 2046233244, Insns: 2046233244, Branches: 90020730,
		Syscalls: 27206, Switches: 8250, CPUTime: 711793318, KernelTime: 97933800}
	cells[2].want.cpi = 1.147576234960241
	cells[2].want.utilFrac = 0.21262327449999999
	cells[2].want.spaceMB = 39.762245178222656
	cells[2].want.msrOps = 22

	cells[3].want.stats = sched.ThreadStats{Cycles: 1982449752, Insns: 1982449752, Branches: 87214722,
		Syscalls: 26302, Switches: 7997, CPUTime: 689605925, KernelTime: 154574391}
	cells[3].want.cpi = 1.2348978396704402
	cells[3].want.utilFrac = 0.22424477900000001
	cells[3].want.spaceMB = 80.051004409790039
	cells[3].want.msrOps = 32014

	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			p, err := workload.ByName(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Run(Spec{
				Cores:     8,
				Timeslice: 1 * simtime.Millisecond,
				Dur:       500 * simtime.Millisecond,
				Seed:      1 ^ c.seed, // experiments convention: cfg.Seed ^ spec seed
				Workload:  p,
				Threads:   c.threads,
				Backend:   c.backend,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Stats != c.want.stats {
				t.Errorf("stats drifted:\n got %+v\nwant %+v", r.Stats, c.want.stats)
			}
			if r.CPI != c.want.cpi {
				t.Errorf("CPI = %v, want %v", r.CPI, c.want.cpi)
			}
			if r.UtilFrac != c.want.utilFrac {
				t.Errorf("UtilFrac = %v, want %v", r.UtilFrac, c.want.utilFrac)
			}
			if r.SpaceMB != c.want.spaceMB {
				t.Errorf("SpaceMB = %v, want %v", r.SpaceMB, c.want.spaceMB)
			}
			if r.MSROps != c.want.msrOps {
				t.Errorf("MSROps = %v, want %v", r.MSROps, c.want.msrOps)
			}
		})
	}
}

// The lifecycle phases must compose identically whether driven by Run or
// called individually (Provision → Attach → Run → Harvest).
func TestPhasedLifecycleMatchesRun(t *testing.T) {
	p, err := workload.ByName("mc")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Cores: 8, Timeslice: 1 * simtime.Millisecond, Dur: 200 * simtime.Millisecond,
		Seed: 9, Workload: p, Backend: "EXIST"}

	whole, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	rt := Provision(spec)
	if err := rt.Attach(); err != nil {
		t.Fatal(err)
	}
	rt.Run()
	phased, err := rt.Harvest()
	if err != nil {
		t.Fatal(err)
	}
	if whole.Stats != phased.Stats || whole.SpaceMB != phased.SpaceMB || whole.MSROps != phased.MSROps {
		t.Errorf("phased lifecycle diverged from Run:\n got %+v space=%v msr=%d\nwant %+v space=%v msr=%d",
			phased.Stats, phased.SpaceMB, phased.MSROps, whole.Stats, whole.SpaceMB, whole.MSROps)
	}
}

// Attach on a backend that needs a target but has none must fail loudly.
func TestAttachWithoutTarget(t *testing.T) {
	rt := Provision(Spec{Cores: 4, Seed: 3, Backend: "EXIST"})
	if err := rt.Attach(); err == nil {
		t.Fatal("EXIST attach without a target workload must fail")
	}
	rt = Provision(Spec{Cores: 4, Seed: 3}) // no backend: tracing disabled
	if err := rt.Attach(); err != nil {
		t.Fatalf("backendless attach: %v", err)
	}
}

// A harvest that does not keep the session must not materialize the
// buffers: an 8-core EXIST run then allocates less in total than its
// buffers hold, which an eager copy (the KeepSession run) cannot.
func TestHarvestWithoutSessionSkipsBuffers(t *testing.T) {
	p, err := workload.ByName("mc")
	if err != nil {
		t.Fatal(err)
	}
	run := func(keep bool) (alloc, used int64) {
		spec := Spec{Cores: 8, Timeslice: 1 * simtime.Millisecond, Dur: 500 * simtime.Millisecond,
			Seed: 1 ^ 17, Workload: p, Backend: "EXIST", KeepSession: keep}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := Run(spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// Analytic runs are unscaled: the footprint is the buffers'
		// occupancy plus the five-tuple log.
		sess := r.Backend.(*tracer.EXIST).CoreSession()
		used = int64(r.SpaceMB*(1<<20)) - sess.Stats.SwitchRecords*kernel.RecordSize
		return int64(after.TotalAlloc - before.TotalAlloc), used
	}
	alloc, used := run(false)
	if used < 16<<20 {
		t.Fatalf("buffers hold only %d bytes; the run is too small to tell", used)
	}
	if alloc >= used {
		t.Errorf("harvest without KeepSession allocated %d bytes, buffers hold %d: the buffers were materialized", alloc, used)
	}
	if alloc, used := run(true); alloc < used {
		t.Errorf("KeepSession run allocated %d bytes < %d buffered; the check cannot see materialization", alloc, used)
	}
}
