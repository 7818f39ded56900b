package tracer

import (
	"testing"

	"exist/internal/binary"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/xrand"
)

// existRig attaches an EXIST backend to a walker target on a small machine.
func existRig(t *testing.T, period simtime.Duration) (*sched.Machine, *EXIST) {
	t.Helper()
	cfg := sched.DefaultConfig()
	cfg.Cores = 4
	cfg.HTSiblings = false
	cfg.Seed = 5
	m := sched.NewMachine(cfg)
	prog := binary.Synthesize(binary.DefaultSpec("target", 21))
	target := m.AddProcess("target", prog, sched.CPUShare, m.AllCores())
	for i := 0; i < 2; i++ {
		m.SpawnThread(target, sched.NewWalkerExec(prog, xrand.SplitN(31, "t", i), cfg.Cost, 1e-4))
	}
	b, err := New("EXIST", Options{Period: period, Scale: trace.SpaceScale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := b.(*EXIST)
	if err := e.Attach(m, target); err != nil {
		t.Fatal(err)
	}
	return m, e
}

// Stop on an open window records the failure and harvests nothing.
func TestEXISTStopBeforeWindowCloses(t *testing.T) {
	m, e := existRig(t, 200*simtime.Millisecond)
	m.Run(50 * simtime.Millisecond)
	e.Stop(m.Eng.Now())
	if e.Err() == nil {
		t.Fatal("Stop on an open window must record an error")
	}
	if got := e.SpaceMB(); got != 0 {
		t.Errorf("SpaceMB of an open window = %v, want 0", got)
	}
	if s := e.Session(""); s != nil {
		t.Error("Session of an open window must be nil")
	}
}

// The backend's harvest accessors read the core session's single
// materialization: SpaceMB matches the built session bit for bit, and
// Session returns the core session's cached result on every call.
func TestEXISTHarvestReadsCoreSession(t *testing.T) {
	m, e := existRig(t, 100*simtime.Millisecond)
	m.Run(150 * simtime.Millisecond)
	e.Stop(m.Eng.Now())
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	space := e.SpaceMB()
	if space <= 0 {
		t.Fatalf("SpaceMB = %v, want a positive footprint", space)
	}
	s := e.Session("target")
	if s == nil || s.TotalBytes() == 0 {
		t.Fatal("closed window produced no session bytes")
	}
	if got := s.SpaceMB(); got != space {
		t.Errorf("Session().SpaceMB() = %v, backend SpaceMB = %v", got, space)
	}
	core, err := e.CoreSession().Result()
	if err != nil {
		t.Fatal(err)
	}
	if core != s || e.Session("target") != s {
		t.Error("Session must return the core session's one cached result")
	}
}
