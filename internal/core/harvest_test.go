package core

import (
	"reflect"
	"slices"
	"testing"

	"exist/internal/binary"
	"exist/internal/ipt"
	"exist/internal/memalloc"
	"exist/internal/sched"
	"exist/internal/simtime"
	"exist/internal/trace"
	"exist/internal/xrand"
)

// topaState is the part of a ToPA a later write would move.
type topaState struct {
	used, written, dropped int64
	stopped, wrapped       bool
}

func stateOf(t *ipt.ToPA) topaState {
	return topaState{t.Used(), t.Written(), t.Dropped(), t.Stopped(), t.Wrapped()}
}

// buffers lists every ToPA the session owns, per-core ones in plan order
// and per-thread ones by thread ID.
func (s *Session) buffers() []*ipt.ToPA {
	var out []*ipt.ToPA
	for _, cp := range s.Plan.Cores {
		out = append(out, s.topas[cp.Core])
	}
	tids := make([]int, 0, len(s.perThr))
	for tid := range s.perThr {
		tids = append(tids, tid)
	}
	slices.Sort(tids)
	for _, tid := range tids {
		out = append(out, s.perThr[tid])
	}
	return out
}

// TestLazyResultMatchesEagerSnapshot closes a window, captures what an
// eager harvest at stop would have produced, keeps the machine running
// (with a second window tracing the same cores), and then checks that the
// lazily built Result is byte-identical, idempotent, and agrees with the
// occupancy-based SpaceMB.
func TestLazyResultMatchesEagerSnapshot(t *testing.T) {
	tiny := memalloc.Config{Budget: 4 << 10, PerCoreMin: 1 << 10, PerCoreMax: 2 << 10}
	cases := []struct {
		name string
		cfg  func(*Config)
	}{
		{"stop", func(*Config) {}},
		{"stop-full", func(c *Config) { c.Mem, c.Scale = tiny, 1 }},
		{"ring", func(c *Config) { c.Mem, c.Scale, c.Drop = tiny, 1, DropRing }},
		{"per-thread", func(c *Config) { c.Buffers = PerThread }},
		{"per-thread-hotswap", func(c *Config) { c.Buffers, c.HotSwap = PerThread, true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, 4, 3, 600*simtime.Millisecond)
			ctrl := NewController(rig.m)
			cfg := testConfig(200 * simtime.Millisecond)
			tc.cfg(&cfg)
			sess, err := ctrl.Trace(rig.target, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var eager *trace.Session
			var atStop []topaState
			sess.OnDone(func(s *Session) {
				eager = s.snapshot()
				for _, b := range s.buffers() {
					atStop = append(atStop, stateOf(b))
				}
			})
			rig.m.Run(250 * simtime.Millisecond)
			if eager == nil {
				t.Fatal("window did not close")
			}
			if sess.result != nil {
				t.Fatal("stop materialized the result")
			}
			if len(eager.Cores) == 0 || eager.TotalBytes() == 0 {
				t.Fatal("window captured nothing")
			}

			// A later window on the same cores, then more running time.
			next, err := ctrl.Trace(rig.target, testConfig(200*simtime.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			rig.m.Run(600 * simtime.Millisecond)
			if next.Active() {
				t.Fatal("second window did not close")
			}
			for i, b := range sess.buffers() {
				if got := stateOf(b); got != atStop[i] {
					t.Fatalf("closed session's buffer %d changed: %+v, at stop %+v", i, got, atStop[i])
				}
			}

			space := sess.SpaceMB()
			res, err := sess.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, eager) {
				t.Fatal("lazy Result differs from the snapshot at stop")
			}
			if got := res.SpaceMB(); got != space {
				t.Fatalf("Result().SpaceMB() = %v, occupancy SpaceMB = %v", got, space)
			}
			if again, _ := sess.Result(); again != res {
				t.Fatal("Result is not idempotent")
			}
			if got := sess.SpaceMB(); got != space {
				t.Fatalf("SpaceMB after Result = %v, before %v", got, space)
			}
		})
	}
}

// TestClosedSessionsLeaveHook opens sequential windows on one controller
// and checks that the sched_switch hook only ever holds open ones, in
// opening order, while every closed session's Result stays what it was at
// stop.
func TestClosedSessionsLeaveHook(t *testing.T) {
	const n = 6
	rig := newRig(t, 4, 2, simtime.Duration(n)*100*simtime.Millisecond)
	ctrl := NewController(rig.m)
	var sessions []*Session
	var eager []*trace.Session
	for i := 0; i < n; i++ {
		s, err := ctrl.Trace(rig.target, testConfig(80*simtime.Millisecond))
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		s.OnDone(func(s *Session) { eager = append(eager, s.snapshot()) })
		if len(ctrl.sessions) != 1 || ctrl.sessions[0] != s {
			t.Fatalf("window %d: hook holds %d sessions, want only the open one", i, len(ctrl.sessions))
		}
		sessions = append(sessions, s)
		rig.m.Run(simtime.Time(i+1) * 100 * simtime.Millisecond)
		if s.Active() || len(ctrl.sessions) != 0 {
			t.Fatalf("window %d: closed session still on the hook (%d held)", i, len(ctrl.sessions))
		}
	}
	for i, s := range sessions {
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, eager[i]) {
			t.Fatalf("window %d: Result changed after later windows ran", i)
		}
	}
}

// TestHookKeepsOpeningOrder closes the first of three concurrent windows
// (disjoint pinned targets) and checks the survivors keep their order.
func TestHookKeepsOpeningOrder(t *testing.T) {
	cfg := sched.DefaultConfig()
	cfg.Cores = 6
	cfg.HTSiblings = false
	cfg.Seed = 11
	m := sched.NewMachine(cfg)
	ctrl := NewController(m)
	var sessions []*Session
	for i, period := range []simtime.Duration{50, 150, 100} {
		prog := binary.Synthesize(binary.DefaultSpec("pinned", uint64(40+i)))
		p := m.AddProcess("pinned", prog, sched.CPUSet, []int{2 * i, 2*i + 1})
		m.SpawnThread(p, sched.NewWalkerExec(prog, xrand.SplitN(50, "p", i), cfg.Cost, 1e-4))
		s, err := ctrl.Trace(p, testConfig(period*simtime.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	m.Run(75 * simtime.Millisecond)
	if want := sessions[1:]; !slices.Equal(ctrl.sessions, want) {
		t.Fatalf("hook holds %v, want %v", ctrl.sessions, want)
	}
	m.Run(125 * simtime.Millisecond)
	if want := sessions[1:2]; !slices.Equal(ctrl.sessions, want) {
		t.Fatalf("hook holds %v, want %v", ctrl.sessions, want)
	}
	m.Run(200 * simtime.Millisecond)
	if len(ctrl.sessions) != 0 {
		t.Fatalf("hook still holds %d sessions", len(ctrl.sessions))
	}
}
