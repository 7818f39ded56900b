package trace

import (
	"testing"
	"testing/quick"

	"exist/internal/binary"
	"exist/internal/kernel"
	"exist/internal/simtime"
)

func TestScaleBytes(t *testing.T) {
	if got := ScaleBytes(128<<20, 1.0/1024); got != 128<<10 {
		t.Errorf("ScaleBytes(128MB, 1/1024) = %d, want %d", got, 128<<10)
	}
	if got := ScaleBytes(1, 1.0/1024); got != 256 {
		t.Errorf("tiny buffers must clamp to 256, got %d", got)
	}
}

func TestUnscaleMB(t *testing.T) {
	// 64 KiB simulated at 1/1024 is 64 MiB real.
	if got := UnscaleMB(64<<10, 1.0/1024); got != 64 {
		t.Errorf("UnscaleMB = %v, want 64", got)
	}
}

func TestSessionSpaceMB(t *testing.T) {
	s := &Session{
		Scale: 1.0 / 1024,
		Cores: []CoreTrace{
			{Core: 0, Data: make([]byte, 32<<10)},
			{Core: 1, Data: make([]byte, 32<<10)},
		},
	}
	if got := s.SpaceMB(); got != 64 {
		t.Errorf("SpaceMB = %v, want 64", got)
	}
	if s.TotalBytes() != 64<<10 {
		t.Errorf("TotalBytes = %d", s.TotalBytes())
	}
}

func TestGroundTruthWindow(t *testing.T) {
	prog := binary.Synthesize(binary.DefaultSpec("gt", 1))
	g := NewGroundTruth(prog, 100, 200)
	ev := binary.BranchEvent{Block: 0, Target: 1, Kind: binary.TermCond, Taken: true}
	g.Record(1, 50, ev)  // before window
	g.Record(1, 150, ev) // inside
	g.Record(1, 200, ev) // at end (exclusive)
	if len(g.ByThread) != 1 || len(g.ByThread[1]) != 1 {
		t.Fatalf("thread stream wrong: %v", g.ByThread)
	}
}

func TestGroundTruthFuncEntries(t *testing.T) {
	prog := binary.Synthesize(binary.DefaultSpec("gt", 2))
	// Find an indirect-call block.
	var callBlock binary.BlockID = -1
	for i := range prog.Blocks {
		if prog.Blocks[i].Term == binary.TermIndirectCall {
			callBlock = binary.BlockID(i)
			break
		}
	}
	if callBlock < 0 {
		t.Skip("no indirect call in this program")
	}
	target := prog.Blocks[callBlock].Targets[0]
	g := NewGroundTruth(prog, 0, 1000)
	g.Record(1, 10, binary.BranchEvent{Block: callBlock, Target: target, Kind: binary.TermIndirectCall})
	fn := prog.Blocks[target].Func
	if g.FuncEntries[fn] != 1 {
		t.Fatalf("func entry histogram = %v", g.FuncEntries)
	}
}

func TestSessionMarshalRoundTrip(t *testing.T) {
	s := &Session{
		ID:       "sess-1",
		Node:     "node-7",
		Workload: "mysql",
		PID:      42,
		Start:    1000,
		End:      501000,
		Scale:    1.0 / 1024,
		Cores: []CoreTrace{
			{Core: 0, Data: []byte{1, 2, 3}, Stopped: true, DroppedBytes: 99},
			{Core: 3, Data: []byte{}, Wrapped: true},
		},
	}
	s.Switches.Add(kernel.SwitchRecord{TS: 1500, CPU: 0, PID: 42, TID: 7, Op: kernel.OpIn})
	got, err := UnmarshalSession(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != s.ID || got.Node != s.Node || got.Workload != s.Workload ||
		got.PID != s.PID || got.Start != s.Start || got.End != s.End || got.Scale != s.Scale {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Cores) != 2 || got.Cores[0].Core != 0 || !got.Cores[0].Stopped ||
		got.Cores[0].DroppedBytes != 99 || !got.Cores[1].Wrapped {
		t.Fatalf("cores mismatch: %+v", got.Cores)
	}
	if string(got.Cores[0].Data) != string(s.Cores[0].Data) {
		t.Fatal("core data mismatch")
	}
	if len(got.Switches.Records) != 1 || got.Switches.Records[0].TID != 7 {
		t.Fatalf("switch log mismatch: %+v", got.Switches.Records)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalSession([]byte{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := UnmarshalSession(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	// Truncated valid prefixes: every proper prefix must fail (a v2
	// session is only complete once its end block arrives).
	s := &Session{ID: "x", Cores: []CoreTrace{{Core: 0, Data: make([]byte, 100)}}}
	b := s.Marshal()
	for _, cut := range []int{4, len(b) / 2, len(b) - 1} {
		if _, err := UnmarshalSession(b[:cut]); err == nil {
			t.Fatalf("expected error for session truncated to %d/%d", cut, len(b))
		}
	}
}

func TestMarshalPropertyRoundTrip(t *testing.T) {
	f := func(id string, pid int32, start, end int64, data []byte) bool {
		s := &Session{ID: id, PID: pid, Start: simtime.Time(start), End: simtime.Time(end),
			Scale: 0.5, Cores: []CoreTrace{{Core: 1, Data: data}}}
		got, err := UnmarshalSession(s.Marshal())
		if err != nil {
			return false
		}
		if got.ID != id || got.PID != pid || len(got.Cores) != 1 {
			return false
		}
		return string(got.Cores[0].Data) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationAndEventOf(t *testing.T) {
	s := &Session{Start: 100, End: 600}
	if s.Duration() != 500 {
		t.Fatalf("Duration = %v", s.Duration())
	}
	ev := EventOf(5, binary.BranchEvent{Block: 1, Target: 2, Kind: binary.TermCond, Taken: true})
	if ev.TID != 5 || ev.Block != 1 || ev.Target != 2 || !ev.Taken {
		t.Fatalf("EventOf = %+v", ev)
	}
}

// Property: UnmarshalSession must reject or cleanly parse arbitrary bytes,
// never panic — sessions arrive from the network/object store.
func TestUnmarshalGarbageNeverPanics(t *testing.T) {
	// Deterministic pseudo-random corpus.
	state := uint64(0x9e3779b97f4a7c15)
	next := func() byte {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return byte(state)
	}
	for trial := 0; trial < 300; trial++ {
		n := int(next()) * 4
		data := make([]byte, n)
		for i := range data {
			data[i] = next()
		}
		_, _ = UnmarshalSession(data) // must not panic
	}
	// Also: valid header with hostile length fields.
	s := &Session{ID: "x", Cores: []CoreTrace{{Core: 0, Data: []byte{1, 2, 3}}}}
	b := s.Marshal()
	for i := 4; i < len(b); i++ {
		mut := append([]byte(nil), b...)
		mut[i] = 0xff
		_, _ = UnmarshalSession(mut) // must not panic or over-allocate
	}
}
