package kernel

import (
	"math/bits"
	"testing"
	"testing/quick"

	"exist/internal/cpu"
	"exist/internal/ipt"
	"exist/internal/simtime"
	"exist/internal/xrand"
)

func TestDefaultSyscallTable(t *testing.T) {
	tbl := DefaultSyscallTable()
	if len(tbl) != int(NumSyscallClasses) {
		t.Fatalf("table has %d entries, want %d", len(tbl), NumSyscallClasses)
	}
	for i, s := range tbl {
		if s.Name == "" {
			t.Errorf("class %d unnamed", i)
		}
		if s.Cost <= 0 {
			t.Errorf("class %d (%s) has non-positive cost", i, s.Name)
		}
		if s.BlockProb < 0 || s.BlockProb > 1 {
			t.Errorf("class %d (%s) block prob %v", i, s.Name, s.BlockProb)
		}
		if s.BlockProb > 0 && s.BlockMean <= 0 {
			t.Errorf("class %d (%s) blocks but has no duration", i, s.Name)
		}
	}
	// The case-study syscall must block for a long time.
	if tbl[SysFileWriteSlow].BlockMean < 100*simtime.Millisecond {
		t.Error("sync-log write should block on the order of hundreds of ms")
	}
}

func TestBlockDuration(t *testing.T) {
	rng := xrand.New(1)
	s := SyscallSpec{BlockMean: 100 * simtime.Microsecond}
	var sum simtime.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := s.BlockDuration(rng)
		if d < 0 {
			t.Fatal("negative block duration")
		}
		sum += d
	}
	mean := float64(sum) / n
	if mean < 90000 || mean > 110000 {
		t.Errorf("mean block duration %vns, want ~100000ns", mean)
	}
	if (SyscallSpec{}).BlockDuration(rng) != 0 {
		t.Error("zero-mean spec should not block")
	}
}

// newConfiguredTracer returns a tracer with output+filter programmed.
func newConfiguredTracer(t *testing.T, bus *MSRBus) *ipt.Tracer {
	t.Helper()
	tr := ipt.NewTracer(0)
	if _, err := bus.ConfigureOutput(tr, ipt.NewSingleToPA(1<<16), 0x42); err != nil {
		t.Fatal(err)
	}
	tr.ContextSwitch(0, 0x42, 0x400000)
	return tr
}

func TestMSRBusEnableDisable(t *testing.T) {
	bus := NewMSRBus(cpu.Default())
	tr := newConfiguredTracer(t, bus)
	opsAfterConfig := bus.Ops

	d, err := bus.Enable(10, tr, ipt.DefaultCtl())
	if err != nil || d != bus.Cost.MSRWrite {
		t.Fatalf("Enable: d=%v err=%v", d, err)
	}
	if !tr.Enabled() {
		t.Fatal("tracer not enabled")
	}
	d, err = bus.Disable(20, tr)
	if err != nil || d != bus.Cost.MSRWrite {
		t.Fatalf("Disable: d=%v err=%v", d, err)
	}
	if tr.Enabled() {
		t.Fatal("tracer still enabled")
	}
	if bus.Ops != opsAfterConfig+2 {
		t.Fatalf("ops = %d, want %d", bus.Ops, opsAfterConfig+2)
	}
	if bus.Errors != 0 {
		t.Fatalf("unexpected MSR errors: %d", bus.Errors)
	}
}

func TestMSRBusSwapOutputCostsThreeWritesPlusConfig(t *testing.T) {
	bus := NewMSRBus(cpu.Default())
	tr := newConfiguredTracer(t, bus)
	if _, err := bus.Enable(0, tr, ipt.DefaultCtl()); err != nil {
		t.Fatal(err)
	}
	opsBefore := bus.Ops
	d, err := bus.SwapOutput(10, tr, ipt.NewSingleToPA(1<<16), 0x43)
	if err != nil {
		t.Fatal(err)
	}
	// disable + output + cr3 + enable = 4 writes; the point is it is
	// several serializing MSR operations, not one.
	writes := bus.Ops - opsBefore
	if writes != 4 {
		t.Fatalf("SwapOutput issued %d writes, want 4", writes)
	}
	if d != simtime.Duration(writes)*bus.Cost.MSRWrite {
		t.Fatalf("SwapOutput cost %v, want %v", d, simtime.Duration(writes)*bus.Cost.MSRWrite)
	}
	if !tr.Enabled() {
		t.Fatal("tracer must be re-enabled after swap")
	}
}

func TestMSRBusFaultCounting(t *testing.T) {
	bus := NewMSRBus(cpu.Default())
	tr := newConfiguredTracer(t, bus)
	if _, err := bus.Enable(0, tr, ipt.DefaultCtl()); err != nil {
		t.Fatal(err)
	}
	// Direct reconfiguration while enabled must fault and be counted.
	if _, err := bus.ConfigureOutput(tr, ipt.NewSingleToPA(8), 0x99); err == nil {
		t.Fatal("ConfigureOutput on enabled tracer must fault")
	}
	if bus.Errors == 0 {
		t.Fatal("fault not counted")
	}
}

func TestSwitchRecordRoundTrip(t *testing.T) {
	f := func(ts int64, cpuID, pid, tid int32, opBit bool) bool {
		op := OpIn
		if opBit {
			op = OpOut
		}
		r := SwitchRecord{TS: simtime.Time(ts), CPU: cpuID, PID: pid, TID: tid, Op: op}
		b := r.AppendBinary(nil)
		if len(b) != RecordSize {
			return false
		}
		got, err := DecodeSwitchRecord(b)
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchLogRoundTrip(t *testing.T) {
	l := &SwitchLog{}
	for i := 0; i < 10; i++ {
		l.Add(SwitchRecord{TS: simtime.Time(i * 100), CPU: int32(i % 4), PID: 7, TID: int32(i), Op: SwitchOp(i % 2)})
	}
	if l.SizeBytes() != 240 {
		t.Fatalf("size = %d, want 240", l.SizeBytes())
	}
	got, err := DecodeSwitchLog(l.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(l.Records) {
		t.Fatalf("decoded %d records, want %d", len(got.Records), len(l.Records))
	}
	for i := range l.Records {
		if got.Records[i] != l.Records[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// A growing log doubles its capacity, so filling it moves through a
// handful of arrays whose outgrown ones together hold fewer records than
// the final one.
func TestSwitchLogGrowthDoubles(t *testing.T) {
	const n = 1 << 20
	l := &SwitchLog{}
	grows, outgrown := 0, 0
	for i := 0; i < n; i++ {
		before := cap(l.Records)
		l.Add(SwitchRecord{TS: simtime.Time(i), TID: int32(i)})
		if c := cap(l.Records); c != before {
			grows++
			outgrown += before
		}
	}
	if len(l.Records) != n || l.Records[n-1].TID != n-1 {
		t.Fatalf("log holds %d records, want %d in order", len(l.Records), n)
	}
	if want := bits.Len(n/256) + 1; grows > want {
		t.Fatalf("filling %d records grew the log %d times, want at most %d", n, grows, want)
	}
	if c := cap(l.Records); outgrown >= c || c > 2*n {
		t.Fatalf("final capacity %d for %d records after outgrowing %d", c, n, outgrown)
	}
}

func TestDecodeSwitchLogRejectsBadLength(t *testing.T) {
	if _, err := DecodeSwitchLog(make([]byte, 25)); err == nil {
		t.Fatal("expected error for misaligned log")
	}
	if _, err := DecodeSwitchRecord(make([]byte, 5)); err == nil {
		t.Fatal("expected error for short record")
	}
}

func TestHRT(t *testing.T) {
	eng := simtime.NewEngine()
	fired := simtime.Time(-1)
	h, cost := ArmHRT(eng, 500*simtime.Microsecond, 300, func(now simtime.Time) { fired = now })
	if cost != 300 {
		t.Fatalf("arm cost = %v, want 300", cost)
	}
	if !h.Pending() {
		t.Fatal("timer should be pending")
	}
	eng.Run()
	if fired != 500*simtime.Microsecond {
		t.Fatalf("fired at %v, want 500µs", fired)
	}
	if h.Pending() {
		t.Fatal("timer should have fired")
	}
}

func TestHRTCancel(t *testing.T) {
	eng := simtime.NewEngine()
	fired := false
	h, _ := ArmHRT(eng, 100, 0, func(simtime.Time) { fired = true })
	h.Cancel()
	eng.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}
