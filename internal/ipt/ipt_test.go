package ipt

import (
	"testing"
	"testing/quick"

	"exist/internal/binary"
	"exist/internal/simtime"
)

func TestPacketRoundTrip(t *testing.T) {
	var buf []byte
	buf = AppendPSB(buf)
	buf = AppendTSC(buf, 123456789)
	buf = AppendPIP(buf, 0x1234)
	buf = AppendMODE(buf, 1)
	buf = AppendPSBEND(buf)
	buf = AppendTNT(buf, 0b101, 3)
	buf = AppendCYC(buf, 17)
	buf = AppendTIP(buf, PktTIP, 0x400abc)
	buf = AppendTIP(buf, PktTIPPGE, 0x400100)
	buf = AppendTIP(buf, PktTIPPGD, 0x400200)
	buf = AppendTIP(buf, PktFUP, 0x400300)
	buf = append(buf, 0x00) // PAD

	want := []Packet{
		{Kind: PktPSB},
		{Kind: PktTSC, Val: 123456789},
		{Kind: PktPIP, Val: 0x1234},
		{Kind: PktMODE, Val: 1},
		{Kind: PktPSBEND},
		{Kind: PktTNT, Bits: 0b101, Len: 3},
		{Kind: PktCYC, Val: 17},
		{Kind: PktTIP, Val: 0x400abc},
		{Kind: PktTIPPGE, Val: 0x400100},
		{Kind: PktTIPPGD, Val: 0x400200},
		{Kind: PktFUP, Val: 0x400300},
		{Kind: PktPAD},
	}
	p := NewParser(buf)
	for i, w := range want {
		pkt, ok, err := p.Next()
		if err != nil || !ok {
			t.Fatalf("packet %d: ok=%v err=%v", i, ok, err)
		}
		if pkt != w {
			t.Fatalf("packet %d = %+v, want %+v", i, pkt, w)
		}
	}
	if _, ok, _ := p.Next(); ok {
		t.Fatal("expected end of buffer")
	}
}

func TestTNTEncoding(t *testing.T) {
	// Property: any 1..6 bits round-trip through a short TNT byte.
	f := func(bits uint8, n uint8) bool {
		k := int(n%6) + 1
		bits &= (1 << uint(k)) - 1
		buf := AppendTNT(nil, bits, k)
		if len(buf) != 1 {
			return false
		}
		p := NewParser(buf)
		pkt, ok, err := p.Next()
		return err == nil && ok && pkt.Kind == PktTNT && pkt.Bits == bits && int(pkt.Len) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTNTBitAccessor(t *testing.T) {
	pkt := Packet{Kind: PktTNT, Bits: 0b101, Len: 3}
	want := []bool{true, false, true}
	for i, w := range want {
		if pkt.TNTBit(i) != w {
			t.Fatalf("TNTBit(%d) = %v, want %v", i, pkt.TNTBit(i), w)
		}
	}
}

func TestTSC56BitPayload(t *testing.T) {
	v := uint64(0x00ffeeddccbbaa99)
	buf := AppendTSC(nil, v)
	p := NewParser(buf)
	pkt, ok, err := p.Next()
	if err != nil || !ok || pkt.Val != v&((1<<56)-1) {
		t.Fatalf("TSC round trip got %#x ok=%v err=%v", pkt.Val, ok, err)
	}
}

func TestParserSync(t *testing.T) {
	var buf []byte
	buf = append(buf, 0x37, 0x99) // garbage resembling a torn packet
	buf = AppendPSB(buf)
	buf = AppendTSC(buf, 42)
	p := NewParser(buf)
	if !p.Sync() {
		t.Fatal("Sync failed to find PSB")
	}
	pkt, ok, err := p.Next()
	if err != nil || !ok || pkt.Kind != PktPSB {
		t.Fatalf("after sync got %+v ok=%v err=%v", pkt, ok, err)
	}
}

func TestParserSyncNoPSB(t *testing.T) {
	p := NewParser([]byte{1, 2, 3, 4})
	if p.Sync() {
		t.Fatal("Sync found a PSB in garbage")
	}
}

func TestParserTruncated(t *testing.T) {
	buf := AppendTSC(nil, 42)
	p := NewParser(buf[:3])
	if _, _, err := p.Next(); err == nil {
		t.Fatal("expected error for truncated TSC")
	}
}

func TestToPAStopMode(t *testing.T) {
	topa := NewToPA([]int{8, 8}, false)
	if topa.Capacity() != 16 {
		t.Fatalf("capacity = %d, want 16", topa.Capacity())
	}
	if !topa.Write(make([]byte, 10)) {
		t.Fatal("write within capacity failed")
	}
	if topa.Used() != 10 {
		t.Fatalf("used = %d, want 10", topa.Used())
	}
	if topa.Write(make([]byte, 10)) {
		t.Fatal("write past capacity should report drop")
	}
	if !topa.Stopped() {
		t.Fatal("ToPA should be stopped after STOP region filled")
	}
	if topa.Used() != 16 {
		t.Fatalf("used = %d, want 16 (filled to capacity)", topa.Used())
	}
	if topa.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", topa.Dropped())
	}
	// Once stopped, everything is dropped.
	topa.Write([]byte{1})
	if topa.Dropped() != 5 {
		t.Fatalf("dropped = %d, want 5", topa.Dropped())
	}
}

func TestToPARingMode(t *testing.T) {
	topa := NewToPA([]int{8}, true)
	for i := 0; i < 5; i++ {
		if !topa.Write(make([]byte, 6)) {
			t.Fatal("ring write failed")
		}
	}
	if topa.Stopped() {
		t.Fatal("ring buffer must never stop")
	}
	if !topa.Wrapped() {
		t.Fatal("ring buffer should have wrapped")
	}
	if topa.Written() != 30 {
		t.Fatalf("written = %d, want 30", topa.Written())
	}
	if topa.Used() > topa.Capacity() {
		t.Fatalf("used %d exceeds capacity %d", topa.Used(), topa.Capacity())
	}
}

func TestToPAReset(t *testing.T) {
	topa := NewSingleToPA(4)
	topa.Write(make([]byte, 10))
	topa.Reset()
	if topa.Stopped() || topa.Used() != 0 || topa.Dropped() != 0 {
		t.Fatal("Reset did not clear state")
	}
	if !topa.Write(make([]byte, 3)) {
		t.Fatal("write after reset failed")
	}
}

// tracerHarness builds an enabled tracer filtered to cr3 0x77 with a
// generously sized buffer.
func tracerHarness(t *testing.T, bufSize int) *Tracer {
	t.Helper()
	tr := NewTracer(0)
	if err := tr.SetOutput(NewSingleToPA(bufSize)); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetCR3Match(0x77); err != nil {
		t.Fatal(err)
	}
	tr.ContextSwitch(0, 0x77, 0x400000)
	if err := tr.WriteCtl(0, DefaultCtl()|CtlTraceEn); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTracerEnableEmitsHeader(t *testing.T) {
	tr := tracerHarness(t, 1<<16)
	buf := tr.Output().Bytes()
	p := NewParser(buf)
	kinds := []PacketKind{}
	for {
		pkt, ok, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		kinds = append(kinds, pkt.Kind)
	}
	want := []PacketKind{PktPSB, PktTSC, PktPIP, PktMODE, PktPSBEND, PktTIPPGE}
	if len(kinds) != len(want) {
		t.Fatalf("header kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("header kinds = %v, want %v", kinds, want)
		}
	}
}

func TestTracerIllegalControl(t *testing.T) {
	tr := tracerHarness(t, 1<<16)
	// Reconfiguring while enabled faults.
	if err := tr.WriteCtl(0, tr.Ctl()&^CtlCYCEn); err == nil {
		t.Fatal("modifying ctl with TraceEn set must fault")
	}
	if tr.Status()&StatusError == 0 {
		t.Fatal("error status not latched")
	}
	if err := tr.SetOutput(NewSingleToPA(8)); err == nil {
		t.Fatal("SetOutput with TraceEn set must fault")
	}
	if err := tr.SetCR3Match(0x99); err == nil {
		t.Fatal("SetCR3Match with TraceEn set must fault")
	}
	// The legal sequence: disable, modify, enable.
	if err := tr.WriteCtl(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetCR3Match(0x99); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCtl(2, DefaultCtl()|CtlTraceEn); err != nil {
		t.Fatal(err)
	}
	if tr.Stats.Enables != 2 || tr.Stats.Disables != 1 {
		t.Fatalf("enable/disable counts = %d/%d, want 2/1", tr.Stats.Enables, tr.Stats.Disables)
	}
}

func TestTracerEnableWithoutOutputFaults(t *testing.T) {
	tr := NewTracer(1)
	if err := tr.WriteCtl(0, CtlTraceEn); err == nil {
		t.Fatal("enable without output must fault")
	}
}

func condEvent(taken bool) binary.BranchEvent {
	return binary.BranchEvent{Kind: binary.TermCond, Taken: taken, From: 0x400010, To: 0x400020}
}

func TestTracerTNTPacking(t *testing.T) {
	tr := tracerHarness(t, 1<<16)
	start := tr.Stats.Bytes
	// Six conditional branches must produce exactly one TNT byte.
	pattern := []bool{true, false, true, true, false, true}
	for _, taken := range pattern {
		feed(tr, 10, condEvent(taken))
	}
	if tr.Stats.TNTs != 1 {
		t.Fatalf("TNT packets = %d, want 1", tr.Stats.TNTs)
	}
	if got := tr.Stats.Bytes - start; got != 1 {
		t.Fatalf("six conditionals cost %d bytes, want 1", got)
	}
	// And decode back to the same bits.
	p := NewParser(tr.Output().Bytes())
	var tnt Packet
	for {
		pkt, ok, err := p.Next()
		if err != nil || !ok {
			break
		}
		if pkt.Kind == PktTNT {
			tnt = pkt
		}
	}
	if int(tnt.Len) != 6 {
		t.Fatalf("decoded TNT len = %d, want 6", tnt.Len)
	}
	for i, want := range pattern {
		if tnt.TNTBit(i) != want {
			t.Fatalf("TNT bit %d = %v, want %v", i, tnt.TNTBit(i), want)
		}
	}
}

func TestTracerIndirectFlushesTNT(t *testing.T) {
	tr := tracerHarness(t, 1<<16)
	feed(tr, 10, condEvent(true))
	feed(tr, 11, binary.BranchEvent{Kind: binary.TermIndirectJump, From: 0x400010, To: 0x400abc})
	p := NewParser(tr.Output().Bytes())
	var kinds []PacketKind
	for {
		pkt, ok, err := p.Next()
		if err != nil || !ok {
			break
		}
		kinds = append(kinds, pkt.Kind)
	}
	// ... header, then TNT (flushed), CYC, TIP.
	n := len(kinds)
	if n < 3 || kinds[n-3] != PktTNT || kinds[n-2] != PktCYC || kinds[n-1] != PktTIP {
		t.Fatalf("tail kinds = %v, want [... TNT CYC TIP]", kinds)
	}
}

func TestTracerCR3Filtering(t *testing.T) {
	tr := tracerHarness(t, 1<<16)
	// Switch to a non-matching context: branches must be filtered for free.
	tr.ContextSwitch(20, 0x55, 0x500000)
	if tr.ContextOn() {
		t.Fatal("context should be filtered out")
	}
	before := tr.Stats.Bytes
	for i := 0; i < 100; i++ {
		feed(tr, 21, condEvent(true))
	}
	if tr.Stats.Bytes != before {
		t.Fatal("filtered branches produced output")
	}
	if tr.Stats.FilteredEvents != 100 {
		t.Fatalf("filtered events = %d, want 100", tr.Stats.FilteredEvents)
	}
	// Switch back in: a PIP + TSC + TIP.PGE group must appear.
	tr.ContextSwitch(30, 0x77, 0x400444)
	if !tr.ContextOn() {
		t.Fatal("context should be traced again")
	}
	p := NewParser(tr.Output().Bytes())
	sawPGEAt := uint64(0)
	var lastTSC uint64
	for {
		pkt, ok, err := p.Next()
		if err != nil || !ok {
			break
		}
		switch pkt.Kind {
		case PktTSC:
			lastTSC = pkt.Val
		case PktTIPPGE:
			sawPGEAt = pkt.Val
		}
	}
	if sawPGEAt != 0x400444 {
		t.Fatalf("TIP.PGE at %#x, want 0x400444", sawPGEAt)
	}
	if lastTSC != 30 {
		t.Fatalf("TSC before PGE = %d, want 30", lastTSC)
	}
}

func TestTracerCompulsoryDrop(t *testing.T) {
	tr := tracerHarness(t, 64) // tiny buffer: header almost fills it
	for i := 0; i < 1000; i++ {
		feed(tr, simtimeAt(i), binary.BranchEvent{Kind: binary.TermIndirectJump, To: 0x400010})
	}
	if !tr.Output().Stopped() {
		t.Fatal("tiny buffer should have stopped")
	}
	if tr.Status()&StatusStopped == 0 {
		t.Fatal("Stopped status not latched")
	}
	if tr.Stats.DroppedEvents == 0 {
		t.Fatal("dropped events not counted")
	}
}

func TestTracerDisableFlushesAndPGD(t *testing.T) {
	tr := tracerHarness(t, 1<<16)
	feed(tr, 10, condEvent(true)) // leaves one pending TNT bit
	if err := tr.WriteCtl(11, 0); err != nil {
		t.Fatal(err)
	}
	p := NewParser(tr.Output().Bytes())
	var kinds []PacketKind
	for {
		pkt, ok, err := p.Next()
		if err != nil || !ok {
			break
		}
		kinds = append(kinds, pkt.Kind)
	}
	n := len(kinds)
	if n < 2 || kinds[n-2] != PktTNT || kinds[n-1] != PktTIPPGD {
		t.Fatalf("tail kinds = %v, want [... TNT TIP.PGD]", kinds)
	}
	if tr.Enabled() {
		t.Fatal("tracer still enabled")
	}
}

func TestTracerPeriodicPSB(t *testing.T) {
	tr := tracerHarness(t, 1<<20)
	for i := 0; i < 2000; i++ {
		feed(tr, simtimeAt(i), binary.BranchEvent{Kind: binary.TermIndirectJump, To: 0x400010})
	}
	if tr.Stats.PSBs < 2 {
		t.Fatalf("expected periodic PSBs, got %d", tr.Stats.PSBs)
	}
	// The whole stream must still parse.
	p := NewParser(tr.Output().Bytes())
	for {
		_, ok, err := p.Next()
		if err != nil {
			t.Fatalf("stream with periodic PSBs failed to parse: %v", err)
		}
		if !ok {
			break
		}
	}
}

func simtimeAt(i int) simtime.Time { return simtime.Time(i) }

func TestPTWriteRoundTrip(t *testing.T) {
	buf := AppendPTW(nil, 0xdeadbeefcafe0123)
	p := NewParser(buf)
	pkt, ok, err := p.Next()
	if err != nil || !ok || pkt.Kind != PktPTW || pkt.Val != 0xdeadbeefcafe0123 {
		t.Fatalf("PTW round trip: %+v ok=%v err=%v", pkt, ok, err)
	}
}

func TestTracerPTWrite(t *testing.T) {
	tr := NewTracer(0)
	if err := tr.SetOutput(NewSingleToPA(1 << 16)); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetCR3Match(0x77); err != nil {
		t.Fatal(err)
	}
	tr.ContextSwitch(0, 0x77, 0x400000)
	// Without PTWEn nothing is emitted.
	if err := tr.WriteCtl(0, DefaultCtl()|CtlTraceEn); err != nil {
		t.Fatal(err)
	}
	before := tr.Stats.Bytes
	tr.PTWrite(1, 42)
	if tr.Stats.Bytes != before {
		t.Fatal("PTWrite emitted without PTWEn")
	}
	if err := tr.WriteCtl(2, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCtl(3, DefaultCtl()|CtlPTWEn|CtlTraceEn); err != nil {
		t.Fatal(err)
	}
	tr.PTWrite(4, 42)
	// A filtered context must not emit.
	tr.ContextSwitch(5, 0x55, 0x500000)
	tr.PTWrite(6, 43)
	if tr.Stats.FilteredEvents == 0 {
		t.Fatal("filtered PTWrite not counted")
	}
	var vals []uint64
	p := NewParser(tr.Output().Bytes())
	for {
		pkt, ok, err := p.Next()
		if err != nil || !ok {
			break
		}
		if pkt.Kind == PktPTW {
			vals = append(vals, pkt.Val)
		}
	}
	if len(vals) != 1 || vals[0] != 42 {
		t.Fatalf("PTW values = %v, want [42]", vals)
	}
}

func TestTracerSwapOutputHot(t *testing.T) {
	tr := tracerHarness(t, 1<<16)
	feed(tr, 1, condEvent(true)) // pending TNT bit
	old := tr.Output()
	fresh := NewSingleToPA(1 << 16)
	tr.SwapOutputHot(2, fresh)
	if tr.Output() != fresh {
		t.Fatal("output not swapped")
	}
	if !tr.Enabled() {
		t.Fatal("hot swap must not disable tracing")
	}
	// The pending bit must have been flushed to the OLD chain.
	p := NewParser(old.Bytes())
	sawTNT := false
	for {
		pkt, ok, err := p.Next()
		if err != nil || !ok {
			break
		}
		if pkt.Kind == PktTNT {
			sawTNT = true
		}
	}
	if !sawTNT {
		t.Fatal("pending TNT not flushed to old chain")
	}
	// The new chain starts with a PSB header so decoders can sync.
	p2 := NewParser(fresh.Bytes())
	pkt, ok, err := p2.Next()
	if err != nil || !ok || pkt.Kind != PktPSB {
		t.Fatalf("new chain does not start with PSB: %+v", pkt)
	}
}
