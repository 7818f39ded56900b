package ipt

import (
	"bytes"
	"fmt"
	"testing"

	"exist/internal/binary"
	"exist/internal/simtime"
)

// syntheticEvents builds a deterministic mixed branch stream (TNT runs,
// indirect transfers, partial TNT tails) without needing a program walk.
func syntheticEvents(n int) []binary.BranchEvent {
	evs := make([]binary.BranchEvent, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range evs {
		state = state*6364136223846793005 + 1442695040888963407
		r := state >> 33
		ev := &evs[i]
		ev.From = 0x400000 + r%4096
		ev.To = 0x400000 + (r>>12)%4096
		if r%5 == 0 {
			if r%2 == 0 {
				ev.Kind = binary.TermIndirectCall
			} else {
				ev.Kind = binary.TermReturn
			}
		} else {
			ev.Kind = binary.TermCond
			ev.Taken = r%3 == 0
		}
	}
	return evs
}

// newBatchTestTracer builds an enabled tracer over the given chain.
func newBatchTestTracer(t *testing.T, out *ToPA, ctl uint64) *Tracer {
	t.Helper()
	tr := NewTracer(0)
	if err := tr.SetOutput(out); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCtl(0, ctl|CtlTraceEn); err != nil {
		t.Fatal(err)
	}
	return tr
}

// tracerDiff compares a reference tracer with one driven through the
// production entry: trace bytes, Stats, status bits, psbLeft and ToPA
// accounting. It returns "" when they agree.
func tracerDiff(ref, got *Tracer) string {
	if ref.Stats != got.Stats {
		return fmt.Sprintf("stats diverge:\n per-event %+v\n batched   %+v", ref.Stats, got.Stats)
	}
	if ref.Status() != got.Status() {
		return fmt.Sprintf("status = %#x, want %#x", got.Status(), ref.Status())
	}
	if ref.psbLeft != got.psbLeft {
		return fmt.Sprintf("psbLeft = %d, want %d", got.psbLeft, ref.psbLeft)
	}
	ro, gc := ref.Output(), got.Output()
	if ro.Written() != gc.Written() || ro.Dropped() != gc.Dropped() ||
		ro.Stopped() != gc.Stopped() || ro.Wrapped() != gc.Wrapped() {
		return fmt.Sprintf("chain accounting diverges: per-event written=%d dropped=%d stopped=%v wrapped=%v, batched written=%d dropped=%d stopped=%v wrapped=%v",
			ro.Written(), ro.Dropped(), ro.Stopped(), ro.Wrapped(),
			gc.Written(), gc.Dropped(), gc.Stopped(), gc.Wrapped())
	}
	if !bytes.Equal(ro.Bytes(), gc.Bytes()) {
		return fmt.Sprintf("trace bytes diverge (len %d vs %d)", len(ro.Bytes()), len(gc.Bytes()))
	}
	return ""
}

// TestOnBranchBatchEquivalence feeds the same event stream through the
// per-event reference model and the production OnBranchBatch (packed
// batches of at most 128 events, as the walker delivers them) and requires
// identical trace bytes, Stats, status bits, and ToPA accounting —
// including when the stop-mode chain overflows mid-stream, where the
// stored/dropped split must land on the same byte.
func TestOnBranchBatchEquivalence(t *testing.T) {
	evs := syntheticEvents(20_000)
	cases := []struct {
		name  string
		sizes []int
		ring  bool
		ctl   uint64
		batch int
	}{
		{"ring-large", []int{1 << 20}, true, DefaultCtl(), 128},
		{"ring-small-wraps", []int{4096, 4096}, true, DefaultCtl(), 128},
		{"stop-overflows", []int{8192}, false, DefaultCtl(), 128},
		{"stop-overflows-multiregion", []int{4096, 2048, 1024}, false, DefaultCtl(), 64},
		{"stop-no-cyc", []int{8192}, false, DefaultCtl() &^ CtlCYCEn, 128},
		{"stop-tiny-batches", []int{8192}, false, DefaultCtl(), 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := newBatchTestTracer(t, NewToPA(tc.sizes, tc.ring), tc.ctl)
			got := newBatchTestTracer(t, NewToPA(tc.sizes, tc.ring), tc.ctl)
			for i := range evs {
				ref.refOnBranch(0, evs[i])
			}
			feedBatches(got, 0, evs, tc.batch)
			ref.Flush()
			got.Flush()
			if d := tracerDiff(ref, got); d != "" {
				t.Error(d)
			}
			if tc.ring && got.Output().Stopped() {
				t.Error("ring chain stopped")
			}
			if !tc.ring && !got.Output().Stopped() {
				t.Error("stop chain did not overflow; case exercises nothing")
			}
		})
	}
}

// TestOnBranchBatchStopSweep moves the end of a stop-mode chain across
// every byte of a window around the first periodic PSB, so the stop lands
// on each packet kind in turn: a TNT completed inside a conditional run,
// a short TNT flushed by an indirect transfer, CYC, TIP and the PSB group.
func TestOnBranchBatchStopSweep(t *testing.T) {
	evs := syntheticEvents(4_000)
	for size := 4000; size < 4200; size++ {
		ref := newBatchTestTracer(t, NewToPA([]int{size}, false), DefaultCtl())
		got := newBatchTestTracer(t, NewToPA([]int{size}, false), DefaultCtl())
		for i := range evs {
			ref.refOnBranch(0, evs[i])
		}
		feed(got, 0, evs...)
		ref.Flush()
		got.Flush()
		if d := tracerDiff(ref, got); d != "" {
			t.Fatalf("%d-byte chain: %s", size, d)
		}
		if !got.Output().Stopped() {
			t.Fatalf("%d-byte chain did not overflow; case exercises nothing", size)
		}
	}
}

// TestOnBranchBatchInterleavedControl checks that batches interleaved with
// context switches and trace disable/enable cycles stay equivalent to the
// per-event reference model: staged state must not leak across control
// operations.
func TestOnBranchBatchInterleavedControl(t *testing.T) {
	evs := syntheticEvents(6_000)
	const cr3 = 0x5000
	build := func() *Tracer {
		tr := NewTracer(0)
		if err := tr.SetOutput(NewToPA([]int{1 << 16}, true)); err != nil {
			t.Fatal(err)
		}
		if err := tr.SetCR3Match(cr3); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteCtl(0, DefaultCtl()|CtlTraceEn); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ref, got := build(), build()
	drive := func(tr *Tracer, emit func(now simtime.Time, chunk []binary.BranchEvent)) {
		now := simtime.Time(0)
		for i := 0; i < len(evs); i += 500 {
			j := i + 500
			if j > len(evs) {
				j = len(evs)
			}
			switch (i / 500) % 4 {
			case 0:
				tr.ContextSwitch(now, cr3, evs[i].From) // filtered in
			case 1:
				tr.ContextSwitch(now, 0x9999, evs[i].From) // filtered out
			case 2:
				tr.ContextSwitch(now, cr3, evs[i].From)
			case 3:
				// Disable (flushes pending TNT, emits PGD), then re-enable
				// (PSB+ header, PGE) while the context stays filtered in.
				if err := tr.WriteCtl(now, 0); err != nil {
					t.Fatal(err)
				}
				if err := tr.WriteCtl(now, DefaultCtl()|CtlTraceEn); err != nil {
					t.Fatal(err)
				}
			}
			emit(now, evs[i:j])
			now += 1000
		}
	}
	drive(ref, func(now simtime.Time, chunk []binary.BranchEvent) {
		for i := range chunk {
			ref.refOnBranch(now, chunk[i])
		}
	})
	drive(got, func(now simtime.Time, chunk []binary.BranchEvent) {
		feed(got, now, chunk...)
	})
	ref.Flush()
	got.Flush()
	if d := tracerDiff(ref, got); d != "" {
		t.Error(d)
	}
	if got.Stats.FilteredEvents == 0 || got.Stats.Disables == 0 {
		t.Error("no events filtered or no disable; case exercises nothing")
	}
}

// TestOnBulkBranchesAcceptedBytes is the regression test for bulk-burst
// byte accounting: when the stop-mode chain fills mid-burst, Stats.Bytes
// must count only the accepted prefix (matching the chain's Written), not
// the whole burst, mirroring the proportional DroppedEvents attribution.
func TestOnBulkBranchesAcceptedBytes(t *testing.T) {
	tr := newBatchTestTracer(t, NewToPA([]int{4096}, false), DefaultCtl())
	header := tr.Stats.Bytes // PSB+ group and PGE from enabling
	written := tr.Output().Written()

	// A burst far larger than the remaining space: 30000 conditional +
	// 3000 indirect events.
	tr.OnBulkBranches(0, 30_000, 3_000)

	if !tr.Output().Stopped() {
		t.Fatal("chain should have stopped mid-burst")
	}
	acceptedChain := tr.Output().Written() - written
	acceptedStats := tr.Stats.Bytes - header
	if acceptedStats != acceptedChain {
		t.Errorf("Stats.Bytes counted %d burst bytes, chain accepted %d", acceptedStats, acceptedChain)
	}
	if tr.Stats.DroppedEvents == 0 {
		t.Error("expected proportional DroppedEvents attribution")
	}
	perInd := int64(8) // TIP + CYC under DefaultCtl
	total := (30_000+5)/6 + 3_000*perInd
	lost := total - acceptedChain
	wantDropped := (30_000 + 3_000) * lost / total
	if tr.Stats.DroppedEvents != wantDropped {
		t.Errorf("DroppedEvents = %d, want %d", tr.Stats.DroppedEvents, wantDropped)
	}

	// A second burst on a stopped chain is dropped whole and adds no bytes.
	before := tr.Stats
	tr.OnBulkBranches(0, 600, 60)
	if tr.Stats.Bytes != before.Bytes || tr.Stats.Packets != before.Packets {
		t.Error("stopped chain must accept no burst bytes or packets")
	}
	if tr.Stats.DroppedEvents != before.DroppedEvents+660 {
		t.Errorf("DroppedEvents = %d, want %d", tr.Stats.DroppedEvents, before.DroppedEvents+660)
	}
}

// TestWriteZerosEquivalence checks the zero-fill fast path against literal
// zero writes: identical bytes, counters, and status across region splits,
// ring wraps, and the stop transition — interleaved with real payload so
// run bookkeeping is exercised on both sides of the fill.
func TestWriteZerosEquivalence(t *testing.T) {
	shapes := []struct {
		name  string
		sizes []int
		ring  bool
	}{
		{"stop-multi", []int{300, 200, 100}, false},
		{"ring-multi", []int{256, 128}, true},
		{"stop-single", []int{1000}, false},
	}
	zeros := make([]byte, 1<<13)
	payload := []byte{0x02, 0x82, 0x02, 0x82, 0x99, 0x01} // arbitrary marker bytes
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			ref := NewToPA(sh.sizes, sh.ring)
			got := NewToPA(sh.sizes, sh.ring)
			steps := []int64{17, 1, 250, 4096, 0, 333, 77, 5000}
			for si, n := range steps {
				okRef := ref.Write(zeros[:n])
				okGot := got.WriteZeros(n)
				if okRef != okGot {
					t.Fatalf("step %d: Write=%v WriteZeros=%v", si, okRef, okGot)
				}
				ref.Write(payload)
				got.Write(payload)
			}
			if ref.Written() != got.Written() || ref.Dropped() != got.Dropped() ||
				ref.Used() != got.Used() || ref.Stopped() != got.Stopped() || ref.Wrapped() != got.Wrapped() {
				t.Fatalf("counters diverge: ref written=%d dropped=%d used=%d stopped=%v wrapped=%v, got written=%d dropped=%d used=%d stopped=%v wrapped=%v",
					ref.Written(), ref.Dropped(), ref.Used(), ref.Stopped(), ref.Wrapped(),
					got.Written(), got.Dropped(), got.Used(), got.Stopped(), got.Wrapped())
			}
			if !bytes.Equal(ref.Bytes(), got.Bytes()) {
				t.Fatal("stored bytes diverge")
			}
		})
	}
}
