package cluster

import (
	"fmt"
	"testing"
)

// watchEv builds a distinguishable event for buffer tests.
func watchEv(i int) WatchEvent {
	return WatchEvent{Type: EventModified, Name: fmt.Sprintf("r-%d", i), ResourceVersion: int64(i), Seq: int64(i)}
}

// drainNames pops every buffered event and returns their names.
func drainNames(w *WatchStream) []string {
	var out []string
	for {
		ev, ok := w.Next()
		if !ok {
			return out
		}
		out = append(out, ev.Name)
	}
}

// TestWatchStreamDropOldestStale pins overflow: the oldest events go,
// the stream turns stale, and the survivors keep their order.
func TestWatchStreamDropOldestStale(t *testing.T) {
	kicks := 0
	w := &WatchStream{max: 3, notify: func() { kicks++ }}
	for i := 0; i < 7; i++ {
		w.push(watchEv(i))
	}
	if !w.Stale() || w.Len() != 3 || kicks != 1 {
		t.Fatalf("stale=%v len=%d kicks=%d", w.Stale(), w.Len(), kicks)
	}
	if ev, _ := w.peek(); ev.Name != "r-4" {
		t.Fatalf("peek = %s, want r-4", ev.Name)
	}
	if got := fmt.Sprint(drainNames(w)); got != "[r-4 r-5 r-6]" {
		t.Fatalf("drained %s", got)
	}
	// Emptied by Next: the stale flag stays until Reset.
	if !w.Stale() || w.Len() != 0 {
		t.Fatalf("after drain: stale=%v len=%d", w.Stale(), w.Len())
	}
	w.push(watchEv(7))
	if kicks != 2 {
		t.Fatalf("kicks=%d; want a second empty→non-empty edge", kicks)
	}
}

// TestWatchStreamReset pins Reset: buffered events are discarded (and
// released), the stale flag clears, and the stream works afterwards.
func TestWatchStreamReset(t *testing.T) {
	w := &WatchStream{max: 4}
	for i := 0; i < 6; i++ {
		w.push(watchEv(i))
	}
	w.Next()
	w.Reset()
	if w.Stale() || w.Len() != 0 {
		t.Fatalf("after Reset: stale=%v len=%d", w.Stale(), w.Len())
	}
	if _, ok := w.Next(); ok {
		t.Fatal("Next after Reset returned an event")
	}
	if _, ok := w.peek(); ok {
		t.Fatal("peek after Reset returned an event")
	}
	for _, ev := range w.buf[:cap(w.buf)] {
		if ev.Name != "" {
			t.Fatalf("Reset kept %s alive in the backing array", ev.Name)
		}
	}
	w.push(watchEv(9))
	if got := fmt.Sprint(drainNames(w)); got != "[r-9]" {
		t.Fatalf("drained %s", got)
	}
}

// TestWatchStreamCompaction pins peek/Next/Len across the slide of the
// live tail to the front of a full backing array, and that every
// vacated slot is zeroed.
func TestWatchStreamCompaction(t *testing.T) {
	w := &WatchStream{max: 64}
	for i := 0; i < 8; i++ {
		w.push(watchEv(i))
	}
	for i := 0; i < 5; i++ {
		if ev, _ := w.Next(); ev.Name != fmt.Sprintf("r-%d", i) {
			t.Fatalf("pop %d = %s", i, ev.Name)
		}
	}
	full := len(w.buf) == cap(w.buf)
	backing := &w.buf[:1][0]
	w.push(watchEv(8)) // head 5 >= len/2: slides r-5..r-7 to the front
	if full && &w.buf[:1][0] != backing {
		t.Fatal("push grew a half-drained full buffer instead of compacting")
	}
	if w.head != 0 || w.Len() != 4 {
		t.Fatalf("after compaction: head=%d len=%d", w.head, w.Len())
	}
	for _, ev := range w.buf[len(w.buf):cap(w.buf)] {
		if ev.Name != "" {
			t.Fatalf("vacated slot still holds %s", ev.Name)
		}
	}
	if ev, _ := w.peek(); ev.Name != "r-5" {
		t.Fatalf("peek = %s, want r-5", ev.Name)
	}
	if got := fmt.Sprint(drainNames(w)); got != "[r-5 r-6 r-7 r-8]" {
		t.Fatalf("drained %s", got)
	}
	for _, ev := range w.buf[:cap(w.buf)] {
		if ev.Name != "" {
			t.Fatalf("drained slot still holds %s", ev.Name)
		}
	}
}

// TestWatchStreamSteadyStateAllocs pins that a stream holding a backlog
// reuses its backing array: push/Next in steady state allocates nothing.
func TestWatchStreamSteadyStateAllocs(t *testing.T) {
	w := &WatchStream{max: 1024}
	for i := 0; i < 10; i++ {
		w.push(watchEv(i))
	}
	ev := watchEv(99)
	allocs := testing.AllocsPerRun(10000, func() {
		w.push(ev)
		w.Next()
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/Next allocates %.2f per op", allocs)
	}
	if w.Len() != 10 {
		t.Fatalf("len = %d, want 10", w.Len())
	}
}
