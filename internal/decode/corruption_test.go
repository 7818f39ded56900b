package decode

import (
	"testing"

	"exist/internal/faults"
	"exist/internal/metrics"
	"exist/internal/simtime"
	"exist/internal/trace"
)

// corrupted returns a deep copy of sess with each core buffer passed
// through mutate.
func corrupted(sess *trace.Session, mutate func(core int, data []byte) []byte) *trace.Session {
	mut := *sess
	mut.Cores = make([]trace.CoreTrace, len(sess.Cores))
	for i, c := range sess.Cores {
		data := append([]byte(nil), c.Data...)
		c.Data = mutate(int(c.Core), data)
		mut.Cores[i] = c
	}
	return &mut
}

// TestAccuracyDegradesMonotonicallyWithBitFlips is the corruption table:
// increasing seeded bit-flip counts must never panic, keep Errors and
// Resyncs bounded, and lose accuracy smoothly — more corruption, less
// accuracy, no cliff to zero while sync points survive. Accuracy here is
// the function-histogram weight match, the paper's reconstruction metric.
func TestAccuracyDegradesMonotonicallyWithBitFlips(t *testing.T) {
	sess, gt, prog := pipeline(t, 1<<22, 3, 400*simtime.Millisecond)
	flipCounts := []int{0, 2, 8, 32, 128, 512}
	accs := make([]float64, len(flipCounts))
	for i, n := range flipCounts {
		flips := n
		mut := corrupted(sess, func(core int, data []byte) []byte {
			faults.FlipBits(data, flips, uint64(31+core))
			return data
		})
		res := Decode(mut, prog) // must not panic
		if res.Resyncs > int64(maxResyncs*len(sess.Cores)) {
			t.Fatalf("flips=%d: resyncs %d over cap", n, res.Resyncs)
		}
		// The resync cap bounds the error list even for heavily corrupted
		// streams: at most one error per recovery plus the final one.
		if len(res.Errors) > (maxResyncs+1)*len(sess.Cores) {
			t.Fatalf("flips=%d: %d errors unbounded", n, len(res.Errors))
		}
		if n > 0 && res.Resyncs == 0 && len(res.Errors) == 0 {
			t.Fatalf("flips=%d corrupted nothing; test is vacuous", n)
		}
		accs[i] = metrics.WeightMatch(gt.FuncEntries, res.FuncEntries)
	}
	if accs[0] < 0.999 {
		t.Fatalf("uncorrupted weight match = %.4f", accs[0])
	}
	for i := 1; i < len(accs); i++ {
		// Monotone within a small tolerance: a flip landing in dead bytes
		// can leave one step flat, but accuracy must never rise materially
		// with more corruption.
		if accs[i] > accs[i-1]+0.02 {
			t.Fatalf("accuracy rose with corruption: %v (flips %v)", accs, flipCounts)
		}
	}
	last := accs[len(accs)-1]
	if last >= accs[0] {
		t.Fatalf("heavy corruption did not degrade accuracy: %v", accs)
	}
	// Graceful, not catastrophic: with PSBs every 4 KB and TIP.PGE
	// re-anchors at context switches, the decoder still recovers a usable
	// fraction at the heaviest tested corruption.
	if last <= 0.3 {
		t.Fatalf("accuracy collapsed to %.4f despite resync: %v", last, accs)
	}
}

// TestAccuracyDegradesMonotonicallyWithTruncation chops growing tail
// fractions off every core buffer.
func TestAccuracyDegradesMonotonicallyWithTruncation(t *testing.T) {
	sess, gt, prog := pipeline(t, 1<<22, 3, 400*simtime.Millisecond)
	fracs := []float64{0, 0.3, 0.6, 0.95}
	accs := make([]float64, len(fracs))
	for i, f := range fracs {
		frac := f
		mut := corrupted(sess, func(core int, data []byte) []byte {
			return faults.Truncate(data, frac)
		})
		res := Decode(mut, prog) // must not panic
		// A chopped tail yields at most one truncated-packet error per
		// core, possibly none when the cut lands on a packet boundary.
		if len(res.Errors) > len(sess.Cores) {
			t.Fatalf("frac=%.2f: errors = %v", f, res.Errors)
		}
		accs[i] = metrics.WeightMatch(gt.FuncEntries, res.FuncEntries)
	}
	for i := 1; i < len(accs); i++ {
		if accs[i] > accs[i-1]+0.02 {
			t.Fatalf("accuracy rose with truncation: %v (fracs %v)", accs, fracs)
		}
	}
	if accs[len(accs)-1] >= accs[0] {
		t.Fatalf("truncation did not degrade accuracy: %v", accs)
	}
}

// TestResyncRecoversStreamTail pins the satellite behaviour change: a
// mid-stream desync no longer discards the rest of the buffer. Decoding a
// corrupted stream must recover strictly more than decoding the stream
// cut at the corruption point (the old break-on-error behaviour).
func TestResyncRecoversStreamTail(t *testing.T) {
	sess, _, prog := pipeline(t, 1<<22, 3, 400*simtime.Millisecond)
	data := sess.Cores[0].Data
	if len(data) < 1<<14 {
		t.Skip("stream too short to test recovery")
	}
	recovered := false
	// Try a few early corruption points; seeded, so the pass is stable.
	for _, frac := range []float64{0.10, 0.15, 0.20, 0.25} {
		pos := int(float64(len(data)) * frac)
		mut := append([]byte(nil), data...)
		faults.FlipBits(mut[pos:pos+64], 16, uint64(pos))
		full := Decode(&trace.Session{Switches: sess.Switches, Cores: []trace.CoreTrace{{Data: mut}}}, prog)
		if full.Resyncs == 0 {
			continue // flips landed without a parse error; try another spot
		}
		cut := Decode(&trace.Session{Switches: sess.Switches, Cores: []trace.CoreTrace{{Data: mut[:pos]}}}, prog)
		if full.Events <= cut.Events {
			t.Fatalf("resync at %.0f%% recovered nothing: full %d events, cut %d",
				frac*100, full.Events, cut.Events)
		}
		recovered = true
	}
	if !recovered {
		t.Fatal("no corruption point produced a resync; test is vacuous")
	}
}

// TestResyncCapBoundsErrorsOnGarbage floods the decoder with dense
// corruption and checks the recovery loop terminates under its cap.
func TestResyncCapBoundsErrorsOnGarbage(t *testing.T) {
	sess, _, prog := pipeline(t, 1<<22, 3, 400*simtime.Millisecond)
	data := append([]byte(nil), sess.Cores[0].Data...)
	// Heavy corruption: one flip every ~32 bytes.
	faults.FlipBits(data, len(data)/32, 1234)
	res := Decode(&trace.Session{Switches: sess.Switches, Cores: []trace.CoreTrace{{Data: data}}}, prog)
	if res.Resyncs > maxResyncs {
		t.Fatalf("resyncs = %d over cap %d", res.Resyncs, maxResyncs)
	}
	if len(res.Errors) > maxResyncs+1 {
		t.Fatalf("errors = %d unbounded", len(res.Errors))
	}
}
