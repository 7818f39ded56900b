package ipt

import (
	"exist/internal/binary"
	"exist/internal/simtime"
)

// refOnBranch is the per-event reference model of OnBranchBatch: one
// retired control transfer at a time, each packet written to the output
// chain by emitRaw as soon as it is complete. The equivalence tests hold
// the staged, pack-driven production entry to its bytes and bookkeeping.
func (t *Tracer) refOnBranch(now simtime.Time, ev binary.BranchEvent) {
	if !t.Enabled() || t.ctl&CtlBranchEn == 0 {
		return
	}
	if !t.contextOn {
		t.Stats.FilteredEvents++
		return
	}
	if t.out.Stopped() {
		t.Stats.DroppedEvents++
		return
	}
	t.curIP = ev.To
	if ev.Kind == binary.TermCond {
		if ev.Taken {
			t.tntBits |= 1 << uint(t.tntLen)
		}
		t.tntLen++
		if t.tntLen == 6 {
			t.flushTNT()
		}
		return
	}
	// Indirect transfer: order is TNT flush, optional CYC, then TIP.
	t.flushTNT()
	if t.ctl&CtlCYCEn != 0 {
		t.emitRaw(AppendCYC(t.scratch[:0], 16))
	}
	t.emitTIP(PktTIP, ev.To)
}

// packTNT builds a batch's TNT pack the way the walker does, through the
// exported Bits/N fields: bit i is the direction of the i-th conditional.
func packTNT(evs []binary.BranchEvent) binary.TNTPack {
	var p binary.TNTPack
	for i := range evs {
		if evs[i].Kind != binary.TermCond {
			continue
		}
		if evs[i].Taken {
			p.Bits[p.N>>6] |= 1 << (uint(p.N) & 63)
		}
		p.N++
	}
	return p
}

// walkerBatch is the walker's emission batch size: a TNTPack holds at most
// this many directions.
const walkerBatch = 128

// feedBatches drives the production entry with evs split into batches of
// at most size (<= walkerBatch) events, each with its pack.
func feedBatches(tr *Tracer, now simtime.Time, evs []binary.BranchEvent, size int) {
	for i := 0; i < len(evs); i += size {
		j := min(i+size, len(evs))
		tnt := packTNT(evs[i:j])
		tr.OnBranchBatch(now, evs[i:j], &tnt)
	}
}

// feed drives the production entry with evs as walker-sized batches.
func feed(tr *Tracer, now simtime.Time, evs ...binary.BranchEvent) {
	feedBatches(tr, now, evs, walkerBatch)
}
