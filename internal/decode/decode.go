// Package decode reconstructs execution flow from PT packet streams — the
// role libipt plays in the paper's pipeline. Given a session's per-core
// packet buffers, the five-tuple context-switch sidecar, and the traced
// program binary, it replays the control-flow graph: silent edges
// (fall-throughs, direct jumps, direct calls) are followed statically,
// conditional branches consume TNT bits, and indirect transfers and
// returns consume TIP payloads. The result is a per-thread branch stream
// directly comparable to the ground truth, plus the aggregate profiles
// (function categories, memory-access mix) the paper's case study reports.
package decode

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"exist/internal/binary"
	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/simtime"
	"exist/internal/trace"
)

// Result is a reconstruction of one or more packet streams.
type Result struct {
	// ByThread holds each thread's reconstructed event stream, in order.
	ByThread map[int32][]trace.Event
	// FuncEntries is the function occurrence histogram (indirect-call
	// entries, matching trace.GroundTruth's counting rule).
	FuncEntries map[int32]int64
	// CatHits counts every decoded block (including silently-walked ones)
	// by function category — the Figure 21 profile.
	CatHits [binary.NumCategories]int64
	// MemOps accumulates decoded blocks' memory-access counts — the
	// Figure 22 profile.
	MemOps [binary.NumMemClasses][4]int64
	// Blocks is the total number of blocks visited.
	Blocks int64
	// Events is the total number of reconstructed branch events.
	Events int64
	// BytesDecoded counts packet bytes consumed.
	BytesDecoded int64
	// PTWrites holds decoded PTWRITE operands in stream order with their
	// attributed threads (the §6.1 data-flow extension).
	PTWrites []PTWrite
	// Errors lists decode problems (truncation at a stopped buffer is
	// normal; anything else indicates desync).
	Errors []string
	// Resyncs counts mid-stream recoveries: after a desync the decoder
	// scans forward to the next PSB and resumes instead of discarding the
	// rest of the buffer.
	Resyncs int64
}

// PTWrite is one decoded PTWRITE operand.
type PTWrite struct {
	TID int32
	Val uint64
}

// newResult returns an empty result.
func newResult() *Result {
	return &Result{
		ByThread:    make(map[int32][]trace.Event),
		FuncEntries: make(map[int32]int64),
	}
}

// Merge folds other into r (coverage.Merge uses it to combine per-worker
// decodes into the augmented trace).
func (r *Result) Merge(other *Result) {
	for tid, evs := range other.ByThread {
		r.ByThread[tid] = append(r.ByThread[tid], evs...)
	}
	for fn, n := range other.FuncEntries {
		r.FuncEntries[fn] += n
	}
	for i := range r.CatHits {
		r.CatHits[i] += other.CatHits[i]
	}
	for c := range r.MemOps {
		for w := range r.MemOps[c] {
			r.MemOps[c][w] += other.MemOps[c][w]
		}
	}
	r.PTWrites = append(r.PTWrites, other.PTWrites...)
	r.Blocks += other.Blocks
	r.Events += other.Events
	r.BytesDecoded += other.BytesDecoded
	r.Errors = append(r.Errors, other.Errors...)
	r.Resyncs += other.Resyncs
}

// sidecarIndex resolves schedule-in records per core for thread
// attribution.
type sidecarIndex struct {
	byCore map[int32][]kernel.SwitchRecord
}

func buildSidecar(log *kernel.SwitchLog) *sidecarIndex {
	// Size each per-core slice exactly before filling: schedule-in records
	// dominate the sidecar, and append-regrowth on them shows up in decode
	// allocation profiles.
	counts := make(map[int32]int)
	for i := range log.Records {
		if log.Records[i].Op == kernel.OpIn {
			counts[log.Records[i].CPU]++
		}
	}
	idx := &sidecarIndex{byCore: make(map[int32][]kernel.SwitchRecord, len(counts))}
	for cpu, n := range counts {
		idx.byCore[cpu] = make([]kernel.SwitchRecord, 0, n)
	}
	for i := range log.Records {
		if r := log.Records[i]; r.Op == kernel.OpIn {
			idx.byCore[r.CPU] = append(idx.byCore[r.CPU], r)
		}
	}
	for cpu := range idx.byCore {
		slices.SortFunc(idx.byCore[cpu], func(a, b kernel.SwitchRecord) int {
			return cmp.Compare(a.TS, b.TS)
		})
	}
	return idx
}

// tidAt returns the thread scheduled in on cpu at or before ts.
func (idx *sidecarIndex) tidAt(cpu int, ts simtime.Time) (int32, bool) {
	rs := idx.byCore[int32(cpu)]
	i := sort.Search(len(rs), func(i int) bool { return rs[i].TS > ts })
	if i == 0 {
		return 0, false
	}
	return rs[i-1].TID, true
}

// Decode reconstructs a whole session against its program binary. A
// thread's execution is spread over per-core streams as it migrates; the
// decoder re-serializes each thread's segments by their timestamps so the
// per-thread event order matches execution order.
func Decode(s *trace.Session, prog *binary.Program) *Result {
	res := newResult()
	idx := buildSidecar(&s.Switches)
	visits := make([]int64, len(prog.Blocks))
	var segs []*segment
	for i := range s.Cores {
		segs = append(segs, decodeStream(res, prog, idx, visits, s.Cores[i].Core, s.Cores[i].Data, s.Cores[i].Wrapped)...)
	}
	flushVisits(res, prog, visits)
	slices.SortStableFunc(segs, func(a, b *segment) int { return cmp.Compare(a.ts, b.ts) })
	gatherByThread(res, segs)
	return res
}

// gatherByThread concatenates segment event ranges into exactly-sized
// per-thread streams.
func gatherByThread(res *Result, segs []*segment) {
	counts := make(map[int32]int)
	for _, sg := range segs {
		counts[sg.tid] += len(sg.events)
	}
	for tid, n := range counts {
		res.ByThread[tid] = make([]trace.Event, 0, n)
	}
	for _, sg := range segs {
		res.ByThread[sg.tid] = append(res.ByThread[sg.tid], sg.events...)
	}
}

// flushVisits folds the per-block visit counts into the aggregate
// profiles. Deferring this from the per-visit fast path to one pass per
// decode turns 17 additions per visited block into 17 per *distinct*
// block.
func flushVisits(res *Result, prog *binary.Program, visits []int64) {
	for id, n := range visits {
		if n == 0 {
			continue
		}
		b := &prog.Blocks[id]
		res.Blocks += n
		res.CatHits[prog.Funcs[b.Func].Category] += n
		for c := 0; c < binary.NumMemClasses; c++ {
			for w := 0; w < 4; w++ {
				res.MemOps[c][w] += n * int64(b.MemOps[c][w])
			}
		}
	}
}

// segment is one contiguous traced span on one core, attributed to a
// thread and anchored at its TIP.PGE timestamp. Its events are a subrange
// of the stream's shared event arena, materialized once the stream is
// fully decoded (per-segment slices were a top allocation site).
type segment struct {
	tid    int32
	ts     simtime.Time
	start  int
	events []trace.Event
}

// silentWalkCap bounds CFG walking between packets; the generator
// guarantees silent edges make forward progress, so this only trips on a
// corrupt stream.
const silentWalkCap = 1 << 20

// maxResyncs bounds PSB recoveries per core stream so a thoroughly
// corrupt buffer cannot bloat the error list.
const maxResyncs = 64

// decoder holds per-stream state.
type decoder struct {
	res     *Result
	prog    *binary.Program
	idx     *sidecarIndex
	visits  []int64
	core    int
	tracing bool
	cur     binary.BlockID
	curOK   bool
	tid     int32
	lastTSC simtime.Time
	seg     *segment
	segs    []*segment
	// events is the stream's shared event arena; segments hold index
	// ranges into it and are materialized as subslices once decoding ends
	// (the arena may reallocate while growing).
	events []trace.Event
}

func decodeStream(res *Result, prog *binary.Program, idx *sidecarIndex, visits []int64, core int, data []byte, wrapped bool) []*segment {
	d := &decoder{res: res, prog: prog, idx: idx, visits: visits, core: core, tid: -1,
		events: make([]trace.Event, 0, 1+len(data)/4)}
	p := ipt.NewParser(data)
	if wrapped {
		// Ring-buffer output starts mid-stream: resynchronize at a PSB.
		if !p.Sync() {
			res.Errors = append(res.Errors, fmt.Sprintf("core %d: wrapped stream has no PSB", core))
			return nil
		}
	}
	resyncs := 0
	for {
		pkt, ok, err := p.Next()
		if err != nil {
			// A truncated trailing packet is the normal signature of a
			// compulsory-drop stop; anything mid-stream is a desync.
			res.Errors = append(res.Errors, fmt.Sprintf("core %d: %v", core, err))
			// Graceful recovery: scan forward to the next PSB and resume
			// instead of discarding the rest of the buffer. The error
			// position itself can never parse as a full PSB, so Sync always
			// makes progress; the cap keeps Errors bounded on garbage.
			if resyncs >= maxResyncs || !p.Sync() {
				break
			}
			resyncs++
			res.Resyncs++
			d.desync()
			continue
		}
		if !ok {
			break
		}
		d.packet(pkt)
	}
	res.BytesDecoded += int64(p.Pos())
	// Materialize segment event ranges against the final arena.
	for i, sg := range d.segs {
		end := len(d.events)
		if i+1 < len(d.segs) {
			end = d.segs[i+1].start
		}
		sg.events = d.events[sg.start:end]
	}
	return d.segs
}

// desync resets stream-dependent state after a recovery scan: position
// and enablement are unknown until the next TIP.PGE re-anchors them, so
// the decoder conservatively drops out of tracing rather than emitting
// events from a misaligned stream.
func (d *decoder) desync() {
	d.tracing = false
	d.curOK = false
	d.seg = nil
}

// packet advances the decoder by one packet.
func (d *decoder) packet(pkt ipt.Packet) {
	switch pkt.Kind {
	case ipt.PktTSC:
		d.lastTSC = simtime.Time(pkt.Val)
	case ipt.PktTIPPGE:
		d.tracing = true
		id, ok := d.prog.BlockAt(pkt.Val)
		d.cur, d.curOK = id, ok
		if !ok {
			d.err("TIP.PGE at unknown address %#x", pkt.Val)
		}
		if tid, ok := d.idx.tidAt(d.core, d.lastTSC); ok {
			d.tid = tid
		} else {
			d.tid = -1
		}
		d.seg = &segment{tid: d.tid, ts: d.lastTSC, start: len(d.events)}
		d.segs = append(d.segs, d.seg)
	case ipt.PktTIPPGD:
		d.tracing = false
		d.curOK = false
	case ipt.PktTNT:
		if !d.tracing || !d.curOK {
			return
		}
		for i := 0; i < int(pkt.Len); i++ {
			if !d.consumeCond(pkt.TNTBit(i)) {
				return
			}
		}
	case ipt.PktTIP:
		if !d.tracing || !d.curOK {
			return
		}
		d.consumeTIP(pkt.Val)
	case ipt.PktPTW:
		if d.tracing {
			d.res.PTWrites = append(d.res.PTWrites, PTWrite{TID: d.tid, Val: pkt.Val})
		}
	case ipt.PktPSB, ipt.PktPSBEND, ipt.PktMODE, ipt.PktPIP, ipt.PktCYC, ipt.PktPAD, ipt.PktFUP:
		// Stateless for reconstruction purposes (PAD is also the bulk
		// filler of analytic sessions, which are not decodable).
	}
}

// walkSilent advances through non-packet-producing edges until the current
// block's terminator needs trace input. Reports false on desync.
func (d *decoder) walkSilent() bool {
	for steps := 0; steps < silentWalkCap; steps++ {
		b := &d.prog.Blocks[d.cur]
		d.visit(d.cur)
		switch b.Term {
		case binary.TermFall, binary.TermSyscall:
			d.cur = b.Fall
		case binary.TermJump:
			d.cur = b.Taken
		case binary.TermCall:
			d.cur = b.Taken
		default:
			return true
		}
	}
	d.err("silent walk did not converge at block %d", d.cur)
	d.curOK = false
	return false
}

// consumeCond walks to the next conditional branch and applies one TNT bit.
func (d *decoder) consumeCond(taken bool) bool {
	if !d.walkSilent() {
		return false
	}
	b := &d.prog.Blocks[d.cur]
	if b.Term != binary.TermCond {
		d.err("TNT bit arrived at non-conditional block %d (%v)", d.cur, b.Term)
		d.curOK = false
		return false
	}
	target := b.Fall
	if taken {
		target = b.Taken
	}
	d.emit(trace.Event{TID: d.tid, Block: d.cur, Target: target, Kind: binary.TermCond, Taken: taken})
	d.cur = target
	return true
}

// consumeTIP walks to the next indirect transfer and applies a TIP target.
func (d *decoder) consumeTIP(ip uint64) {
	if !d.walkSilent() {
		return
	}
	b := &d.prog.Blocks[d.cur]
	switch b.Term {
	case binary.TermIndirectJump, binary.TermIndirectCall, binary.TermReturn:
	default:
		d.err("TIP arrived at block %d with terminator %v", d.cur, b.Term)
		d.curOK = false
		return
	}
	target, ok := d.prog.BlockAt(ip)
	if !ok {
		d.err("TIP to unknown address %#x", ip)
		d.curOK = false
		return
	}
	d.emit(trace.Event{TID: d.tid, Block: d.cur, Target: target, Kind: b.Term})
	d.cur = target
}

// visit accounts one decoded block. The aggregate profiles are folded in
// once per decode by flushVisits; the fast path is a single counter bump.
func (d *decoder) visit(id binary.BlockID) {
	d.visits[id]++
}

// emit records one reconstructed event into the current segment, counting
// function occurrences under the same rule trace.GroundTruth uses:
// indirect-call entries only (returns restarting the service loop would
// swamp the histogram with the loop head).
func (d *decoder) emit(ev trace.Event) {
	if d.seg == nil {
		d.seg = &segment{tid: d.tid, ts: d.lastTSC, start: len(d.events)}
		d.segs = append(d.segs, d.seg)
	}
	d.events = append(d.events, ev)
	d.res.Events++
	if ev.Kind == binary.TermIndirectCall {
		if fn, ok := d.prog.EntryFuncOf(ev.Target); ok {
			d.res.FuncEntries[fn]++
		}
	}
}

// err records a decode problem.
func (d *decoder) err(format string, args ...any) {
	d.res.Errors = append(d.res.Errors, fmt.Sprintf("core %d: ", d.core)+fmt.Sprintf(format, args...))
}
