package kernel

import (
	"encoding/binary"
	"fmt"
	"slices"

	"exist/internal/simtime"
)

// SwitchOp is the operation field of a five-tuple switch record.
type SwitchOp uint8

const (
	// OpIn: the thread was scheduled onto the CPU.
	OpIn SwitchOp = iota
	// OpOut: the thread was scheduled off the CPU.
	OpOut
)

// String returns "in" or "out".
func (o SwitchOp) String() string {
	if o == OpIn {
		return "in"
	}
	return "out"
}

// SwitchRecord is the five-tuple [Timestamp, CPUID, ProcessID, ThreadID,
// Operation] that EXIST's kernel hooker appends at every sched_switch of a
// traced process (§3.3). Records let the decoder attribute per-core packet
// streams to threads, which PT alone cannot do for threads sharing a CR3.
type SwitchRecord struct {
	TS  simtime.Time
	CPU int32
	PID int32
	TID int32
	Op  SwitchOp
}

// RecordSize is the paper's stated per-record footprint: 24 bytes.
const RecordSize = 24

// AppendBinary appends the 24-byte wire encoding of the record.
func (r SwitchRecord) AppendBinary(dst []byte) []byte {
	var b [RecordSize]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(r.TS))
	binary.LittleEndian.PutUint32(b[8:], uint32(r.CPU))
	binary.LittleEndian.PutUint32(b[12:], uint32(r.PID))
	binary.LittleEndian.PutUint32(b[16:], uint32(r.TID))
	b[20] = byte(r.Op)
	return append(dst, b[:]...)
}

// DecodeSwitchRecord parses one 24-byte record.
func DecodeSwitchRecord(b []byte) (SwitchRecord, error) {
	if len(b) < RecordSize {
		return SwitchRecord{}, fmt.Errorf("kernel: switch record truncated (%d bytes)", len(b))
	}
	return SwitchRecord{
		TS:  simtime.Time(binary.LittleEndian.Uint64(b[0:])),
		CPU: int32(binary.LittleEndian.Uint32(b[8:])),
		PID: int32(binary.LittleEndian.Uint32(b[12:])),
		TID: int32(binary.LittleEndian.Uint32(b[16:])),
		Op:  SwitchOp(b[20]),
	}, nil
}

// SwitchLog accumulates five-tuple records for one tracing session.
type SwitchLog struct {
	// Records holds the records in arrival order.
	Records []SwitchRecord
}

// Add appends a record. A full log doubles its capacity rather than taking
// append's 1.25x step for large slices: a window logs up to hundreds of
// thousands of records, and doubling keeps the outgrown arrays together
// smaller than the final one instead of several times its size.
func (l *SwitchLog) Add(r SwitchRecord) {
	if len(l.Records) == cap(l.Records) {
		l.Records = slices.Grow(l.Records, max(cap(l.Records), 256))
	}
	l.Records = append(l.Records, r)
}

// Bytes returns the wire encoding of the whole log.
func (l *SwitchLog) Bytes() []byte {
	out := make([]byte, 0, len(l.Records)*RecordSize)
	for _, r := range l.Records {
		out = r.AppendBinary(out)
	}
	return out
}

// SizeBytes returns the log's memory footprint.
func (l *SwitchLog) SizeBytes() int64 { return int64(len(l.Records)) * RecordSize }

// DecodeSwitchLog parses a wire-encoded log.
func DecodeSwitchLog(b []byte) (*SwitchLog, error) {
	if len(b)%RecordSize != 0 {
		return nil, fmt.Errorf("kernel: switch log length %d not a record multiple", len(b))
	}
	l := &SwitchLog{}
	for off := 0; off < len(b); off += RecordSize {
		r, err := DecodeSwitchRecord(b[off:])
		if err != nil {
			return nil, err
		}
		l.Add(r)
	}
	return l, nil
}

// HRT is a one-shot high-resolution timer: EXIST's tracing facility arms
// one to bound the tracing period (§3.2), so a hung controller can never
// leave tracers running forever.
type HRT struct {
	ev *simtime.Event
}

// ArmHRT schedules fn at now+d on the engine and returns the timer along
// with the arming cost to charge.
func ArmHRT(eng *simtime.Engine, d simtime.Duration, armCost simtime.Duration, fn func(now simtime.Time)) (*HRT, simtime.Duration) {
	return &HRT{ev: eng.After(d, fn)}, armCost
}

// Cancel disarms the timer if still pending.
func (h *HRT) Cancel() {
	if h.ev != nil {
		h.ev.Cancel()
	}
}

// Pending reports whether the timer is still armed.
func (h *HRT) Pending() bool { return h.ev != nil && h.ev.Pending() }
