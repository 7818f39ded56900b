package trace

import (
	"fmt"
	"math"

	"exist/internal/kernel"
	"exist/internal/simtime"
	"exist/internal/wire"
)

// Wire format: EXIST's data path uploads raw sessions to the object store
// (OSS) instead of writing node-local files (§4 of the paper); the decoder
// later fetches them together with the program binary.
//
// Two formats exist on the wire. The legacy v1 layout is a flat tagged
// little-endian dump (magic "EXIS"); the current v2 layout (magic "EXI2",
// serialize_v2.go) adds varint/delta encoding, a string dictionary, and
// per-core block framing. Only v2 is written; UnmarshalSession dispatches
// on the magic, so v1 sessions written by older builds still decode.

const (
	sessionMagicV1 = 0x45584953 // "EXIS"
	sessionMagicV2 = 0x45584932 // "EXI2"
)

// V1Size returns the exact encoded size of the session in the v1 layout.
// The cluster ledger and the datapath table use it to report
// v1-equivalent volume next to the bytes actually shipped.
func V1Size(s *Session) int {
	n := 4 // magic
	n += 4 + len(s.ID)
	n += 4 + len(s.Node)
	n += 4 + len(s.Workload)
	n += 4 + 8 + 8 + 8 + 4 // pid, start, end, scale, core count
	for i := range s.Cores {
		n += 4 + 1 + 8 + 4 + len(s.Cores[i].Data)
	}
	n += 4 + len(s.Switches.Records)*kernel.RecordSize
	return n
}

func getV1String(r *wire.Reader) string {
	n := r.U32()
	if int(n) > r.Len() {
		return ""
	}
	return r.String(int(n))
}

// UnmarshalSession parses a serialized session of either format. Slices
// in the result may alias data; callers that mutate the session after
// unmarshaling should copy first (the object store hands out private
// copies, so the cluster pipeline never needs to).
func UnmarshalSession(data []byte) (*Session, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("trace: session too short (%d bytes)", len(data))
	}
	switch wire.U32(data) {
	case sessionMagicV1:
		return unmarshalV1(data)
	case sessionMagicV2:
		return unmarshalV2(data)
	default:
		return nil, fmt.Errorf("trace: bad session magic %#x", wire.U32(data))
	}
}

// unmarshalV1 parses the legacy flat layout.
func unmarshalV1(data []byte) (*Session, error) {
	r := wire.NewReader(data)
	r.U32() // magic, already checked
	s := &Session{}
	s.ID = getV1String(r)
	s.Node = getV1String(r)
	s.Workload = getV1String(r)
	s.PID = int32(r.U32())
	s.Start = simtime.Time(r.U64())
	s.End = simtime.Time(r.U64())
	s.Scale = math.Float64frombits(r.U64())
	nCores := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if int(nCores) > 1<<16 {
		return nil, fmt.Errorf("trace: implausible core count %d", nCores)
	}
	for i := 0; i < int(nCores); i++ {
		core := int32(r.U32())
		flags := r.U8()
		dropped := int64(r.U64())
		n := r.U32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if int(n) > r.Len() {
			return nil, fmt.Errorf("trace: core data length %d exceeds remaining %d", n, r.Len())
		}
		s.Cores = append(s.Cores, CoreTrace{
			Core:         int(core),
			Data:         r.Bytes(int(n)),
			Wrapped:      flags&1 != 0,
			Stopped:      flags&2 != 0,
			DroppedBytes: dropped,
		})
	}
	swLen := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if int(swLen) > r.Len() {
		return nil, fmt.Errorf("trace: switch log length %d exceeds remaining %d", swLen, r.Len())
	}
	log, err := kernel.DecodeSwitchLog(r.Bytes(int(swLen)))
	if err != nil {
		return nil, err
	}
	s.Switches = *log
	return s, nil
}
