package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/simtime"
)

// testSession builds a session with PT-shaped core payloads and a
// realistic switch log.
func testSession(seed int64) *Session {
	rng := rand.New(rand.NewSource(seed))
	s := &Session{
		ID:       "sess-roundtrip-1",
		Node:     "node-03",
		Workload: "frontend",
		PID:      4242,
		Start:    simtime.Time(1_000_000),
		End:      simtime.Time(5_000_000),
		Scale:    0.125,
	}
	// Branch targets repeat heavily in real traces (a service loops over
	// the same call sites); mirror that so the dictionary sees hits.
	targets := make([]uint64, 64)
	for i := range targets {
		targets[i] = 0x400000 + uint64(rng.Intn(1<<20))
	}
	for core := 0; core < 3; core++ {
		var data []byte
		data = ipt.AppendPSB(data)
		data = ipt.AppendTSC(data, uint64(1000+core))
		data = ipt.AppendPSBEND(data)
		for i := 0; i < 500; i++ {
			data = ipt.AppendTNT(data, uint8(rng.Intn(8)), 3)
			data = ipt.AppendCYC(data, uint32(rng.Intn(64)))
			data = ipt.AppendTIP(data, ipt.PktTIP, targets[rng.Intn(len(targets))])
		}
		s.Cores = append(s.Cores, CoreTrace{
			Core: core, Data: data,
			Wrapped: core == 1, Stopped: core == 2,
			DroppedBytes: int64(core * 17),
		})
	}
	ts := simtime.Time(1_000_000)
	for i := 0; i < 64; i++ {
		ts += simtime.Time(rng.Intn(50_000))
		op := kernel.OpIn
		if i%2 == 1 {
			op = kernel.OpOut
		}
		s.Switches.Records = append(s.Switches.Records, kernel.SwitchRecord{
			TS: ts, CPU: int32(i % 3), PID: 4242, TID: int32(4242 + i%4), Op: op,
		})
	}
	return s
}

func sessionsEqual(t *testing.T, want, got *Session) {
	t.Helper()
	if d := sessionDiff(want, got); d != "" {
		t.Fatal(d)
	}
}

// sessionDiff describes the first difference between two sessions, or
// returns "" when they are equal. Nil and empty slices compare equal.
func sessionDiff(want, got *Session) string {
	if want.ID != got.ID || want.Node != got.Node || want.Workload != got.Workload ||
		want.PID != got.PID || want.Start != got.Start || want.End != got.End ||
		math.Float64bits(want.Scale) != math.Float64bits(got.Scale) {
		return fmt.Sprintf("header mismatch:\nwant %+v\ngot  %+v", want, got)
	}
	if len(want.Cores) != len(got.Cores) {
		return fmt.Sprintf("core count: want %d got %d", len(want.Cores), len(got.Cores))
	}
	for i := range want.Cores {
		w, g := &want.Cores[i], &got.Cores[i]
		if w.Core != g.Core || w.Wrapped != g.Wrapped || w.Stopped != g.Stopped ||
			w.DroppedBytes != g.DroppedBytes {
			return fmt.Sprintf("core %d meta mismatch: want %+v got %+v", i, w, g)
		}
		if !bytes.Equal(w.Data, g.Data) {
			return fmt.Sprintf("core %d data mismatch (%d vs %d bytes)", i, len(w.Data), len(g.Data))
		}
	}
	if !slices.Equal(want.Switches.Records, got.Switches.Records) {
		return "switch log mismatch"
	}
	return ""
}

func TestV2RoundTripPacked(t *testing.T) {
	s := testSession(1)
	blob := s.Marshal()
	got, err := UnmarshalSession(blob)
	if err != nil {
		t.Fatal(err)
	}
	sessionsEqual(t, s, got)
	if v1 := V1Size(s); len(blob)*2 >= v1 {
		t.Errorf("packed v2 blob %d not under half of v1 %d", len(blob), v1)
	}
}

func TestV2RoundTripRaw(t *testing.T) {
	s := testSession(2)
	blob := s.MarshalMode(EncodeRaw)
	got, err := UnmarshalSession(blob)
	if err != nil {
		t.Fatal(err)
	}
	sessionsEqual(t, s, got)
}

func TestV2RawUnmarshalAliasesBlob(t *testing.T) {
	s := testSession(3)
	blob := s.MarshalMode(EncodeRaw)
	got, err := UnmarshalSession(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-copy contract: core payloads alias the blob.
	idx := bytes.Index(blob, s.Cores[0].Data[:16])
	if idx < 0 {
		t.Fatal("raw payload not found in blob")
	}
	blob[idx] ^= 0xff
	if got.Cores[0].Data[0] == s.Cores[0].Data[0] {
		t.Fatal("raw unmarshal copied the payload instead of aliasing")
	}
}

// v1GoldenPath holds testSession(4) in the legacy v1 layout, written by
// the v1 writer before it was retired; v1EmptyGoldenPath holds an empty
// session. Old dumps must keep decoding to the same sessions.
const (
	v1GoldenPath      = "testdata/session_v1.bin"
	v1EmptyGoldenPath = "testdata/session_v1_empty.bin"
)

// checkV1Golden decodes the v1 blob at path through both the slice and
// the stream decoder and compares it with want.
func checkV1Golden(t *testing.T, path string, want *Session) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != V1Size(want) {
		t.Fatalf("%s: V1Size %d != blob length %d", path, V1Size(want), len(blob))
	}
	got, err := UnmarshalSession(blob)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	sessionsEqual(t, want, got)
	got, err = DecodeSessionFrom(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	sessionsEqual(t, want, got)
}

func TestV1RoundTrip(t *testing.T) {
	checkV1Golden(t, v1GoldenPath, testSession(4))
}

func TestV1EmptySession(t *testing.T) {
	checkV1Golden(t, v1EmptyGoldenPath, &Session{})
	got, err := UnmarshalSession((&Session{}).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cores) != 0 {
		t.Fatalf("empty v2 session decoded as %+v", got)
	}
}

func TestEncodeToMatchesMarshal(t *testing.T) {
	s := testSession(5)
	for _, mode := range []EncodeMode{EncodePacked, EncodeRaw} {
		var buf bytes.Buffer
		if err := s.EncodeTo(&buf, mode); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), s.MarshalMode(mode)) {
			t.Fatalf("mode %d: EncodeTo and MarshalMode disagree", mode)
		}
	}
}

func TestDecodeSessionFromStream(t *testing.T) {
	s := testSession(6)
	v1, err := os.ReadFile(v1GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		want *Session
		blob []byte
	}{{s, s.Marshal()}, {s, s.MarshalMode(EncodeRaw)}, {testSession(4), v1}} {
		got, err := DecodeSessionFrom(bytes.NewReader(c.blob))
		if err != nil {
			t.Fatal(err)
		}
		sessionsEqual(t, c.want, got)
	}
	// One byte at a time: block framing must not depend on read sizes.
	got, err := DecodeSessionFrom(&oneByteReader{data: s.Marshal()})
	if err != nil {
		t.Fatal(err)
	}
	sessionsEqual(t, s, got)
}

// oneByteReader delivers one byte per Read call.
type oneByteReader struct{ data []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	p[0] = r.data[0]
	r.data = r.data[1:]
	return 1, nil
}

func TestV2GarbageOps(t *testing.T) {
	s := testSession(7)
	blob := s.Marshal()
	// Flip every byte one at a time; must never panic, and if it decodes
	// it must not over-allocate (implicitly checked by not OOMing).
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0xff
		_, _ = UnmarshalSession(mut)
	}
}

func TestV2SwitchOpsOutOfRange(t *testing.T) {
	s := &Session{ID: "x"}
	s.Switches.Records = []kernel.SwitchRecord{
		{TS: 1, CPU: 0, PID: 1, TID: 2, Op: kernel.SwitchOp(7)},
		{TS: 2, CPU: 1, PID: 1, TID: 3, Op: kernel.OpIn},
	}
	got, err := UnmarshalSession(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Switches.Records, s.Switches.Records) {
		t.Fatalf("wide-op switch log mismatch: %+v", got.Switches.Records)
	}
}
