package hotbench

import (
	"bytes"
	"testing"

	"exist/internal/trace"
)

// marshalFixture is the shared session the wire-format benchmarks run
// on: the decode-hot fixture (4M cycle budget, real tracer output).
func marshalFixture(b *testing.B) *trace.Session {
	b.Helper()
	prog := Program(1)
	return Session(prog, 1, 4_000_000)
}

// BenchmarkMarshalHot measures session serialization in both v2 payload
// modes. SetBytes is the v1-equivalent payload in every variant so the
// MB/s figures compare like for like.
func BenchmarkMarshalHot(b *testing.B) {
	s := marshalFixture(b)
	v1Bytes := int64(trace.V1Size(s))
	b.Run("v2raw", func(b *testing.B) {
		b.SetBytes(v1Bytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.MarshalMode(trace.EncodeRaw)
		}
	})
	b.Run("v2packed", func(b *testing.B) {
		b.SetBytes(v1Bytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.Marshal()
		}
	})
}

// BenchmarkUnmarshalHot measures session parsing for both v2 payload
// modes.
func BenchmarkUnmarshalHot(b *testing.B) {
	s := marshalFixture(b)
	v1Bytes := int64(trace.V1Size(s))
	for _, v := range []struct {
		name string
		blob []byte
	}{
		{"v2raw", s.MarshalMode(trace.EncodeRaw)},
		{"v2packed", s.Marshal()},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(v1Bytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := trace.UnmarshalSession(v.blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMarshalFixtureCompression pins the headline size win on the real
// fixture: packed v2 must be at least 3x smaller than v1.
func TestMarshalFixtureCompression(t *testing.T) {
	prog := Program(1)
	s := Session(prog, 1, 4_000_000)
	v1 := trace.V1Size(s)
	v2 := s.Marshal()
	if got, err := trace.UnmarshalSession(v2); err != nil {
		t.Fatal(err)
	} else {
		for i := range s.Cores {
			if !bytes.Equal(got.Cores[i].Data, s.Cores[i].Data) {
				t.Fatalf("core %d roundtrip mismatch", i)
			}
		}
	}
	ratio := float64(v1) / float64(len(v2))
	if ratio < 3 {
		t.Fatalf("compression ratio %.2fx < 3x (v1 %d, v2 %d)", ratio, v1, len(v2))
	}
}
