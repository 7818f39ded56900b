package decode

import (
	"testing"

	"exist/internal/hotbench"
	"exist/internal/trace"
)

// FuzzDecode throws arbitrary bytes at the decoder as the single core
// buffer of a session, plain or marked as a wrapped ring. A corrupt
// buffer must never panic, must stay under the resync cap, and can never
// consume more bytes than it holds.
//
// Run with: go test -fuzz=FuzzDecode ./internal/decode
// The seeds start from a real tracer stream (the head of a hotbench
// session) so mutation begins inside well-formed packet sequences.
func FuzzDecode(f *testing.F) {
	prog := hotbench.Program(1)
	head := hotbench.Session(prog, 1, 200_000).Cores[0].Data
	head = head[:min(len(head), 512)]
	f.Add(head, false)
	f.Add(head, true)
	f.Add([]byte{}, false)

	f.Fuzz(func(t *testing.T, data []byte, wrapped bool) {
		s := &trace.Session{Cores: []trace.CoreTrace{{Data: data, Wrapped: wrapped}}}
		res := Decode(s, prog)
		if res.Resyncs > maxResyncs {
			t.Fatalf("resyncs = %d over cap %d", res.Resyncs, maxResyncs)
		}
		if res.BytesDecoded > int64(len(data)) {
			t.Fatalf("decoded %d bytes from a %d-byte buffer", res.BytesDecoded, len(data))
		}
	})
}
