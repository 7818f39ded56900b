package ipt_test

import (
	"bytes"
	"testing"

	"exist/internal/hotbench"
	"exist/internal/ipt"
)

// seedStream is a real tracer output to start mutation from: the first
// 2 KiB of a hotbench session's core buffer (PSB+ groups, context-switch
// PIP/TSC/PGE groups, TNT runs and CYC+TIP pairs).
func seedStream(f *testing.F) []byte {
	f.Helper()
	data := hotbench.Session(hotbench.Program(1), 1, 200_000).Cores[0].Data
	if len(data) == 0 {
		f.Fatal("hotbench session produced no trace bytes")
	}
	return data[:min(len(data), 2<<10)]
}

// FuzzPackRoundtrip checks the packed stream codec: packing is lossless on
// any input, and unpacking arbitrary bytes against an arbitrary declared
// size returns exactly that many bytes or an error, never a panic. rawLen
// is 16 bits wide so one input's worst-case PAD expansion stays at 64 KiB.
//
// Run with: go test -run '^$' -fuzz FuzzPackRoundtrip ./internal/ipt
func FuzzPackRoundtrip(f *testing.F) {
	data := seedStream(f)
	f.Add(data, uint16(len(data)))
	f.Add(ipt.PackStream(nil, data), uint16(len(data)))
	f.Add(data[:len(data)/3], uint16(17))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x00, 0xff, 0xff, 0x03}, uint16(0xffff)) // long PAD run

	f.Fuzz(func(t *testing.T, data []byte, rawLen uint16) {
		packed := ipt.PackStream(nil, data)
		got, err := ipt.UnpackStream(nil, packed, len(data))
		if err != nil {
			t.Fatalf("unpacking a packed stream: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip changed %d bytes into %d", len(data), len(got))
		}
		out, err := ipt.UnpackStream(nil, data, int(rawLen))
		if err == nil && len(out) != int(rawLen) {
			t.Fatalf("UnpackStream accepted %d bytes for declared size %d", len(out), rawLen)
		}
	})
}

// FuzzParser walks arbitrary bytes the way the decoder does: sync to a
// PSB, parse packets until an error, resync, repeat. Every call must
// terminate without panicking, Pos must never move backwards, a parsed
// packet must consume bytes, and a resync after an error must move
// forward, so the walk ends within one step per input byte.
//
// Run with: go test -run '^$' -fuzz FuzzParser ./internal/ipt
func FuzzParser(f *testing.F) {
	data := seedStream(f)
	f.Add(data)
	f.Add(data[len(data)/2:]) // starts mid-stream, as a wrapped ring does
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x82, 0x02, 0x82}) // truncated PSB

	f.Fuzz(func(t *testing.T, data []byte) {
		p := ipt.NewParser(data)
		if !p.Sync() {
			if p.Pos() != len(data) {
				t.Fatalf("failed Sync left Pos at %d of %d", p.Pos(), len(data))
			}
			p = ipt.NewParser(data) // parse from the start anyway
		}
		for steps := 0; ; steps++ {
			if steps > len(data)+1 {
				t.Fatalf("parser made no progress after %d steps over %d bytes", steps, len(data))
			}
			before := p.Pos()
			_, ok, err := p.Next()
			if p.Pos() < before {
				t.Fatalf("Next moved Pos back from %d to %d", before, p.Pos())
			}
			if err != nil {
				if !p.Sync() {
					break
				}
				if p.Pos() <= before {
					t.Fatalf("resync after error at %d did not advance (Pos %d)", before, p.Pos())
				}
				continue
			}
			if !ok {
				break
			}
			if p.Pos() == before {
				t.Fatalf("packet at %d consumed no bytes", before)
			}
		}
	})
}
