package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"exist/internal/ipt"
	"exist/internal/kernel"
	"exist/internal/simtime"
	"exist/internal/wire"
)

// v2 session layout (magic "EXI2"): a sequence of self-framed blocks
//
//	[tag u8][len uvarint][body ...]
//
// terminated by an end block (tag 0, len 0). Unknown tags are skipped by
// their length, so readers tolerate future additions. Block bodies:
//
//	tag 1, header (first block):
//	    dictN uvarint, then dictN strings (uvarint len + bytes);
//	    ID/Node/Workload as uvarint dictionary indexes; pid zigzag;
//	    start zigzag; end as zigzag delta from start; scale as fixed
//	    f64 bits; core count uvarint.
//	tag 2, core (one per core, in order):
//	    core id as zigzag delta from the previous core id; flags u8
//	    (1 wrapped, 2 stopped); dropped bytes zigzag; encoding u8
//	    (0 raw, 1 packed); if packed, the unpacked length uvarint;
//	    payload is the rest of the body.
//	tag 3, switches:
//	    record count uvarint; op mode u8 (0 bitpacked, 1 raw); then
//	    four zigzag-delta columns (TS, CPU, PID, TID) and the op
//	    column, one bit per record when every op fits.
//
// The columnar split matters: within a column consecutive values are
// near each other (timestamps increase, CPU/PID/TID repeat), so the
// deltas stay in the 1-byte varint range. Core payloads default to the
// packed packet codec (ipt.PackStream) for wire volume; raw mode keeps
// the bytes verbatim for marshal-throughput-critical paths and decodes
// with zero copies.

// EncodeMode selects how v2 core payloads are carried.
type EncodeMode int

const (
	// EncodePacked runs core payloads through the packet codec —
	// smallest wire size, the default for uploads.
	EncodePacked EncodeMode = iota
	// EncodeRaw carries core payloads verbatim — fastest to encode and
	// to decode (payloads alias the blob on read).
	EncodeRaw
)

const (
	blockEnd      = 0
	blockHeader   = 1
	blockCore     = 2
	blockSwitches = 3
)

const (
	coreEncRaw    = 0
	coreEncPacked = 1
)

// Marshal serializes the session in the v2 format with packed core
// payloads. Use MarshalMode(EncodeRaw) when encode speed matters more
// than wire size.
func (s *Session) Marshal() []byte {
	return s.MarshalMode(EncodePacked)
}

// MarshalMode serializes the session in the v2 format with the given
// payload mode.
func (s *Session) MarshalMode(mode EncodeMode) []byte {
	// Raw mode never exceeds v1 by more than the small per-block framing;
	// packed mode is normally far below. Either way this cap makes the
	// common case a single allocation.
	capHint := V1Size(s) + 128 + 32*len(s.Cores) + 4*len(s.Switches.Records)
	out := make([]byte, 0, capHint)
	s.encodeV2(mode, func(part []byte) error {
		out = append(out, part...)
		return nil
	})
	return out
}

// EncodeTo streams the v2 encoding to w without building the whole
// session in memory: each block is written as soon as it is produced,
// and raw core payloads are written straight from the session's buffers.
func (s *Session) EncodeTo(w io.Writer, mode EncodeMode) error {
	return s.encodeV2(mode, func(part []byte) error {
		_, err := w.Write(part)
		return err
	})
}

// encodeV2 drives the block writer; emit is called with each wire
// fragment in order. Fragments may alias scratch buffers that are
// reused, so emit must consume (write/copy) before returning.
func (s *Session) encodeV2(mode EncodeMode, emit func([]byte) error) error {
	var scratch []byte // reused for every block body except core payloads

	emitBlock := func(tag byte, body ...[]byte) error {
		n := 0
		for _, b := range body {
			n += len(b)
		}
		frame := [11]byte{tag}
		hdr := wire.AppendUvarint(frame[:1], uint64(n))
		if err := emit(hdr); err != nil {
			return err
		}
		for _, b := range body {
			if err := emit(b); err != nil {
				return err
			}
		}
		return nil
	}

	if err := emit(wire.AppendU32(scratch[:0], sessionMagicV2)); err != nil {
		return err
	}

	// Header block with the string dictionary. ID/Node/Workload often
	// share text across sessions of one workload; within one session the
	// dictionary mostly removes duplicate strings and fixed-width length
	// prefixes.
	scratch = scratch[:0]
	dict := make([]string, 0, 3)
	idx := func(str string) uint64 {
		for i, d := range dict {
			if d == str {
				return uint64(i)
			}
		}
		dict = append(dict, str)
		return uint64(len(dict) - 1)
	}
	iID, iNode, iWl := idx(s.ID), idx(s.Node), idx(s.Workload)
	scratch = wire.AppendUvarint(scratch, uint64(len(dict)))
	for _, d := range dict {
		scratch = wire.AppendUvarint(scratch, uint64(len(d)))
		scratch = append(scratch, d...)
	}
	scratch = wire.AppendUvarint(scratch, iID)
	scratch = wire.AppendUvarint(scratch, iNode)
	scratch = wire.AppendUvarint(scratch, iWl)
	scratch = wire.AppendZigzag(scratch, int64(s.PID))
	scratch = wire.AppendZigzag(scratch, int64(s.Start))
	scratch = wire.AppendZigzag(scratch, int64(s.End)-int64(s.Start))
	scratch = wire.AppendU64(scratch, math.Float64bits(s.Scale))
	scratch = wire.AppendUvarint(scratch, uint64(len(s.Cores)))
	if err := emitBlock(blockHeader, scratch); err != nil {
		return err
	}

	// Core blocks. In packed mode the codec output lives in a scratch
	// buffer reused across cores, so streaming holds at most one core's
	// packed payload at a time.
	var packBuf []byte
	prevCore := int64(0)
	for i := range s.Cores {
		c := &s.Cores[i]
		scratch = wire.AppendZigzag(scratch[:0], int64(c.Core)-prevCore)
		prevCore = int64(c.Core)
		flags := byte(0)
		if c.Wrapped {
			flags |= 1
		}
		if c.Stopped {
			flags |= 2
		}
		scratch = append(scratch, flags)
		scratch = wire.AppendZigzag(scratch, c.DroppedBytes)
		payload := c.Data
		if mode == EncodePacked {
			packBuf = ipt.PackStream(packBuf[:0], c.Data)
			scratch = append(scratch, coreEncPacked)
			scratch = wire.AppendUvarint(scratch, uint64(len(c.Data)))
			payload = packBuf
		} else {
			scratch = append(scratch, coreEncRaw)
		}
		if err := emitBlock(blockCore, scratch, payload); err != nil {
			return err
		}
	}

	// Switch log, columnar.
	recs := s.Switches.Records
	if len(recs) > 0 {
		scratch = wire.AppendUvarint(scratch[:0], uint64(len(recs)))
		opMode := byte(0)
		for _, rec := range recs {
			if rec.Op > 1 {
				opMode = 1
				break
			}
		}
		scratch = append(scratch, opMode)
		prev := int64(0)
		for _, rec := range recs {
			scratch = wire.AppendZigzag(scratch, int64(rec.TS)-prev)
			prev = int64(rec.TS)
		}
		prev = 0
		for _, rec := range recs {
			scratch = wire.AppendZigzag(scratch, int64(rec.CPU)-prev)
			prev = int64(rec.CPU)
		}
		prev = 0
		for _, rec := range recs {
			scratch = wire.AppendZigzag(scratch, int64(rec.PID)-prev)
			prev = int64(rec.PID)
		}
		prev = 0
		for _, rec := range recs {
			scratch = wire.AppendZigzag(scratch, int64(rec.TID)-prev)
			prev = int64(rec.TID)
		}
		if opMode == 0 {
			var acc byte
			for i, rec := range recs {
				acc |= byte(rec.Op) << (i & 7)
				if i&7 == 7 {
					scratch = append(scratch, acc)
					acc = 0
				}
			}
			if len(recs)&7 != 0 {
				scratch = append(scratch, acc)
			}
		} else {
			for _, rec := range recs {
				scratch = append(scratch, byte(rec.Op))
			}
		}
		if err := emitBlock(blockSwitches, scratch); err != nil {
			return err
		}
	}

	return emitBlock(blockEnd)
}

// unmarshalV2 parses a v2 blob. Raw core payloads alias data.
func unmarshalV2(data []byte) (*Session, error) {
	src := v2Blocks{blob: *wire.NewReader(data)}
	src.blob.U32() // magic, already checked
	return readV2(&src)
}

// v2Blocks yields the framed blocks of a v2 session from an in-memory
// blob (bodies alias it) or, when br is set, from a stream. A concrete
// type rather than an interface, so a blob read allocates nothing for it.
type v2Blocks struct {
	blob wire.Reader
	br   *bufio.Reader
}

// next reads a block's tag and length.
func (b *v2Blocks) next() (tag byte, n uint64, err error) {
	if b.br == nil {
		tag, n = b.blob.U8(), b.blob.Uvarint()
		return tag, n, b.blob.Err()
	}
	if tag, err = b.br.ReadByte(); err != nil {
		return 0, 0, fmt.Errorf("trace: reading v2 block tag: %w", err)
	}
	n, err = readStreamUvarint(b.br)
	return tag, n, err
}

// body reads the n-byte payload of the block next just framed.
func (b *v2Blocks) body(n uint64) ([]byte, error) {
	if b.br == nil {
		body := b.blob.Bytes(int(n))
		return body, b.blob.Err()
	}
	return readStreamBody(b.br, n)
}

// readV2 applies the v2 block grammar to the blocks after the magic: the
// header comes first and only once, core blocks never outnumber the
// declared core count, the end block has length 0, and unknown tags are
// skipped by their length.
func readV2(src *v2Blocks) (*Session, error) {
	s := &Session{}
	sawHeader := false
	for {
		tag, n, err := src.next()
		if err != nil {
			return nil, err
		}
		if tag == blockEnd {
			if n != 0 {
				return nil, fmt.Errorf("trace: v2 end block with length %d", n)
			}
			if !sawHeader {
				return nil, fmt.Errorf("trace: v2 session missing header block")
			}
			return s, nil
		}
		body, err := src.body(n)
		if err != nil {
			return nil, err
		}
		switch tag {
		case blockHeader:
			if sawHeader {
				return nil, fmt.Errorf("trace: duplicate v2 header block")
			}
			sawHeader = true
			if err := parseV2Header(s, body); err != nil {
				return nil, err
			}
		case blockCore:
			if !sawHeader {
				return nil, fmt.Errorf("trace: v2 core block before header")
			}
			if len(s.Cores) >= cap(s.Cores) {
				return nil, fmt.Errorf("trace: more core blocks than declared %d", cap(s.Cores))
			}
			prev := int64(0)
			if len(s.Cores) > 0 {
				prev = int64(s.Cores[len(s.Cores)-1].Core)
			}
			ct, err := parseV2Core(body, prev)
			if err != nil {
				return nil, err
			}
			s.Cores = append(s.Cores, ct)
		case blockSwitches:
			log, err := parseV2Switches(body)
			if err != nil {
				return nil, err
			}
			s.Switches = *log
		}
	}
}

// parseV2Header fills the session identity fields and reserves (but does
// not populate) the core slice, capping the reservation by what the
// remaining input could plausibly hold.
func parseV2Header(s *Session, body []byte) error {
	r := wire.NewReader(body)
	dictN := r.Uvarint()
	if r.Err() == nil && dictN > uint64(r.Len()) {
		return fmt.Errorf("trace: v2 dictionary count %d exceeds remaining %d", dictN, r.Len())
	}
	if err := r.Err(); err != nil {
		return err
	}
	dict := make([]string, 0, dictN)
	for i := uint64(0); i < dictN; i++ {
		n := r.Uvarint()
		if r.Err() == nil && n > uint64(r.Len()) {
			return fmt.Errorf("trace: v2 dictionary string %d exceeds remaining %d", n, r.Len())
		}
		dict = append(dict, r.String(int(n)))
		if err := r.Err(); err != nil {
			return err
		}
	}
	get := func(idx uint64) (string, error) {
		if idx >= uint64(len(dict)) {
			return "", fmt.Errorf("trace: v2 string index %d beyond dictionary %d", idx, len(dict))
		}
		return dict[idx], nil
	}
	var err error
	if s.ID, err = get(r.Uvarint()); err != nil {
		return err
	}
	if s.Node, err = get(r.Uvarint()); err != nil {
		return err
	}
	if s.Workload, err = get(r.Uvarint()); err != nil {
		return err
	}
	s.PID = int32(r.Zigzag())
	start := r.Zigzag()
	s.Start = simtime.Time(start)
	s.End = simtime.Time(start + r.Zigzag())
	s.Scale = math.Float64frombits(r.U64())
	nCores := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if nCores > 1<<16 {
		return fmt.Errorf("trace: implausible core count %d", nCores)
	}
	s.Cores = make([]CoreTrace, 0, nCores)
	return nil
}

// parseV2Core decodes one core block. Raw payloads alias body.
func parseV2Core(body []byte, prevCore int64) (CoreTrace, error) {
	r := wire.NewReader(body)
	var ct CoreTrace
	ct.Core = int(prevCore + r.Zigzag())
	flags := r.U8()
	ct.Wrapped = flags&1 != 0
	ct.Stopped = flags&2 != 0
	ct.DroppedBytes = r.Zigzag()
	enc := r.U8()
	switch enc {
	case coreEncRaw:
		ct.Data = r.Bytes(r.Len())
	case coreEncPacked:
		rawLen := r.Uvarint()
		if err := r.Err(); err != nil {
			return ct, err
		}
		if rawLen > ipt.MaxUnpackedCoreBytes {
			return ct, fmt.Errorf("trace: v2 core declares %d unpacked bytes", rawLen)
		}
		packed := r.Bytes(r.Len())
		// Start from a cap derived from the actual input, not the
		// declared length — a lying length field cannot force a huge
		// allocation up front; growth is bounded by the codec's exact
		// output check.
		capHint := int(rawLen)
		if limit := 32 * (len(packed) + 64); capHint > limit {
			capHint = limit
		}
		data, err := ipt.UnpackStream(make([]byte, 0, capHint), packed, int(rawLen))
		if err != nil {
			return ct, err
		}
		ct.Data = data
	default:
		return ct, fmt.Errorf("trace: unknown v2 core encoding %d", enc)
	}
	return ct, r.Err()
}

// parseV2Switches decodes the columnar switch log.
func parseV2Switches(body []byte) (*kernel.SwitchLog, error) {
	r := wire.NewReader(body)
	count := r.Uvarint()
	opMode := r.U8()
	if r.Err() == nil && count > uint64(r.Len()) {
		// Each record takes at least four column bytes plus op bits, so
		// the count can never exceed the remaining body length.
		return nil, fmt.Errorf("trace: v2 switch count %d exceeds remaining %d", count, r.Len())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	recs := make([]kernel.SwitchRecord, count)
	prev := int64(0)
	for i := range recs {
		prev += r.Zigzag()
		recs[i].TS = simtime.Time(prev)
	}
	prev = 0
	for i := range recs {
		prev += r.Zigzag()
		recs[i].CPU = int32(prev)
	}
	prev = 0
	for i := range recs {
		prev += r.Zigzag()
		recs[i].PID = int32(prev)
	}
	prev = 0
	for i := range recs {
		prev += r.Zigzag()
		recs[i].TID = int32(prev)
	}
	switch opMode {
	case 0:
		var acc byte
		for i := range recs {
			if i&7 == 0 {
				acc = r.U8()
			}
			recs[i].Op = kernel.SwitchOp(acc >> (i & 7) & 1)
		}
	case 1:
		for i := range recs {
			recs[i].Op = kernel.SwitchOp(r.U8())
		}
	default:
		return nil, fmt.Errorf("trace: unknown v2 switch op mode %d", opMode)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &kernel.SwitchLog{Records: recs}, nil
}

// DecodeSessionFrom reads one serialized session from r, block by block
// for v2 streams (nothing forces the whole blob into one contiguous
// read); legacy v1 streams are slurped whole since v1 has no framing.
func DecodeSessionFrom(rd io.Reader) (*Session, error) {
	br := bufio.NewReader(rd)
	var magicBuf [4]byte
	if _, err := io.ReadFull(br, magicBuf[:]); err != nil {
		return nil, fmt.Errorf("trace: reading session magic: %w", err)
	}
	magic := wire.U32(magicBuf[:])
	switch magic {
	case sessionMagicV1:
		rest, err := io.ReadAll(br)
		if err != nil {
			return nil, err
		}
		return unmarshalV1(append(magicBuf[:], rest...))
	case sessionMagicV2:
		return readV2(&v2Blocks{br: br})
	default:
		return nil, fmt.Errorf("trace: bad session magic %#x", magic)
	}
}

// readStreamUvarint reads a varint byte-by-byte from the stream.
func readStreamUvarint(br *bufio.Reader) (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b, err := br.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("trace: reading v2 block length: %w", err)
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("trace: v2 block length varint overflows")
}

// readStreamBody reads n bytes, growing incrementally so a lying length
// field only ever costs as much memory as the stream actually delivers.
func readStreamBody(br *bufio.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	if n <= chunk {
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, fmt.Errorf("trace: reading v2 block body: %w", err)
		}
		return body, nil
	}
	body := make([]byte, 0, chunk)
	remaining := n
	var buf [chunk]byte
	for remaining > 0 {
		step := uint64(chunk)
		if remaining < step {
			step = remaining
		}
		if _, err := io.ReadFull(br, buf[:step]); err != nil {
			return nil, fmt.Errorf("trace: reading v2 block body: %w", err)
		}
		body = append(body, buf[:step]...)
		remaining -= step
	}
	return body, nil
}
