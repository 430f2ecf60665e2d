package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/graph"
)

// Snapshot format v1. The file is a 128-byte header followed by the
// CSR's five arrays, each 8-byte aligned, in their in-memory layout
// (little-endian int32s):
//
//	offset  size  field
//	0       8     magic "RSPQSNP1"
//	8       4     version (u32, = 1)
//	12      4     flags (bit0 acyclic-known, bit1 acyclic-true)
//	16      8     n — vertex count (u64)
//	24      8     m — edge count (u64)
//	32      8     epoch — graph mutation epoch at checkpoint (u64)
//	40      8     lastSeq — WAL sequence the snapshot includes (u64)
//	48      4     L — alphabet size (u32)
//	52      4     reserved (zero)
//	56      40    section byte lengths, 5 × u64:
//	              labels (L), outBucket ((n·L+1)·4), outTo (m·4),
//	              inBucket ((n·L+1)·4), inFrom (m·4)
//	96      8     payloadLen — total padded section bytes (u64)
//	104     4     payloadCRC — CRC32-C of the padded payload (u32)
//	108     16    reserved (zero)
//	124     4     headerCRC — CRC32-C of bytes [0,124) (u32)
//	128     …     sections, each padded to a multiple of 8 bytes
//
// Every multi-byte integer is little-endian. The section order and the
// 8-byte padding mean each int32 array starts 4-byte (in fact 8-byte)
// aligned in the mapped file, so the decoder's casts are zero-copy.
// The golden test (format_test.go) pins this layout byte-for-byte.
const (
	snapshotMagic = "RSPQSNP1"

	// SnapshotVersion is the current on-disk snapshot format version.
	SnapshotVersion = 1

	headerSize = 128

	flagAcyclicKnown = 1 << 0
	flagAcyclicTrue  = 1 << 1
)

// Sentinel decode errors. Everything DecodeSnapshot returns wraps one
// of these, so callers can distinguish "not a snapshot / future
// format" from "a snapshot this version understands, but damaged".
var (
	// ErrNotSnapshot reports a file that does not start with the
	// snapshot magic.
	ErrNotSnapshot = errors.New("persist: not a snapshot file")
	// ErrVersion reports a snapshot written by an unknown (newer)
	// format version.
	ErrVersion = errors.New("persist: unsupported snapshot version")
	// ErrCorrupt reports a structurally damaged snapshot or WAL:
	// truncation, checksum mismatch, or inconsistent geometry.
	ErrCorrupt = errors.New("persist: corrupt data")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SnapshotMeta is the graph state a snapshot carries beyond the CSR
// arrays: the mutation epoch the checkpoint was taken at (restored on
// warm boot so epochs keep advancing exactly as if the process never
// died), the last WAL sequence number the snapshot already includes
// (replay skips records at or below it), and two header flags that
// once carried an acyclicity verdict. DB writes them unset and ignores
// them on read — no query dispatch reads acyclicity — so snapshots that
// set them still boot; the codec keeps them so v1 stays byte-exact.
type SnapshotMeta struct {
	Epoch        uint64
	LastSeq      uint64
	AcyclicKnown bool
	Acyclic      bool
}

// pad8 returns the padding needed to round n up to a multiple of 8.
func pad8(n int) int { return (8 - n%8) % 8 }

var zeroPad [8]byte

// EncodeSnapshot writes parts+meta as a v1 snapshot. One pass: the
// section bytes are the CSR arrays reinterpreted in place (no staging
// buffer); only the CRC requires touching the payload before writing,
// and it reads the same reinterpreted slices.
func EncodeSnapshot(w io.Writer, parts graph.CSRParts, meta SnapshotMeta) error {
	L := len(parts.Labels)
	sections := [5][]byte{
		parts.Labels,
		int32Bytes(parts.OutBucket),
		int32Bytes(parts.OutTo),
		int32Bytes(parts.InBucket),
		int32Bytes(parts.InFrom),
	}
	var payloadLen uint64
	payloadCRC := uint32(0)
	for _, s := range sections {
		payloadCRC = crc32.Update(payloadCRC, castagnoli, s)
		payloadCRC = crc32.Update(payloadCRC, castagnoli, zeroPad[:pad8(len(s))])
		payloadLen += uint64(len(s) + pad8(len(s)))
	}

	var h [headerSize]byte
	copy(h[0:8], snapshotMagic)
	binary.LittleEndian.PutUint32(h[8:], SnapshotVersion)
	flags := uint32(0)
	if meta.AcyclicKnown {
		flags |= flagAcyclicKnown
		if meta.Acyclic {
			flags |= flagAcyclicTrue
		}
	}
	binary.LittleEndian.PutUint32(h[12:], flags)
	binary.LittleEndian.PutUint64(h[16:], uint64(parts.NumVertices))
	binary.LittleEndian.PutUint64(h[24:], uint64(parts.NumEdges))
	binary.LittleEndian.PutUint64(h[32:], meta.Epoch)
	binary.LittleEndian.PutUint64(h[40:], meta.LastSeq)
	binary.LittleEndian.PutUint32(h[48:], uint32(L))
	for i, s := range sections {
		binary.LittleEndian.PutUint64(h[56+8*i:], uint64(len(s)))
	}
	binary.LittleEndian.PutUint64(h[96:], payloadLen)
	binary.LittleEndian.PutUint32(h[104:], payloadCRC)
	binary.LittleEndian.PutUint32(h[124:], crc32.Checksum(h[:124], castagnoli))

	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	for _, s := range sections {
		if len(s) > 0 {
			if _, err := w.Write(s); err != nil {
				return err
			}
		}
		if p := pad8(len(s)); p > 0 {
			if _, err := w.Write(zeroPad[:p]); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeSnapshot validates data as a v1 snapshot and returns the CSR
// arrays (zero-copy views into data on a little-endian host — they
// inherit data's lifetime) and the checkpoint metadata. Every size is
// cross-checked against the actual input length before any slicing, so
// hostile headers cannot cause over-allocation or out-of-bounds reads;
// array *contents* are validated separately by graph.CSRFromParts (see
// OpenSnapshot).
func DecodeSnapshot(data []byte) (graph.CSRParts, SnapshotMeta, error) {
	var none graph.CSRParts
	var meta SnapshotMeta
	if len(data) < headerSize {
		return none, meta, fmt.Errorf("%w: %d bytes, need a %d-byte header", ErrCorrupt, len(data), headerSize)
	}
	h := data[:headerSize]
	if string(h[0:8]) != snapshotMagic {
		return none, meta, ErrNotSnapshot
	}
	if v := binary.LittleEndian.Uint32(h[8:]); v != SnapshotVersion {
		return none, meta, fmt.Errorf("%w: %d (this build reads %d)", ErrVersion, v, SnapshotVersion)
	}
	if got, want := crc32.Checksum(h[:124], castagnoli), binary.LittleEndian.Uint32(h[124:]); got != want {
		return none, meta, fmt.Errorf("%w: header checksum %08x, want %08x", ErrCorrupt, got, want)
	}

	flags := binary.LittleEndian.Uint32(h[12:])
	n64 := binary.LittleEndian.Uint64(h[16:])
	m64 := binary.LittleEndian.Uint64(h[24:])
	meta.Epoch = binary.LittleEndian.Uint64(h[32:])
	meta.LastSeq = binary.LittleEndian.Uint64(h[40:])
	L64 := binary.LittleEndian.Uint32(h[48:])
	meta.AcyclicKnown = flags&flagAcyclicKnown != 0
	meta.Acyclic = flags&flagAcyclicTrue != 0

	// Geometry checks: everything the section lengths are derived from
	// must be internally consistent AND match the input size, before a
	// single byte of payload is touched.
	if n64 > math.MaxInt32 || m64 > math.MaxInt32 || L64 > 256 {
		return none, meta, fmt.Errorf("%w: implausible geometry n=%d m=%d L=%d", ErrCorrupt, n64, m64, L64)
	}
	n, m, L := int(n64), int(m64), int(L64)
	nL := int64(n) * int64(L)
	if nL > math.MaxInt32 {
		return none, meta, fmt.Errorf("%w: n·L=%d overflows bucket index", ErrCorrupt, nL)
	}
	wantLens := [5]uint64{
		uint64(L),
		uint64(nL+1) * 4,
		uint64(m) * 4,
		uint64(nL+1) * 4,
		uint64(m) * 4,
	}
	var wantPayload uint64
	for i, want := range wantLens {
		got := binary.LittleEndian.Uint64(h[56+8*i:])
		if got != want {
			return none, meta, fmt.Errorf("%w: section %d length %d, geometry implies %d", ErrCorrupt, i, got, want)
		}
		wantPayload += want + uint64(pad8(int(want&7)))
	}
	if got := binary.LittleEndian.Uint64(h[96:]); got != wantPayload {
		return none, meta, fmt.Errorf("%w: payload length %d, geometry implies %d", ErrCorrupt, got, wantPayload)
	}
	if uint64(len(data)-headerSize) != wantPayload {
		return none, meta, fmt.Errorf("%w: %d payload bytes on disk, header says %d", ErrCorrupt, len(data)-headerSize, wantPayload)
	}
	payload := data[headerSize:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(h[104:]); got != want {
		return none, meta, fmt.Errorf("%w: payload checksum %08x, want %08x", ErrCorrupt, got, want)
	}

	var raw [5][]byte
	off := 0
	for i, ln := range wantLens {
		raw[i] = payload[off : off+int(ln)]
		off += int(ln) + pad8(int(ln))
	}
	parts := graph.CSRParts{
		NumVertices: n,
		NumEdges:    m,
		Labels:      raw[0],
		OutBucket:   castInt32s(raw[1]),
		OutTo:       castInt32s(raw[2]),
		InBucket:    castInt32s(raw[3]),
		InFrom:      castInt32s(raw[4]),
	}
	return parts, meta, nil
}

// OpenSnapshot decodes data and runs the graph layer's full content
// validation, returning a ready CSR. This is the one entry point
// recovery (and the fuzzers) use: no input, however crafted, may get a
// CSR past it with broken invariants.
func OpenSnapshot(data []byte) (*graph.CSR, SnapshotMeta, error) {
	parts, meta, err := DecodeSnapshot(data)
	if err != nil {
		return nil, meta, err
	}
	c, err := graph.CSRFromParts(parts)
	if err != nil {
		return nil, meta, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return c, meta, nil
}
