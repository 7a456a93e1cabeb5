// Package durable implements the on-disk primitives of the AIQL durable
// storage subsystem: file-per-segment snapshots, a manifest naming the
// live segment set, and a write-ahead log covering the unsealed tail.
//
// The layout follows the paper's argument that attack-investigation
// queries become efficient only when monitoring data is stored in a
// layout purpose-built for its temporal/spatial locality instead of
// being replayed from flat logs: a sealed segment is written exactly
// once as an immutable file — columnar event blocks plus the segment's
// serialized posting indexes plus a checksummed footer carrying its
// min/max event ID — and loaded back without any re-chunking,
// re-interning, or re-indexing. The MANIFEST records, per edition, the
// live segment files together with the entity dictionary tables and the
// store's ID counters; MANIFEST.delta appends editions that carry only
// what changed; the WAL makes committed events durable between seals.
// Crash recovery is manifest load + delta fold + WAL replay of the tail.
//
// The three metadata files share one codec. A full manifest and a
// delta frame are the same Manifest value, written by one body encoder
// (the full one adds magic, version, the store's layout marker and a
// crc); WAL entity records reuse its process/file/connection row
// encoders. MANIFEST.delta and wal.log are the same frame log:
// [u32 length | u32 crc32 | payload] frames, each bounded only by the
// bytes the file holds. A short frame or a checksum mismatch is the torn
// tail a crash mid-append leaves, and is truncated away; a checksummed
// frame that does not decode, or does not apply, was never torn and is
// ErrCorrupt, with the file left as it was.
//
// There is one on-disk format: v2 segment files (segfile2.go) listed by
// version-3 manifests of one layout, (agent, hour) chunks over interned
// entities. A directory in any other format fails to open with
// ErrCorrupt; its data is regenerated, not converted. Every write the
// package issues goes through the seam in fs.go, where crash-point tests
// inject faults.
//
// The package speaks only sysmon types and bytes; the eventstore layers
// its LSM store on top (see eventstore.Open), and the background
// compactor rewrites merged segments through the same file format.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
)

// Well-known file names inside a durable store directory.
const (
	// ManifestName is the current manifest file.
	ManifestName = "MANIFEST"
	// tmpPrefix starts the name of a manifest edition staged for its
	// atomic rename; a crash can leave one behind.
	tmpPrefix = ".tmp-"
	// WALName is the write-ahead log of committed-but-unsealed events.
	WALName = "wal.log"
)

// SegmentFileName returns the canonical file name for a segment id.
func SegmentFileName(id uint64) string {
	return fmt.Sprintf("seg-%08d.seg", id)
}

// crcTable is the Castagnoli table used for every checksum in the
// subsystem (segment blocks, manifest payload, WAL records).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// byteWriter accumulates little-endian fields for one on-disk section.
type byteWriter struct{ buf []byte }

func (w *byteWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *byteWriter) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *byteWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *byteWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *byteWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *byteWriter) str(s string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// byteReader decodes little-endian fields; it records the first
// out-of-bounds read instead of panicking, so corrupt input surfaces as
// a descriptive error from err().
type byteReader struct {
	buf  []byte
	off  int
	fail bool
	// backing, when set, makes str return substrings of one shared
	// string instead of allocating per field — the entity-table-heavy
	// manifest decode drops tens of thousands of allocations this way,
	// at the cost of pinning the whole image for the tables' lifetime.
	backing string
}

// zeroCopyStrings converts the image to one string up front so every
// str call afterwards is allocation-free.
func (r *byteReader) zeroCopyStrings() { r.backing = string(r.buf) }

func (r *byteReader) take(n int) []byte {
	if r.fail || n < 0 || r.off+n > len(r.buf) {
		r.fail = true
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *byteReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *byteReader) i64() int64 { return int64(r.u64()) }

// count reads a table length. A length beyond the bytes the image
// holds fails the reader instead of sizing an allocation.
func (r *byteReader) count() int {
	n := int(r.u32())
	if n > len(r.buf) {
		r.fail = true
		return 0
	}
	return n
}

func (r *byteReader) str() string {
	n, sz := binary.Uvarint(r.buf[r.off:])
	// A length whose final varint byte is 0 is padded: writers emit
	// only the minimal encoding, so such a field is corrupt.
	if sz <= 0 || sz > 1 && r.buf[r.off+sz-1] == 0 {
		r.fail = true
		return ""
	}
	r.off += sz
	start := r.off
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	if r.backing != "" {
		return r.backing[start : start+int(n)]
	}
	return string(b)
}

func (r *byteReader) err(what string) error {
	if r.fail {
		return fmt.Errorf("durable: truncated %s", what)
	}
	return nil
}

// frameOverhead is a frame's header: u32 payload length, u32 crc32.
const frameOverhead = 8

// beginFrame reserves a frame header at the end of w and returns its
// offset; the payload is encoded after it, then endFrame fills it in.
func (w *byteWriter) beginFrame() int {
	start := len(w.buf)
	w.buf = append(w.buf, make([]byte, frameOverhead)...)
	return start
}

func (w *byteWriter) endFrame(start int) {
	payload := w.buf[start+frameOverhead:]
	binary.LittleEndian.PutUint32(w.buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[start+4:], checksum(payload))
}

// scanFrames reads the frame log at path (an absent file is empty) and
// passes each intact frame's payload to fn, in order. The scan stops at
// the torn tail: a frame longer than the bytes left, one whose checksum
// does not match, or one of zero length, which no writer emits but a
// zero-filled tail reads as. It returns the file's length and
// the end of the last intact frame. An error from fn stops the scan and
// is returned with the frame's offset.
func scanFrames(path string, fn func(payload []byte) error) (size, end int64, err error) {
	buf, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, 0, fmt.Errorf("durable: %w", err)
	}
	off := 0
	for off+frameOverhead <= len(buf) {
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		if n == 0 || n > len(buf)-off-frameOverhead {
			break
		}
		payload := buf[off+frameOverhead : off+frameOverhead+n]
		if checksum(payload) != binary.LittleEndian.Uint32(buf[off+4:]) {
			break
		}
		if err := fn(payload); err != nil {
			return 0, 0, fmt.Errorf("durable: %s frame at offset %d: %w", filepath.Base(path), off, err)
		}
		off += frameOverhead + n
	}
	return int64(len(buf)), int64(off), nil
}
