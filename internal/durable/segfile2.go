package durable

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"unsafe"

	"github.com/aiql/aiql/internal/sysmon"
)

// v2 segment file layout (all integers little-endian):
//
//	header:    magic "AQS2" | version u32 | segID u64 | agent u32 |
//	           bucket i64 | count u32 | flags u8 | compression u8 (1;
//	           block codecs are recorded per block)
//	columns:   NumCols per-attribute column vectors, each split into
//	           blocks of blockLen (1024) events. Blocks are encoded
//	           independently: raw (width-aligned in the file so mapped
//	           bytes cast straight to typed slices), lz (see lz.go), or
//	           zigzag-varint delta for the monotone ID/Seq columns. The
//	           StartTS and scan-key columns are ALWAYS raw: they are the
//	           scan hot path and read zero-copy from the mapping.
//	indexes:   (flags&segFlagIndexed) the serialized subject/object
//	           posting lists, lz-compressed when that wins.
//	directory: blockLen u32 | nBlocks u32 | per column nBlocks x
//	           {off u64, encLen u32, rawLen u32, codec u8, crc u32} |
//	           per-column min/max u64 | op histogram; the whole
//	           directory is crc'd via the footer.
//	footer:    fixed 82 bytes — dirOff u64 | dirLen u32 | dirCrc u32 |
//	           index {off u64, encLen u32, rawLen u32, codec u8,
//	           crc u32} | minEventID u64 | maxEventID u64 | minTS i64 |
//	           maxTS i64 | count u32 | flags u8 | crc u32 | "AQ2E"
//
// Opening a v2 segment reads only header, footer, and directory; column
// blocks stay on disk (or in the page cache, via mmap) until a scan
// touches them. Every block carries its own crc, so corruption is
// detected lazily at first decode with a typed ErrCorrupt error — a
// flipped byte can never panic the reader or leak bad rows.

const (
	seg2Magic       = "AQS2"
	seg2MagicFooter = "AQ2E"
	seg2Version     = 2
	seg2HeaderSize  = 4 + 4 + 8 + 4 + 8 + 4 + 1 + 1
	seg2FooterSize  = 16 + 21 + 32 + 5 + 4 + 4
	seg2BlockLen    = 1024
)

// Column identifiers of the v2 format, in file order.
const (
	ColID = iota
	ColAgent
	ColSubject
	ColOp
	ColObjType
	ColObject
	ColStartTS
	ColEndTS
	ColAmount
	ColSeq
	// ColKey is the packed (agent | op | objtype) scan key consumed by
	// the batch/bitmap scan loop; redundant with its source columns but
	// stored raw so the hot loop reads the mapping directly.
	ColKey
	NumCols
)

// colWidth is the fixed byte width of each column's values.
var colWidth = [NumCols]int{8, 4, 4, 2, 1, 4, 8, 8, 8, 8, 8}

// ScanKey packs agent, operation, and object type into the fused scan
// key stored in ColKey. The eventstore's batch scan compiles filters
// into masked compares against exactly this packing.
func ScanKey(agent uint32, op uint16, objType uint8) uint64 {
	return uint64(agent)<<32 | uint64(op)<<16 | uint64(objType)<<8
}

// blockMeta is one block directory entry.
type blockMeta struct {
	off    uint64
	encLen uint32
	rawLen uint32
	codec  uint8
	crc    uint32
}

// encodeColBlock appends the raw fixed-width encoding of events
// [lo,hi) for one column to dst.
func encodeColBlock(dst []byte, events []sysmon.Event, col, lo, hi int) []byte {
	switch col {
	case ColID:
		for i := lo; i < hi; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, events[i].ID)
		}
	case ColAgent:
		for i := lo; i < hi; i++ {
			dst = binary.LittleEndian.AppendUint32(dst, events[i].AgentID)
		}
	case ColSubject:
		for i := lo; i < hi; i++ {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(events[i].Subject))
		}
	case ColOp:
		for i := lo; i < hi; i++ {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(events[i].Op))
		}
	case ColObjType:
		for i := lo; i < hi; i++ {
			dst = append(dst, uint8(events[i].ObjType))
		}
	case ColObject:
		for i := lo; i < hi; i++ {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(events[i].Object))
		}
	case ColStartTS:
		for i := lo; i < hi; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(events[i].StartTS))
		}
	case ColEndTS:
		for i := lo; i < hi; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(events[i].EndTS))
		}
	case ColAmount:
		for i := lo; i < hi; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, events[i].Amount)
		}
	case ColSeq:
		for i := lo; i < hi; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, events[i].Seq)
		}
	case ColKey:
		for i := lo; i < hi; i++ {
			e := &events[i]
			dst = binary.LittleEndian.AppendUint64(dst, ScanKey(e.AgentID, uint16(e.Op), uint8(e.ObjType)))
		}
	}
	return dst
}

// colValue extracts one column's value of one event as u64 (i64 columns
// keep their bit pattern) for min/max bookkeeping.
func colValue(e *sysmon.Event, col int) uint64 {
	switch col {
	case ColID:
		return e.ID
	case ColAgent:
		return uint64(e.AgentID)
	case ColSubject:
		return uint64(e.Subject)
	case ColOp:
		return uint64(e.Op)
	case ColObjType:
		return uint64(e.ObjType)
	case ColObject:
		return uint64(e.Object)
	case ColStartTS:
		return uint64(e.StartTS)
	case ColEndTS:
		return uint64(e.EndTS)
	case ColAmount:
		return e.Amount
	case ColSeq:
		return e.Seq
	case ColKey:
		return ScanKey(e.AgentID, uint16(e.Op), uint8(e.ObjType))
	}
	return 0
}

// colSigned reports whether a column compares as int64 for min/max.
func colSigned(col int) bool { return col == ColStartTS || col == ColEndTS }

// EncodeSegmentV2 serializes the segment into the v2 block-compressed
// columnar layout. Each block takes the smallest of its raw, delta and
// lz encodings, except StartTS and the scan key, which stay raw.
func EncodeSegmentV2(d *SegmentData) []byte {
	d.fillEventIDBounds()
	n := len(d.Events)
	nBlocks := (n + seg2BlockLen - 1) / seg2BlockLen
	w := &byteWriter{buf: make([]byte, 0, seg2HeaderSize+n*64+4096)}
	w.buf = append(w.buf, seg2Magic...)
	w.u32(seg2Version)
	w.u64(d.ID)
	w.u32(d.AgentID)
	w.i64(d.Bucket)
	w.u32(uint32(n))
	var flags uint8
	if d.Indexed {
		flags |= segFlagIndexed
	}
	w.u8(flags)
	w.u8(1) // compression: per-block codecs

	var blocks [NumCols][]blockMeta
	var colMin, colMax [NumCols]uint64
	raw := make([]byte, 0, seg2BlockLen*8)
	for col := 0; col < NumCols; col++ {
		blocks[col] = make([]blockMeta, 0, nBlocks)
		for b := 0; b < nBlocks; b++ {
			lo := b * seg2BlockLen
			hi := min(lo+seg2BlockLen, n)
			raw = encodeColBlock(raw[:0], d.Events, col, lo, hi)
			enc, codec := raw, CodecRaw
			// StartTS and the scan key stay raw unconditionally: they
			// are read zero-copy on every scan.
			if col != ColStartTS && col != ColKey {
				if col == ColID || col == ColSeq {
					if e := deltaEncode(raw); e != nil {
						enc, codec = e, CodecDelta
					}
				}
				if codec == CodecRaw {
					if e := lzCompress(raw); e != nil {
						enc, codec = e, CodecLZ
					}
				}
			}
			if codec == CodecRaw {
				// width-align raw blocks in the file so mapped bytes
				// cast directly to typed slices
				for len(w.buf)%colWidth[col] != 0 {
					w.buf = append(w.buf, 0)
				}
			}
			blocks[col] = append(blocks[col], blockMeta{
				off:    uint64(len(w.buf)),
				encLen: uint32(len(enc)),
				rawLen: uint32(len(raw)),
				codec:  codec,
				crc:    checksum(enc),
			})
			w.buf = append(w.buf, enc...)
		}
		if n > 0 {
			mn, mx := colValue(&d.Events[0], col), colValue(&d.Events[0], col)
			for i := 1; i < n; i++ {
				v := colValue(&d.Events[i], col)
				if colSigned(col) {
					if int64(v) < int64(mn) {
						mn = v
					}
					if int64(v) > int64(mx) {
						mx = v
					}
				} else {
					if v < mn {
						mn = v
					}
					if v > mx {
						mx = v
					}
				}
			}
			colMin[col], colMax[col] = mn, mx
		}
	}

	var idx blockMeta
	if d.Indexed {
		iw := &byteWriter{buf: make([]byte, 0, 16+8*n)}
		writePostings(iw, d.PostingSub)
		writePostings(iw, d.PostingObj)
		enc, codec := iw.buf, CodecRaw
		if e := lzCompress(iw.buf); e != nil {
			enc, codec = e, CodecLZ
		}
		idx = blockMeta{
			off:    uint64(len(w.buf)),
			encLen: uint32(len(enc)),
			rawLen: uint32(len(iw.buf)),
			codec:  codec,
			crc:    checksum(enc),
		}
		w.buf = append(w.buf, enc...)
	}

	dirOff := len(w.buf)
	w.u32(seg2BlockLen)
	w.u32(uint32(nBlocks))
	for col := 0; col < NumCols; col++ {
		for _, m := range blocks[col] {
			w.u64(m.off)
			w.u32(m.encLen)
			w.u32(m.rawLen)
			w.u8(m.codec)
			w.u32(m.crc)
		}
	}
	for col := 0; col < NumCols; col++ {
		w.u64(colMin[col])
		w.u64(colMax[col])
	}
	w.u32(uint32(len(d.OpCount)))
	for _, c := range d.OpCount {
		w.u64(uint64(c))
	}
	dirLen := len(w.buf) - dirOff
	dirCrc := checksum(w.buf[dirOff:])

	footStart := len(w.buf)
	w.u64(uint64(dirOff))
	w.u32(uint32(dirLen))
	w.u32(dirCrc)
	w.u64(idx.off)
	w.u32(idx.encLen)
	w.u32(idx.rawLen)
	w.u8(idx.codec)
	w.u32(idx.crc)
	w.u64(d.MinEventID)
	w.u64(d.MaxEventID)
	var minTS, maxTS int64
	if n > 0 {
		minTS, maxTS = d.Events[0].StartTS, d.Events[n-1].StartTS
	}
	w.i64(minTS)
	w.i64(maxTS)
	w.u32(uint32(n))
	w.u8(flags)
	w.u32(checksum(w.buf[footStart:]))
	w.buf = append(w.buf, seg2MagicFooter...)
	return w.buf
}

// WriteSegmentFileV2 writes the v2 segment image to path (fsynced),
// returning the file's byte size. The file is written once and never
// modified; callers rename or delete whole files only.
func WriteSegmentFileV2(path string, d *SegmentData) (int64, error) {
	buf := EncodeSegmentV2(d)
	f, err := openFile(SiteSegmentCreate, path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	if err := writeAll(SiteSegmentWrite, f, buf); err != nil {
		f.Close()
		return 0, fmt.Errorf("durable: write segment %s: %w", path, err)
	}
	if err := syncFile(SiteSegmentSync, f); err != nil {
		f.Close()
		return 0, fmt.Errorf("durable: sync segment %s: %w", path, err)
	}
	return int64(len(buf)), f.Close()
}

// SegmentReader is the lazy accessor over one opened v2 segment file.
// Opening parses header, directory, and footer only; column blocks are
// decoded on demand by Block/Column/MaterializeEvents. Slices returned
// zero-copy alias the file mapping and are valid only while the reader
// is reachable.
type SegmentReader struct {
	ID         uint64
	AgentID    uint32
	Bucket     int64
	Count      int
	Indexed    bool
	MinEventID uint64
	MaxEventID uint64
	MinTS      int64
	MaxTS      int64
	BlockLen   int
	// OpCount is the persisted operation histogram (nil when the
	// segment was written unindexed).
	OpCount []int
	// ColMin/ColMax are per-column value bounds (bit patterns for the
	// signed timestamp columns).
	ColMin [NumCols]uint64
	ColMax [NumCols]uint64

	h         *fileHandle
	blocks    [NumCols][]blockMeta
	idx       blockMeta
	rawVerify [NumCols]colVerify
}

// colVerify memoizes the one-time checksum pass over a column's raw
// blocks, so the zero-copy read path pays crc once per column instead
// of once per access.
type colVerify struct {
	once sync.Once
	err  error
}

// OpenSegmentReader opens a v2 segment file for lazy access.
func OpenSegmentReader(path string) (*SegmentReader, error) {
	h, err := openHandle(path)
	if err != nil {
		return nil, err
	}
	rd, err := newSegmentReader(h)
	if err != nil {
		return nil, fmt.Errorf("durable: segment file %s: %w", path, err)
	}
	return rd, nil
}

func newSegmentReader(h *fileHandle) (*SegmentReader, error) {
	size := h.size()
	if size < seg2HeaderSize+seg2FooterSize {
		return nil, corruptf("file too small (%d bytes)", size)
	}
	foot, _, err := h.readAt(size-seg2FooterSize, seg2FooterSize)
	if err != nil {
		return nil, err
	}
	if string(foot[seg2FooterSize-4:]) != seg2MagicFooter {
		return nil, corruptf("bad footer magic")
	}
	crcOff := seg2FooterSize - 8
	if binary.LittleEndian.Uint32(foot[crcOff:]) != checksum(foot[:crcOff]) {
		return nil, corruptf("footer checksum mismatch")
	}
	fr := &byteReader{buf: foot}
	dirOff := fr.u64()
	dirLen := fr.u32()
	dirCrc := fr.u32()
	idx := blockMeta{off: fr.u64(), encLen: fr.u32(), rawLen: fr.u32(), codec: fr.u8(), crc: fr.u32()}
	minEventID, maxEventID := fr.u64(), fr.u64()
	minTS, maxTS := fr.i64(), fr.i64()
	footCount := int(fr.u32())
	footFlags := fr.u8()

	head, _, err := h.readAt(0, seg2HeaderSize)
	if err != nil {
		return nil, err
	}
	hr := &byteReader{buf: head}
	if string(hr.take(4)) != seg2Magic {
		return nil, corruptf("bad magic")
	}
	if v := hr.u32(); v != seg2Version {
		return nil, corruptf("unsupported segment version %d", v)
	}
	rd := &SegmentReader{
		ID:         hr.u64(),
		AgentID:    hr.u32(),
		Bucket:     hr.i64(),
		Count:      int(hr.u32()),
		MinEventID: minEventID,
		MaxEventID: maxEventID,
		MinTS:      minTS,
		MaxTS:      maxTS,
		h:          h,
		idx:        idx,
	}
	flags := hr.u8()
	rd.Indexed = flags&segFlagIndexed != 0
	if footCount != rd.Count || footFlags != flags {
		return nil, corruptf("segment %d: header/footer disagree (count %d vs %d)", rd.ID, rd.Count, footCount)
	}

	if int64(dirOff)+int64(dirLen) > size-seg2FooterSize || dirLen < 8 {
		return nil, corruptf("segment %d: block directory out of bounds", rd.ID)
	}
	dir, _, err := h.readAt(int64(dirOff), int(dirLen))
	if err != nil {
		return nil, err
	}
	if checksum(dir) != dirCrc {
		return nil, corruptf("segment %d: block directory checksum mismatch", rd.ID)
	}
	dr := &byteReader{buf: dir}
	rd.BlockLen = int(dr.u32())
	nBlocks := int(dr.u32())
	if rd.BlockLen <= 0 || rd.BlockLen > 1<<16 {
		return nil, corruptf("segment %d: bad block length %d", rd.ID, rd.BlockLen)
	}
	if want := (rd.Count + rd.BlockLen - 1) / rd.BlockLen; nBlocks != want {
		return nil, corruptf("segment %d: block count %d, want %d", rd.ID, nBlocks, want)
	}
	for col := 0; col < NumCols; col++ {
		ms := make([]blockMeta, nBlocks)
		for b := 0; b < nBlocks; b++ {
			m := blockMeta{off: dr.u64(), encLen: dr.u32(), rawLen: dr.u32(), codec: dr.u8(), crc: dr.u32()}
			events := min(rd.BlockLen, rd.Count-b*rd.BlockLen)
			if int(m.rawLen) != events*colWidth[col] {
				return nil, corruptf("segment %d: column %d block %d raw length %d, want %d", rd.ID, col, b, m.rawLen, events*colWidth[col])
			}
			if m.off < seg2HeaderSize || m.off+uint64(m.encLen) > dirOff {
				return nil, corruptf("segment %d: column %d block %d out of bounds", rd.ID, col, b)
			}
			if m.codec > CodecDelta {
				return nil, corruptf("segment %d: column %d block %d unknown codec %d", rd.ID, col, b, m.codec)
			}
			if m.codec == CodecRaw && m.encLen != m.rawLen {
				return nil, corruptf("segment %d: column %d block %d raw block with encoded length %d", rd.ID, col, b, m.encLen)
			}
			ms[b] = m
		}
		rd.blocks[col] = ms
	}
	for col := 0; col < NumCols; col++ {
		rd.ColMin[col] = dr.u64()
		rd.ColMax[col] = dr.u64()
	}
	opN := int(dr.u32())
	if dr.fail || opN > 1024 {
		return nil, corruptf("segment %d: corrupt op histogram", rd.ID)
	}
	if opN > 0 {
		rd.OpCount = make([]int, opN)
		for i := range rd.OpCount {
			rd.OpCount[i] = int(dr.u64())
		}
	}
	if err := dr.err("segment block directory"); err != nil {
		return nil, err
	}
	if rd.Indexed {
		if rd.idx.off < seg2HeaderSize || rd.idx.off+uint64(rd.idx.encLen) > dirOff || rd.idx.codec > CodecLZ {
			return nil, corruptf("segment %d: index section out of bounds", rd.ID)
		}
	}
	return rd, nil
}

// NumBlocks returns the per-column block count.
func (rd *SegmentReader) NumBlocks() int { return len(rd.blocks[ColID]) }

// Size returns the file size in bytes.
func (rd *SegmentReader) Size() int64 { return rd.h.size() }

// MappedBytes returns the bytes of file mapped into the address space
// (zero under the read-at fallback).
func (rd *SegmentReader) MappedBytes() int64 {
	if rd.h.mapped() {
		return rd.h.size()
	}
	return 0
}

// verifyRawCol runs the one-time checksum pass over a column's raw
// blocks (compressed blocks verify at decode time instead).
func (rd *SegmentReader) verifyRawCol(col int) error {
	v := &rd.rawVerify[col]
	v.once.Do(func() {
		for b := range rd.blocks[col] {
			m := rd.blocks[col][b]
			if m.codec != CodecRaw {
				continue
			}
			data, _, err := rd.h.readAt(int64(m.off), int(m.encLen))
			if err != nil {
				v.err = err
				return
			}
			if checksum(data) != m.crc {
				v.err = corruptf("segment %d: column %d block %d checksum mismatch", rd.ID, col, b)
				return
			}
		}
	})
	return v.err
}

// Block returns the decoded bytes of one block of one column. dst is
// optional scratch with capacity for a decompressed block; zeroCopy
// reports that the result aliases the file mapping (raw block on the
// mmap path) and must not be mutated.
func (rd *SegmentReader) Block(col, blk int, dst []byte) (data []byte, zeroCopy bool, err error) {
	if col < 0 || col >= NumCols || blk < 0 || blk >= len(rd.blocks[col]) {
		return nil, false, corruptf("segment %d: block (%d,%d) out of range", rd.ID, col, blk)
	}
	m := rd.blocks[col][blk]
	enc, zero, err := rd.h.readAt(int64(m.off), int(m.encLen))
	if err != nil {
		return nil, false, err
	}
	switch m.codec {
	case CodecRaw:
		if zero {
			if err := rd.verifyRawCol(col); err != nil {
				return nil, false, err
			}
			return enc, true, nil
		}
		if checksum(enc) != m.crc {
			return nil, false, corruptf("segment %d: column %d block %d checksum mismatch", rd.ID, col, blk)
		}
		return enc, false, nil
	case CodecLZ, CodecDelta:
		if checksum(enc) != m.crc {
			return nil, false, corruptf("segment %d: column %d block %d checksum mismatch", rd.ID, col, blk)
		}
		if cap(dst) < int(m.rawLen) {
			dst = make([]byte, 0, m.rawLen)
		}
		var out []byte
		if m.codec == CodecLZ {
			out, err = lzDecompress(dst[:0], enc, int(m.rawLen))
		} else {
			out, err = deltaDecode(dst[:0], enc, int(m.rawLen))
		}
		if err != nil {
			return nil, false, fmt.Errorf("segment %d: column %d block %d: %w", rd.ID, col, blk, err)
		}
		return out, false, nil
	}
	return nil, false, corruptf("segment %d: column %d block %d unknown codec %d", rd.ID, col, blk, m.codec)
}

// Column returns one whole column as a contiguous byte slice. Only
// valid for columns every block of which is stored raw and adjacent in
// the file — the writer guarantees this for ColStartTS and ColKey. On
// the mmap path the result is zero-copy.
func (rd *SegmentReader) Column(col int) ([]byte, error) {
	if col < 0 || col >= NumCols {
		return nil, corruptf("segment %d: column %d out of range", rd.ID, col)
	}
	ms := rd.blocks[col]
	if len(ms) == 0 {
		return nil, nil
	}
	total := 0
	for b, m := range ms {
		if m.codec != CodecRaw {
			return nil, fmt.Errorf("durable: segment %d: column %d is block-compressed, no contiguous view", rd.ID, col)
		}
		if b > 0 && m.off != ms[b-1].off+uint64(ms[b-1].encLen) {
			return nil, fmt.Errorf("durable: segment %d: column %d blocks not contiguous", rd.ID, col)
		}
		total += int(m.encLen)
	}
	data, zero, err := rd.h.readAt(int64(ms[0].off), total)
	if err != nil {
		return nil, err
	}
	if zero {
		if err := rd.verifyRawCol(col); err != nil {
			return nil, err
		}
		return data, nil
	}
	p := 0
	for b, m := range ms {
		if checksum(data[p:p+int(m.encLen)]) != m.crc {
			return nil, corruptf("segment %d: column %d block %d checksum mismatch", rd.ID, col, b)
		}
		p += int(m.encLen)
	}
	return data, nil
}

// scatterCol writes one decoded column block into the AoS event slice.
func scatterCol(evs []sysmon.Event, col int, data []byte) {
	switch col {
	case ColID:
		for i := range evs {
			evs[i].ID = binary.LittleEndian.Uint64(data[i*8:])
		}
	case ColAgent:
		for i := range evs {
			evs[i].AgentID = binary.LittleEndian.Uint32(data[i*4:])
		}
	case ColSubject:
		for i := range evs {
			evs[i].Subject = sysmon.EntityID(binary.LittleEndian.Uint32(data[i*4:]))
		}
	case ColOp:
		for i := range evs {
			evs[i].Op = sysmon.Operation(binary.LittleEndian.Uint16(data[i*2:]))
		}
	case ColObjType:
		for i := range evs {
			evs[i].ObjType = sysmon.EntityType(data[i])
		}
	case ColObject:
		for i := range evs {
			evs[i].Object = sysmon.EntityID(binary.LittleEndian.Uint32(data[i*4:]))
		}
	case ColStartTS:
		for i := range evs {
			evs[i].StartTS = int64(binary.LittleEndian.Uint64(data[i*8:]))
		}
	case ColEndTS:
		for i := range evs {
			evs[i].EndTS = int64(binary.LittleEndian.Uint64(data[i*8:]))
		}
	case ColAmount:
		for i := range evs {
			evs[i].Amount = binary.LittleEndian.Uint64(data[i*8:])
		}
	case ColSeq:
		for i := range evs {
			evs[i].Seq = binary.LittleEndian.Uint64(data[i*8:])
		}
	}
}

// MaterializeEvents decodes the full segment into an AoS event slice,
// for callers that need whole events (compaction merges, posting-path
// scans).
func (rd *SegmentReader) MaterializeEvents() ([]sysmon.Event, error) {
	evs := make([]sysmon.Event, rd.Count)
	scratch := make([]byte, 0, rd.BlockLen*8)
	for col := 0; col < NumCols; col++ {
		if col == ColKey {
			continue // derived from agent/op/objtype
		}
		base := 0
		for b := range rd.blocks[col] {
			data, _, err := rd.Block(col, b, scratch)
			if err != nil {
				return nil, err
			}
			n := int(rd.blocks[col][b].rawLen) / colWidth[col]
			scatterCol(evs[base:base+n], col, data)
			base += n
		}
	}
	return evs, nil
}

// ReadIndexes decodes the posting-list section. Returns nils without
// error when the segment was written unindexed.
func (rd *SegmentReader) ReadIndexes() (sub, obj map[sysmon.EntityID][]int32, err error) {
	if !rd.Indexed {
		return nil, nil, nil
	}
	enc, _, err := rd.h.readAt(int64(rd.idx.off), int(rd.idx.encLen))
	if err != nil {
		return nil, nil, err
	}
	if checksum(enc) != rd.idx.crc {
		return nil, nil, corruptf("segment %d: index checksum mismatch", rd.ID)
	}
	raw := enc
	if rd.idx.codec == CodecLZ {
		raw, err = lzDecompress(make([]byte, 0, rd.idx.rawLen), enc, int(rd.idx.rawLen))
		if err != nil {
			return nil, nil, fmt.Errorf("segment %d: index section: %w", rd.ID, err)
		}
	}
	r := &byteReader{buf: raw}
	if sub, err = readPostings(r, rd.Count); err != nil {
		return nil, nil, corruptf("segment %d: %v", rd.ID, err)
	}
	if obj, err = readPostings(r, rd.Count); err != nil {
		return nil, nil, corruptf("segment %d: %v", rd.ID, err)
	}
	return sub, obj, nil
}

// AsUint64s reinterprets b as a []uint64 without copying. Fails (ok
// false) when b is misaligned or not a whole number of values; callers
// fall back to a decoded copy.
func AsUint64s(b []byte) ([]uint64, bool) {
	if len(b)%8 != 0 {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint64)(p), len(b)/8), true
}

// AsInt64s reinterprets b as a []int64 without copying; same contract
// as AsUint64s.
func AsInt64s(b []byte) ([]int64, bool) {
	if len(b)%8 != 0 {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*int64)(p), len(b)/8), true
}
