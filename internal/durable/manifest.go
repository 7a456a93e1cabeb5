package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"github.com/aiql/aiql/internal/sysmon"
)

const (
	manifestMagic = "AQMF"
	// manifestVersion is the only manifest version there is: 3, the
	// first whose segment refs carry a format byte.
	manifestVersion = 3
)

// ChunkDuration is the time width of the store's chunks. Every full
// manifest records the one layout the event store reads — (agent, hour)
// chunks over interned entities — and a manifest naming any other is
// corrupt: chunk routing decides which chain an event belongs to, and
// WAL entity records assume interned IDs.
const ChunkDuration = time.Hour

// SegmentFormatV2 is the format byte of every segment ref: the
// block-compressed columnar, mmap-friendly v2 segment file. A ref
// recording any other value is corrupt.
const SegmentFormatV2 = 2

// ErrNoManifest reports that the directory holds no manifest — a fresh
// (or never-checkpointed) durable store.
var ErrNoManifest = errors.New("durable: no manifest")

// SegmentRef names one live segment file in a manifest edition. The
// ref carries every bound a cold segment needs, so the store defers
// opening the file until a scan first touches it.
type SegmentRef struct {
	ID         uint64
	AgentID    uint32
	Bucket     int64
	File       string
	Events     int
	MinTS      int64
	MaxTS      int64
	MinEventID uint64
	MaxEventID uint64
}

// Manifest is one edition of the durable store's metadata: the ID
// counters a reopened store resumes from, the entity dictionary rows,
// and the live segment set (in scan order: chunks in insertion order,
// each chunk's chain oldest first).
//
// The same struct is a full edition, written as MANIFEST and replaced
// atomically via rename, and an incremental one, appended as a
// MANIFEST.delta frame: a delta carries the full counters but only the
// dictionary rows and segment refs added since the edition below it.
//
// The encoding is the subsystem's manual little-endian format, not a
// reflective one: the dictionary tables hold tens of thousands of
// entity structs, and reflective decoding of those would eat a large
// slice of the fast-load budget that file-per-segment persistence
// exists to win.
type Manifest struct {
	Edition     uint64
	NextSegID   uint64
	NextEventID uint64
	NextSeq     map[uint32]uint64
	Procs       []sysmon.Process
	Files       []sysmon.File
	Conns       []sysmon.Netconn
	Segments    []SegmentRef
}

// The row encoders shared by manifest editions and WAL entity records.

func putProc(w *byteWriter, p *sysmon.Process) {
	w.u32(p.PID)
	w.str(p.ExeName)
	w.str(p.Path)
	w.str(p.User)
	w.str(p.CmdLine)
}

func getProc(r *byteReader, p *sysmon.Process) {
	p.PID = r.u32()
	p.ExeName = r.str()
	p.Path = r.str()
	p.User = r.str()
	p.CmdLine = r.str()
}

func putFile(w *byteWriter, f *sysmon.File) {
	w.str(f.Path)
	w.str(f.Owner)
}

func getFile(r *byteReader, f *sysmon.File) {
	f.Path = r.str()
	f.Owner = r.str()
}

func putConn(w *byteWriter, c *sysmon.Netconn) {
	w.str(c.SrcIP)
	w.u16(c.SrcPort)
	w.str(c.DstIP)
	w.u16(c.DstPort)
	w.str(c.Protocol)
}

func getConn(r *byteReader, c *sysmon.Netconn) {
	c.SrcIP = r.str()
	c.SrcPort = r.u16()
	c.DstIP = r.str()
	c.DstPort = r.u16()
	c.Protocol = r.str()
}

// encodeEdition appends an edition's body: counters, sequence table,
// the layout marker when full (a delta frame stacks on a base that
// carries it), dictionary rows and segment refs.
func encodeEdition(w *byteWriter, m *Manifest, full bool) {
	w.u64(m.Edition)
	w.u64(m.NextSegID)
	w.u64(m.NextEventID)
	w.u32(uint32(len(m.NextSeq)))
	for agent, seq := range m.NextSeq {
		w.u32(agent)
		w.u64(seq)
	}
	if full {
		// partitioned, chunk width, interned entities
		w.u8(1)
		w.i64(int64(ChunkDuration))
		w.u8(1)
	}
	w.u32(uint32(len(m.Procs)))
	for i := range m.Procs {
		putProc(w, &m.Procs[i])
	}
	w.u32(uint32(len(m.Files)))
	for i := range m.Files {
		putFile(w, &m.Files[i])
	}
	w.u32(uint32(len(m.Conns)))
	for i := range m.Conns {
		putConn(w, &m.Conns[i])
	}
	w.u32(uint32(len(m.Segments)))
	for i := range m.Segments {
		ref := &m.Segments[i]
		w.u64(ref.ID)
		w.u32(ref.AgentID)
		w.i64(ref.Bucket)
		w.str(ref.File)
		w.u32(uint32(ref.Events))
		w.i64(ref.MinTS)
		w.i64(ref.MaxTS)
		w.u64(ref.MinEventID)
		w.u64(ref.MaxEventID)
		w.u8(SegmentFormatV2)
	}
}

// decodeEdition reads what encodeEdition wrote. Empty tables decode
// as nil, so a round trip is value-identical. Every failure wraps
// ErrCorrupt.
func decodeEdition(r *byteReader, full bool) (*Manifest, error) {
	m := &Manifest{Edition: r.u64(), NextSegID: r.u64(), NextEventID: r.u64()}
	if n := r.count(); n > 0 {
		m.NextSeq = make(map[uint32]uint64, n)
		for range n {
			agent := r.u32()
			m.NextSeq[agent] = r.u64()
		}
	}
	if full {
		partitioned, chunk, interned := r.u8(), time.Duration(r.i64()), r.u8()
		if !r.fail && (partitioned != 1 || chunk != ChunkDuration || interned != 1) {
			return nil, corruptf("manifest layout (partitioned=%d chunk=%v interned=%d), want (1, %v, 1)",
				partitioned, chunk, interned, ChunkDuration)
		}
	}
	if n := r.count(); n > 0 {
		m.Procs = make([]sysmon.Process, n)
		for i := range m.Procs {
			getProc(r, &m.Procs[i])
		}
	}
	if n := r.count(); n > 0 {
		m.Files = make([]sysmon.File, n)
		for i := range m.Files {
			getFile(r, &m.Files[i])
		}
	}
	if n := r.count(); n > 0 {
		m.Conns = make([]sysmon.Netconn, n)
		for i := range m.Conns {
			getConn(r, &m.Conns[i])
		}
	}
	if n := r.count(); n > 0 {
		m.Segments = make([]SegmentRef, n)
		for i := range m.Segments {
			ref := &m.Segments[i]
			ref.ID = r.u64()
			ref.AgentID = r.u32()
			ref.Bucket = r.i64()
			ref.File = r.str()
			ref.Events = int(r.u32())
			ref.MinTS = r.i64()
			ref.MaxTS = r.i64()
			ref.MinEventID = r.u64()
			ref.MaxEventID = r.u64()
			if format := r.u8(); !r.fail && format != SegmentFormatV2 {
				return nil, corruptf("segment %s has format %d, want %d (regenerate the data)", ref.File, format, SegmentFormatV2)
			}
		}
	}
	if r.fail {
		return nil, corruptf("truncated manifest")
	}
	return m, nil
}

// EncodeManifest serializes a full manifest edition: magic, version,
// body (with the layout marker), trailing crc32 of the body.
func EncodeManifest(m *Manifest) ([]byte, error) {
	w := &byteWriter{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, manifestMagic...)
	w.u32(manifestVersion)
	encodeEdition(w, m, true)
	w.u32(checksum(w.buf[8:]))
	return w.buf, nil
}

// DecodeManifest parses and validates a full manifest image. Every
// failure — bad magic, a version other than 3, a checksum mismatch, a
// table running past the image, a layout or segment format other than
// the one the store writes — is an ErrCorrupt error.
func DecodeManifest(buf []byte) (*Manifest, error) {
	if len(buf) < 12 || string(buf[:4]) != manifestMagic {
		return nil, corruptf("not a manifest (bad magic)")
	}
	if ver := binary.LittleEndian.Uint32(buf[4:]); ver != manifestVersion {
		return nil, corruptf("unsupported manifest version %d (regenerate the data)", ver)
	}
	if len(buf) < 12+4 {
		return nil, corruptf("truncated manifest")
	}
	body := buf[:len(buf)-4]
	if binary.LittleEndian.Uint32(buf[len(body):]) != checksum(body[8:]) {
		return nil, corruptf("manifest checksum mismatch")
	}
	r := &byteReader{buf: body, off: 8}
	r.zeroCopyStrings()
	return decodeEdition(r, true)
}

// WriteManifest atomically installs a manifest edition in dir: the
// image is staged in a temporary file, fsynced, renamed over MANIFEST,
// and the directory fsynced so the rename itself is durable. It returns
// the edition's byte length. A failure at any step leaves the previous
// edition in place.
func WriteManifest(dir string, m *Manifest) (int64, error) {
	buf, err := EncodeManifest(m)
	if err != nil {
		return 0, err
	}
	tmp, err := createTemp(SiteManifestCreate, dir, tmpPrefix+"*")
	if err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	err = writeAll(SiteManifestWrite, tmp, buf)
	if err == nil {
		err = syncFile(SiteManifestSync, tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = rename(SiteManifestRename, tmp.Name(), filepath.Join(dir, ManifestName))
	}
	if err != nil {
		remove(SiteManifestRemove, tmp.Name())
		return 0, fmt.Errorf("durable: write manifest in %s: %w", dir, err)
	}
	return int64(len(buf)), syncDir(dir)
}

// ReadManifest loads the directory's current manifest; ErrNoManifest if
// none exists.
func ReadManifest(dir string) (*Manifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNoManifest
	}
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	return DecodeManifest(buf)
}
