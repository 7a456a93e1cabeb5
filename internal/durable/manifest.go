package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"github.com/aiql/aiql/internal/sysmon"
)

const (
	manifestMagic = "AQMF"
	// manifestVersion is the only manifest version there is: 3, the
	// first whose segment refs carry a Format byte.
	manifestVersion = 3
)

// SegmentFormatV2 is the Format of every segment ref: the
// block-compressed columnar, mmap-friendly v2 segment file.
const SegmentFormatV2 = 2

// ErrNoManifest reports that the directory holds no manifest — a fresh
// (or never-checkpointed) durable store.
var ErrNoManifest = errors.New("durable: no manifest")

// SegmentRef names one live segment file in a manifest edition.
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
	// Format is the segment file's format version, always
	// SegmentFormatV2; a reopening store refuses any other value. The
	// ref carries every bound a cold segment needs, so the store defers
	// opening the file until a scan first touches it.
	Format uint8
}

// Manifest is one edition of the durable store's metadata: the live
// segment set (in scan order: chunks in insertion order, each chunk's
// chain oldest first), the entity dictionary tables, and the ID
// counters a reopened store resumes from. A manifest is immutable once
// written; editions replace each other atomically via rename.
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

	// The store layout the directory was written under, checked on
	// reopen: chunk routing (partitioning, chunk width) decides which
	// chain an event belongs to, and dedup decides how WAL entity deltas
	// were produced. The event store writes and accepts one value of
	// each (partitioned, 1-hour chunks, dedup); any other is corrupt.
	Partitioning    bool
	ChunkDurationNS int64
	Dedup           bool
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// EncodeManifest serializes a manifest edition: magic, version,
// payload, trailing crc32.
func EncodeManifest(m *Manifest) ([]byte, error) {
	w := &byteWriter{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, manifestMagic...)
	w.u32(manifestVersion)

	payloadStart := len(w.buf)
	w.u64(m.Edition)
	w.u64(m.NextSegID)
	w.u64(m.NextEventID)
	w.u32(uint32(len(m.NextSeq)))
	for agent, seq := range m.NextSeq {
		w.u32(agent)
		w.u64(seq)
	}
	w.u8(boolByte(m.Partitioning))
	w.i64(m.ChunkDurationNS)
	w.u8(boolByte(m.Dedup))

	w.u32(uint32(len(m.Procs)))
	for i := range m.Procs {
		p := &m.Procs[i]
		w.u32(p.PID)
		w.str(p.ExeName)
		w.str(p.Path)
		w.str(p.User)
		w.str(p.CmdLine)
	}
	w.u32(uint32(len(m.Files)))
	for i := range m.Files {
		f := &m.Files[i]
		w.str(f.Path)
		w.str(f.Owner)
	}
	w.u32(uint32(len(m.Conns)))
	for i := range m.Conns {
		c := &m.Conns[i]
		w.str(c.SrcIP)
		w.u16(c.SrcPort)
		w.str(c.DstIP)
		w.u16(c.DstPort)
		w.str(c.Protocol)
	}

	w.u32(uint32(len(m.Segments)))
	for i := range m.Segments {
		r := &m.Segments[i]
		w.u64(r.ID)
		w.u32(r.AgentID)
		w.i64(r.Bucket)
		w.str(r.File)
		w.u32(uint32(r.Events))
		w.i64(r.MinTS)
		w.i64(r.MaxTS)
		w.u64(r.MinEventID)
		w.u64(r.MaxEventID)
		w.u8(r.Format)
	}
	w.u32(checksum(w.buf[payloadStart:]))
	return w.buf, nil
}

// DecodeManifest parses and validates a manifest image. Every failure
// — bad magic, a version other than 3, a checksum mismatch, a table
// running past the image — is an ErrCorrupt error.
func DecodeManifest(buf []byte) (*Manifest, error) {
	if len(buf) < 12 || string(buf[:4]) != manifestMagic {
		return nil, corruptf("not a manifest (bad magic)")
	}
	r := &byteReader{buf: buf, off: 4}
	r.zeroCopyStrings()
	if ver := r.u32(); ver != manifestVersion {
		return nil, corruptf("unsupported manifest version %d (regenerate the data)", ver)
	}
	if len(buf) < 12+4 {
		return nil, corruptf("truncated manifest")
	}
	payload := buf[8 : len(buf)-4]
	if binary.LittleEndian.Uint32(buf[len(buf)-4:]) != checksum(payload) {
		return nil, corruptf("manifest checksum mismatch")
	}

	m := &Manifest{}
	m.Edition = r.u64()
	m.NextSegID = r.u64()
	m.NextEventID = r.u64()
	nSeq := int(r.u32())
	if r.fail || nSeq > len(buf) {
		return nil, corruptf("manifest sequence table out of bounds")
	}
	m.NextSeq = make(map[uint32]uint64, nSeq)
	for i := 0; i < nSeq; i++ {
		agent := r.u32()
		m.NextSeq[agent] = r.u64()
	}
	m.Partitioning = r.u8() != 0
	m.ChunkDurationNS = r.i64()
	m.Dedup = r.u8() != 0

	nProcs := int(r.u32())
	if r.fail || nProcs > len(buf) {
		return nil, corruptf("manifest process table out of bounds")
	}
	m.Procs = make([]sysmon.Process, nProcs)
	for i := range m.Procs {
		p := &m.Procs[i]
		p.PID = r.u32()
		p.ExeName = r.str()
		p.Path = r.str()
		p.User = r.str()
		p.CmdLine = r.str()
	}
	nFiles := int(r.u32())
	if r.fail || nFiles > len(buf) {
		return nil, corruptf("manifest file table out of bounds")
	}
	m.Files = make([]sysmon.File, nFiles)
	for i := range m.Files {
		f := &m.Files[i]
		f.Path = r.str()
		f.Owner = r.str()
	}
	nConns := int(r.u32())
	if r.fail || nConns > len(buf) {
		return nil, corruptf("manifest connection table out of bounds")
	}
	m.Conns = make([]sysmon.Netconn, nConns)
	for i := range m.Conns {
		c := &m.Conns[i]
		c.SrcIP = r.str()
		c.SrcPort = r.u16()
		c.DstIP = r.str()
		c.DstPort = r.u16()
		c.Protocol = r.str()
	}

	nSegs := int(r.u32())
	if r.fail || nSegs > len(buf) {
		return nil, corruptf("manifest segment table out of bounds")
	}
	m.Segments = make([]SegmentRef, nSegs)
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
		ref.Format = r.u8()
	}
	if r.fail {
		return nil, corruptf("truncated manifest")
	}
	// normalize empties to nil so a round trip is value-identical
	if len(m.Segments) == 0 {
		m.Segments = nil
	}
	if len(m.NextSeq) == 0 {
		m.NextSeq = nil
	}
	if len(m.Procs) == 0 {
		m.Procs = nil
	}
	if len(m.Files) == 0 {
		m.Files = nil
	}
	if len(m.Conns) == 0 {
		m.Conns = nil
	}
	return m, nil
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
