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

// ManifestDeltaName is the incremental-edition log beside MANIFEST.
const ManifestDeltaName = "MANIFEST.delta"

// A full manifest rewrite is O(dictionary): the entity tables dominate
// it and grow with the dataset, so rewriting the whole file per seal
// makes seal cost scale with total history. The delta log makes
// editions incremental: each seal appends one frame carrying only what
// changed — the new segment refs, the dictionary rows interned since
// the last edition, and the updated counters. The on-disk manifest is
// then base MANIFEST + every intact delta frame with a consecutive
// edition above it. Compaction removes segments, which a delta cannot
// express, so each Compact call writes one full manifest for all of its
// merges (and a seal that lands while merges await that edition writes
// a full one too); a full write truncates the delta log, so the log's
// length is bounded by the seals between compactions.
//
// Frames reuse the WAL's [u32 len | u32 crc | payload] framing: a crash
// mid-append leaves a torn tail that replay detects and truncates. A
// crash between "full manifest written" and "delta log truncated"
// leaves stale frames whose editions the new base already covers;
// replay skips frames with edition <= base and tolerates a log that
// starts mid-sequence. A frame whose checksum matches but whose payload
// does not decode was never torn; it is corruption (ErrCorrupt).

// ManifestDelta is one incremental manifest edition: everything a seal
// changes relative to the previous edition.
type ManifestDelta struct {
	// Edition this delta produces; applies only on top of Edition-1.
	Edition     uint64
	NextSegID   uint64
	NextEventID uint64
	// NextSeq is the full per-agent sequence table (small: one entry
	// per agent, not per event).
	NextSeq map[uint32]uint64
	// Dictionary rows appended since the previous edition, in intern
	// order.
	Procs []sysmon.Process
	Files []sysmon.File
	Conns []sysmon.Netconn
	// Segments newly persisted by this edition, in chain order.
	Segments []SegmentRef
}

func encodeManifestDelta(d *ManifestDelta) []byte {
	w := &byteWriter{buf: make([]byte, 0, 512)}
	w.u64(d.Edition)
	w.u64(d.NextSegID)
	w.u64(d.NextEventID)
	w.u32(uint32(len(d.NextSeq)))
	for agent, seq := range d.NextSeq {
		w.u32(agent)
		w.u64(seq)
	}
	w.u32(uint32(len(d.Procs)))
	for i := range d.Procs {
		p := &d.Procs[i]
		w.u32(p.PID)
		w.str(p.ExeName)
		w.str(p.Path)
		w.str(p.User)
		w.str(p.CmdLine)
	}
	w.u32(uint32(len(d.Files)))
	for i := range d.Files {
		f := &d.Files[i]
		w.str(f.Path)
		w.str(f.Owner)
	}
	w.u32(uint32(len(d.Conns)))
	for i := range d.Conns {
		c := &d.Conns[i]
		w.str(c.SrcIP)
		w.u16(c.SrcPort)
		w.str(c.DstIP)
		w.u16(c.DstPort)
		w.str(c.Protocol)
	}
	w.u32(uint32(len(d.Segments)))
	for i := range d.Segments {
		r := &d.Segments[i]
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
	return w.buf
}

func decodeManifestDelta(payload []byte) (*ManifestDelta, error) {
	r := &byteReader{buf: payload}
	r.zeroCopyStrings()
	d := &ManifestDelta{
		Edition:     r.u64(),
		NextSegID:   r.u64(),
		NextEventID: r.u64(),
	}
	nSeq := int(r.u32())
	if r.fail || nSeq > len(payload) {
		return nil, fmt.Errorf("durable: corrupt manifest delta (sequence table)")
	}
	if nSeq > 0 {
		d.NextSeq = make(map[uint32]uint64, nSeq)
		for i := 0; i < nSeq; i++ {
			agent := r.u32()
			d.NextSeq[agent] = r.u64()
		}
	}
	nProcs := int(r.u32())
	if r.fail || nProcs > len(payload) {
		return nil, fmt.Errorf("durable: corrupt manifest delta (process table)")
	}
	if nProcs > 0 {
		d.Procs = make([]sysmon.Process, nProcs)
		for i := range d.Procs {
			p := &d.Procs[i]
			p.PID = r.u32()
			p.ExeName = r.str()
			p.Path = r.str()
			p.User = r.str()
			p.CmdLine = r.str()
		}
	}
	nFiles := int(r.u32())
	if r.fail || nFiles > len(payload) {
		return nil, fmt.Errorf("durable: corrupt manifest delta (file table)")
	}
	if nFiles > 0 {
		d.Files = make([]sysmon.File, nFiles)
		for i := range d.Files {
			f := &d.Files[i]
			f.Path = r.str()
			f.Owner = r.str()
		}
	}
	nConns := int(r.u32())
	if r.fail || nConns > len(payload) {
		return nil, fmt.Errorf("durable: corrupt manifest delta (connection table)")
	}
	if nConns > 0 {
		d.Conns = make([]sysmon.Netconn, nConns)
		for i := range d.Conns {
			c := &d.Conns[i]
			c.SrcIP = r.str()
			c.SrcPort = r.u16()
			c.DstIP = r.str()
			c.DstPort = r.u16()
			c.Protocol = r.str()
		}
	}
	nSegs := int(r.u32())
	if r.fail || nSegs > len(payload) {
		return nil, fmt.Errorf("durable: corrupt manifest delta (segment table)")
	}
	if nSegs > 0 {
		d.Segments = make([]SegmentRef, nSegs)
		for i := range d.Segments {
			ref := &d.Segments[i]
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
	}
	if err := r.err("manifest delta"); err != nil {
		return nil, err
	}
	return d, nil
}

// AppendManifestDelta appends one framed delta to dir's delta log and
// fsyncs it. The frame is only meaningful once the base MANIFEST it
// stacks on is durable, which the caller guarantees by ordering.
func AppendManifestDelta(dir string, d *ManifestDelta) error {
	payload := encodeManifestDelta(d)
	w := &byteWriter{buf: make([]byte, 0, len(payload)+walFrameOverhead)}
	w.u32(uint32(len(payload)))
	w.u32(checksum(payload))
	w.buf = append(w.buf, payload...)

	f, err := openFile(SiteDeltaCreate, filepath.Join(dir, ManifestDeltaName), os.O_CREATE|os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := writeAll(SiteDeltaWrite, f, w.buf); err != nil {
		f.Close()
		return fmt.Errorf("durable: append manifest delta: %w", err)
	}
	if err := syncFile(SiteDeltaSync, f); err != nil {
		f.Close()
		return fmt.Errorf("durable: sync manifest delta: %w", err)
	}
	return f.Close()
}

// ApplyManifestDeltas folds dir's delta log into the base manifest,
// mutating m in place, and returns the number of deltas applied.
// Frames with editions the base already covers are skipped (a crash
// between full-manifest write and delta truncation leaves them); a
// torn, checksum-failing, or non-consecutive tail ends replay and is
// truncated away, exactly like a torn WAL tail. A checksummed frame
// that does not decode fails with an error wrapping ErrCorrupt and
// leaves the log untruncated.
func ApplyManifestDeltas(dir string, m *Manifest) (int, error) {
	path := filepath.Join(dir, ManifestDeltaName)
	buf, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	applied, good := 0, 0
	for off := 0; off+walFrameOverhead <= len(buf); {
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		crc := binary.LittleEndian.Uint32(buf[off+4:])
		if n <= 0 || n > maxWALRecord || off+walFrameOverhead+n > len(buf) {
			break // torn final frame
		}
		payload := buf[off+walFrameOverhead : off+walFrameOverhead+n]
		if checksum(payload) != crc {
			break // corrupt tail
		}
		d, err := decodeManifestDelta(payload)
		if err != nil {
			return 0, fmt.Errorf("durable: manifest delta frame at offset %d: %w: %w", off, err, ErrCorrupt)
		}
		off += walFrameOverhead + n
		if d.Edition <= m.Edition {
			good = off // stale frame the base already covers
			continue
		}
		if d.Edition != m.Edition+1 {
			break // gap: the frames beyond it cannot apply
		}
		m.Edition = d.Edition
		m.NextSegID = d.NextSegID
		m.NextEventID = d.NextEventID
		if len(d.NextSeq) > 0 {
			m.NextSeq = d.NextSeq
		}
		m.Procs = append(m.Procs, d.Procs...)
		m.Files = append(m.Files, d.Files...)
		m.Conns = append(m.Conns, d.Conns...)
		m.Segments = append(m.Segments, d.Segments...)
		good = off
		applied++
	}
	if good != len(buf) {
		if f, ferr := openFile(SiteDeltaCreate, path, os.O_WRONLY); ferr == nil {
			if truncateFile(SiteDeltaTruncate, f, int64(good)) == nil {
				syncFile(SiteDeltaSync, f)
			}
			f.Close()
		}
	}
	return applied, nil
}

// RemoveManifestDelta truncates the delta log after a full manifest
// rewrite has captured everything the frames carried.
func RemoveManifestDelta(dir string) error {
	err := remove(SiteDeltaRemove, filepath.Join(dir, ManifestDeltaName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("durable: %w", err)
	}
	return syncDir(dir)
}

// ManifestDeltaSize returns the delta log's byte length (0 if absent).
func ManifestDeltaSize(dir string) int64 {
	st, err := os.Stat(filepath.Join(dir, ManifestDeltaName))
	if err != nil {
		return 0
	}
	return st.Size()
}
