package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
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
// The log is the WAL's frame log (scanFrames) and a frame's payload is
// a Manifest body without the layout marker, which the base carries. A
// crash mid-append leaves a torn tail that the fold truncates. A crash
// between "full manifest written" and "delta log removed" leaves stale
// frames whose editions the new base already covers; the fold skips
// frames with edition <= base. Any other edition than the next one
// leaves a gap no writer produces — a failed append forces full editions
// until one removes the log — so, like a checksummed frame that does
// not decode, it is corruption (ErrCorrupt).

func decodeManifestDelta(payload []byte) (*Manifest, error) {
	r := &byteReader{buf: payload}
	r.zeroCopyStrings()
	return decodeEdition(r, false)
}

// AppendManifestDelta appends d to dir's delta log as one frame and
// fsyncs it. d carries the full counters and only the dictionary rows
// and segment refs added since edition d.Edition-1. The frame is only
// meaningful once the base MANIFEST it stacks on is durable, which the
// caller guarantees by ordering.
func AppendManifestDelta(dir string, d *Manifest) error {
	w := &byteWriter{buf: make([]byte, 0, 512)}
	start := w.beginFrame()
	encodeEdition(w, d, false)
	w.endFrame(start)

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
// between full-manifest write and delta removal leaves them); a torn
// tail is truncated away, and a failure to cut it is returned. A
// checksummed frame that does not decode, or whose edition is neither
// covered nor the next, fails with an error wrapping ErrCorrupt and
// leaves the log as it was.
func ApplyManifestDeltas(dir string, m *Manifest) (int, error) {
	path := filepath.Join(dir, ManifestDeltaName)
	applied := 0
	size, end, err := scanFrames(path, func(payload []byte) error {
		d, err := decodeManifestDelta(payload)
		switch {
		case err != nil:
			return err
		case d.Edition <= m.Edition:
			return nil // stale frame the base already covers
		case d.Edition != m.Edition+1:
			return corruptf("manifest delta edition %d does not follow edition %d", d.Edition, m.Edition)
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
		applied++
		return nil
	})
	if err != nil {
		return 0, err
	}
	if end != size {
		// A torn tail left in place would sit in front of every frame
		// appended later, and the next fold would stop at it.
		f, err := openFile(SiteDeltaCreate, path, os.O_WRONLY)
		if err == nil {
			err = truncateFile(SiteDeltaTruncate, f, end)
			if err == nil {
				err = syncFile(SiteDeltaSync, f)
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return 0, fmt.Errorf("durable: truncate torn manifest delta tail: %w", err)
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
