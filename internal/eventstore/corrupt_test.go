package eventstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/sysmon"
)

// savedStore writes a small valid store directory and returns its path.
func savedStore(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	opts := DefaultOptions()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	fill(s, 24, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// openCorrupt opens dir and requires a typed corruption error.
func openCorrupt(t *testing.T, dir, what string) {
	t.Helper()
	opts := DefaultOptions()
	opts.Dir = dir
	s, err := Open(opts)
	if err == nil {
		s.Close()
		t.Fatalf("%s: Open succeeded", what)
	}
	if !errors.Is(err, durable.ErrCorrupt) || !strings.Contains(err.Error(), "eventstore:") {
		t.Fatalf("%s: error %v, want an eventstore error wrapping durable.ErrCorrupt", what, err)
	}
}

// A store whose MANIFEST is clipped anywhere — header, tables, segment
// refs, checksum — must fail Open with a typed error, never panic and
// never open a partial store.
func TestDecodeTruncatedSnapshots(t *testing.T) {
	full, err := os.ReadFile(filepath.Join(savedStore(t), durable.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	cuts := []struct {
		name string
		n    int
	}{
		{"empty", 0},
		{"three bytes", 3},
		{"mid type section", 40},
		{"mid header", len(full) / 8},
		{"mid tables", len(full) / 3},
		{"mid events", len(full) / 2},
		{"most of stream", len(full) * 9 / 10},
		{"last byte gone", len(full) - 1},
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			dir := savedStore(t)
			if err := os.WriteFile(filepath.Join(dir, durable.ManifestName), full[:tc.n], 0o644); err != nil {
				t.Fatal(err)
			}
			openCorrupt(t, dir, "manifest clipped at "+tc.name)
		})
	}
}

func TestDecodeGarbageInput(t *testing.T) {
	for _, junk := range [][]byte{
		[]byte("not a manifest at all"),
		bytes.Repeat([]byte{0xff}, 512),
		bytes.Repeat([]byte{0x00}, 512),
	} {
		dir := savedStore(t)
		if err := os.WriteFile(filepath.Join(dir, durable.ManifestName), junk, 0o644); err != nil {
			t.Fatal(err)
		}
		openCorrupt(t, dir, "garbage manifest")
	}
}

// A checksummed WAL record whose event references entities beyond the
// dictionary is corrupt, not a torn tail: recovery must fail rather
// than serve dangling references.
func TestDecodeRejectsDanglingEntityRefs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*sysmon.Event)
	}{
		{"subject out of range", func(ev *sysmon.Event) { ev.Subject += 10 }},
		{"object out of range", func(ev *sysmon.Event) { ev.Object = 1 << 20 }},
		{"bad object type", func(ev *sysmon.Event) { ev.ObjType = sysmon.EntityType(99) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := small(Open(durableOpts(dir)))
			if err != nil {
				t.Fatal(err)
			}
			fill(s, 5, 0) // below the seal threshold: all in the WAL
			evs := collectAll(s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			bad := evs[len(evs)-1]
			bad.ID++
			tc.mutate(&bad)
			wal, err := durable.OpenWAL(filepath.Join(dir, durable.WALName), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := wal.Append([]durable.Rec{{Kind: durable.RecEvent, Event: bad}}); err != nil {
				t.Fatal(err)
			}
			if err := wal.Sync(); err != nil {
				t.Fatal(err)
			}
			wal.Close()
			s2, err := small(Open(durableOpts(dir)))
			if err == nil {
				s2.Close()
				t.Fatal("dangling reference accepted")
			}
			if !errors.Is(err, durable.ErrCorrupt) {
				t.Fatalf("error %v, want durable.ErrCorrupt", err)
			}
		})
	}
}

// Version-3 manifests naming v2 segment files are the only on-disk
// format: a version-2 manifest, or a ref recording any other segment
// format, fails Open with a typed error instead of being guessed at.
func TestDecodeVersionMismatch(t *testing.T) {
	dir := savedStore(t)
	path := filepath.Join(dir, durable.ManifestName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(old[4:], 2)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	openCorrupt(t, dir, "manifest version 2")

	for _, format := range []uint8{0, 1, 3} {
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
		// a ref's format is its last byte, so the body's last byte is
		// the last ref's
		rewriteManifest(t, dir, func(_ *durable.Manifest, body []byte) { body[len(body)-1] = format })
		openCorrupt(t, dir, fmt.Sprintf("segment ref format %d", format))
	}
}

// A segment file that cannot be opened or decoded fails every scan
// that reaches it with a typed error — through the batch kernel the
// engine uses and through Snapshot.Scan — instead of reading as absent.
func TestScanFailsOnCorruptSegment(t *testing.T) {
	cases := []struct {
		name string
		// flip returns the offset to corrupt in a segment file image.
		flip func(buf []byte) int
	}{
		// a bad footer fails the lazy open at first touch
		{"footer", func(buf []byte) int { return len(buf) - 1 }},
		// a bad event-ID block passes the open and fails mid-scan
		{"id block", func(buf []byte) int {
			const footerSize = 82
			dirOff := binary.LittleEndian.Uint64(buf[len(buf)-footerSize:])
			return int(binary.LittleEndian.Uint64(buf[dirOff+8:])) // first ID block's offset
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := savedStore(t)
			segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
			if len(segs) == 0 {
				t.Fatal("no segment files")
			}
			buf, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			buf[tc.flip(buf)] ^= 0xff
			if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Dir = dir
			s, err := Open(opts)
			if err != nil {
				t.Fatalf("lazy Open touched the segment: %v", err)
			}
			defer s.Close()

			f := &EventFilter{}
			cf := f.Compile()
			var scanErr error
			for _, u := range s.Snapshot().Units(f) {
				if _, _, err := u.CollectBatch(context.Background(), cf, nil); err != nil {
					scanErr = err
				}
			}
			if !errors.Is(scanErr, durable.ErrCorrupt) {
				t.Fatalf("batch scan: error %v, want durable.ErrCorrupt", scanErr)
			}
			if err := s.Scan(context.Background(), f, func(*sysmon.Event) bool { return true }); !errors.Is(err, durable.ErrCorrupt) {
				t.Fatalf("Scan: error %v, want durable.ErrCorrupt", err)
			}
			if s.DurableStats().LastError == "" {
				t.Fatal("the read failure was not recorded in DurableStats")
			}
		})
	}
}

// Compaction must never merge a segment whose file is unreadable: the
// merge would write its rows as absent and delete the file. The corrupt
// segment stays listed, on disk, and failing; its neighbours compact.
func TestCompactionSkipsCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.Dir = dir
	s := sealMany(t, opts, 64, 8, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) < 4 {
		t.Fatalf("setup left %d segment files", len(segs))
	}
	bad := segs[1]
	buf, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(bad, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.compactTarget = 64
	s2.Compact()
	s2.Compact() // the pass that discovers the bad file retires nothing
	if _, err := os.Stat(bad); err != nil {
		t.Fatalf("compaction removed the unreadable segment file: %v", err)
	}
	if err := s2.Scan(context.Background(), &EventFilter{}, func(*sysmon.Event) bool { return true }); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("scan after compaction: error %v, want durable.ErrCorrupt", err)
	}
	if s2.DurableStats().Compactions == 0 {
		t.Fatal("the readable segments were not compacted")
	}
}

// v2 is the only segment format read: a file in the pre-columnar v1
// layout (header magic "AQSG", version 1, footer magic "AQSE") under a
// manifest ref fails every scan that reaches it with a typed error,
// instead of being decoded or read as empty. Such data is regenerated.
func TestV1SegmentCompat(t *testing.T) {
	dir := savedStore(t)
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) == 0 {
		t.Fatal("no segment files")
	}
	v1 := []byte("AQSG")
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = append(v1, make([]byte, 256)...)
	v1 = append(v1, "AQSE"...)
	for _, seg := range segs {
		if err := os.WriteFile(seg, v1, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultOptions()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("lazy Open touched the segment: %v", err)
	}
	defer s.Close()
	n := 0
	err = s.Scan(context.Background(), &EventFilter{}, func(*sysmon.Event) bool { n++; return true })
	if !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("Scan over v1 segment files: error %v after %d events, want durable.ErrCorrupt", err, n)
	}
	if s.DurableStats().LastError == "" {
		t.Fatal("the read failure was not recorded in DurableStats")
	}
}

// A checksummed WAL entity record that could not have been logged — its
// ID skips a position, or it repeats an entity already in its table —
// is corrupt: replay appends entities by position, so either would
// shift every later entity ID.
func TestOpenRejectsCorruptWALEntities(t *testing.T) {
	proc := sysmon.Process{PID: 9, ExeName: "new.exe", Path: "/bin/new.exe", User: "u"}
	file := sysmon.File{Path: "/data/new.txt"}
	conn := sysmon.Netconn{SrcIP: "10.0.0.9", SrcPort: 9, DstIP: "10.0.0.10", DstPort: 443, Protocol: "tcp"}
	cases := []struct {
		name string
		rec  func(d *Dictionary) durable.Rec
	}{
		{"process skips an id", func(d *Dictionary) durable.Rec {
			return durable.Rec{Kind: durable.RecProc, ID: sysmon.EntityID(d.Count(sysmon.EntityProcess) + 2), Proc: proc}
		}},
		{"file skips an id", func(d *Dictionary) durable.Rec {
			return durable.Rec{Kind: durable.RecFile, ID: sysmon.EntityID(d.Count(sysmon.EntityFile) + 2), File: file}
		}},
		{"connection skips an id", func(d *Dictionary) durable.Rec {
			return durable.Rec{Kind: durable.RecConn, ID: sysmon.EntityID(d.Count(sysmon.EntityNetconn) + 2), Conn: conn}
		}},
		{"process repeats one in the table", func(d *Dictionary) durable.Rec {
			return durable.Rec{Kind: durable.RecProc, ID: sysmon.EntityID(d.Count(sysmon.EntityProcess) + 1), Proc: *d.Process(1)}
		}},
		{"file repeats one in the table", func(d *Dictionary) durable.Rec {
			return durable.Rec{Kind: durable.RecFile, ID: sysmon.EntityID(d.Count(sysmon.EntityFile) + 1), File: *d.File(1)}
		}},
		{"connection repeats one in the table", func(d *Dictionary) durable.Rec {
			return durable.Rec{Kind: durable.RecConn, ID: sysmon.EntityID(d.Count(sysmon.EntityNetconn) + 1), Conn: *d.Netconn(1)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := small(Open(durableOpts(dir)))
			if err != nil {
				t.Fatal(err)
			}
			// Eight records seal a segment, so the manifest lists the
			// first entities; the next commit's entities are past it,
			// in the WAL only.
			var recs []Record
			for i := 0; i < 8; i++ {
				recs = append(recs, mkRecord(1, "a.exe", sysmon.OpWrite, "a.txt", i))
			}
			recs[7] = mkRecord(1, "a.exe", sysmon.OpConnect, "10.1.1.1", 7)
			s.AppendAll(recs)
			s.AppendAll([]Record{
				mkRecord(1, "b.exe", sysmon.OpWrite, "b.txt", 8),
				mkRecord(1, "b.exe", sysmon.OpConnect, "10.1.1.2", 9),
			})
			if st := s.DurableStats(); st.ManifestEdition == 0 || st.WALRecords == 0 {
				t.Fatalf("setup: manifest edition %d, %d WAL records", st.ManifestEdition, st.WALRecords)
			}
			rec := tc.rec(s.Dict())
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			wal, err := durable.OpenWAL(filepath.Join(dir, durable.WALName), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := wal.Append([]durable.Rec{rec}); err != nil {
				t.Fatal(err)
			}
			if err := wal.Sync(); err != nil {
				t.Fatal(err)
			}
			wal.Close()
			s2, err := small(Open(durableOpts(dir)))
			if err == nil {
				s2.Close()
				t.Fatal("corrupt entity record accepted")
			}
			if !errors.Is(err, durable.ErrCorrupt) {
				t.Fatalf("error %v, want durable.ErrCorrupt", err)
			}
		})
	}
}

// A checksummed frame that does not decode, in the WAL or in
// MANIFEST.delta, fails Open with an error wrapping durable.ErrCorrupt
// and leaves the file as it was: no writer emits such a frame, so it is
// not the torn tail of a crash, and cutting the log there would drop
// every record after it.
func TestOpenRejectsUndecodableFrames(t *testing.T) {
	for _, name := range []string{durable.WALName, durable.ManifestDeltaName} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := small(Open(durableOpts(dir)))
			if err != nil {
				t.Fatal(err)
			}
			fill(s, 20, 0) // two seals, a full edition and a delta; four events stay in the WAL
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name)
			payload := []byte{9}
			frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
			frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(append(frame, payload...)); err != nil {
				t.Fatal(err)
			}
			f.Close()
			size := fileSize(t, path)
			s2, err := small(Open(durableOpts(dir)))
			if err == nil {
				s2.Close()
				t.Fatal("undecodable frame accepted")
			}
			if !errors.Is(err, durable.ErrCorrupt) {
				t.Fatalf("error %v, want durable.ErrCorrupt", err)
			}
			if got := fileSize(t, path); got != size {
				t.Fatalf("%s cut from %d to %d bytes", name, size, got)
			}
		})
	}
}
