package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/aiql/aiql/internal/sysmon"
)

// The golden inputs: one row of each entity type per edition, with an
// empty and a non-ASCII string among them, and one agent in NextSeq so
// the encoding does not depend on map iteration order.
var (
	goldenProcs = []sysmon.Process{{PID: 4242, ExeName: "powershell.exe", Path: `C:\Windows\System32\powershell.exe`, User: "", CmdLine: "-enc café ☕"}}
	goldenFiles = []sysmon.File{{Path: "/srv/données/客户.csv", Owner: "dbadmin"}}
	goldenConns = []sysmon.Netconn{{SrcIP: "10.1.2.3", SrcPort: 51234, DstIP: "203.0.113.9", DstPort: 443, Protocol: "tcp"}}
	goldenRefs  = []SegmentRef{
		{ID: 10, AgentID: 3, Bucket: 424242, File: SegmentFileName(10), Events: 100,
			MinTS: 1525950000000000000, MaxTS: 1525953599000000000, MinEventID: 1, MaxEventID: 100},
		{ID: 11, AgentID: 3, Bucket: 424243, File: SegmentFileName(11), Events: 7,
			MinTS: 1525953600000000000, MaxTS: 1525953700000000000, MinEventID: 101, MaxEventID: 107},
	}
	goldenDeltaProcs = []sysmon.Process{{PID: 7, ExeName: "sh", Path: "/bin/sh", User: "root", CmdLine: ""}}
	goldenDeltaFiles = []sysmon.File{{Path: "/tmp/naïve.txt", Owner: ""}}
	goldenDeltaConns = []sysmon.Netconn{{SrcIP: "10.1.2.4", SrcPort: 40000, DstIP: "198.51.100.7", DstPort: 53, Protocol: "udp"}}
	goldenDeltaRefs  = []SegmentRef{
		{ID: 12, AgentID: 5, Bucket: 424243, File: SegmentFileName(12), Events: 3,
			MinTS: 1525953601000000000, MaxTS: 1525953602000000000, MinEventID: 108, MaxEventID: 110},
	}
	goldenRecs = []Rec{
		{Kind: RecProc, ID: 1, Proc: goldenProcs[0]},
		{Kind: RecFile, ID: 1, File: goldenFiles[0]},
		{Kind: RecConn, ID: 1, Conn: goldenConns[0]},
		{Kind: RecEvent, Event: sysmon.Event{ID: 111, AgentID: 3, Subject: 1, Op: sysmon.OpWrite, ObjType: sysmon.EntityFile,
			Object: 1, StartTS: 1525953603000000000, EndTS: 1525953603500000000, Amount: 65536, Seq: 9}},
	}
)

// refFields renders the fields a segment ref carries besides the
// segment format, which the codec writes as a constant.
func refFields(refs []SegmentRef) []string {
	var out []string
	for _, r := range refs {
		out = append(out, fmt.Sprint(r.ID, r.AgentID, r.Bucket, r.File, r.Events, r.MinTS, r.MaxTS, r.MinEventID, r.MaxEventID))
	}
	return out
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestEncodingGolden pins the bytes of the three metadata files
// against fixtures: a full manifest, one MANIFEST.delta frame and one
// wal.log frame of each record kind. Each fixture must decode to the
// golden inputs and re-encode to itself, so a codec change that moves
// one byte of what is written, or stops reading what was, fails here.
func TestEncodingGolden(t *testing.T) {
	manifest := readGolden(t, "manifest.golden")
	m, err := DecodeManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Edition != 7 || m.NextSegID != 12 || m.NextEventID != 107 ||
		!reflect.DeepEqual(m.NextSeq, map[uint32]uint64{3: 9}) ||
		!reflect.DeepEqual(m.Procs, goldenProcs) || !reflect.DeepEqual(m.Files, goldenFiles) ||
		!reflect.DeepEqual(m.Conns, goldenConns) || !reflect.DeepEqual(refFields(m.Segments), refFields(goldenRefs)) {
		t.Fatalf("manifest fixture decodes to %+v", m)
	}
	if again, err := EncodeManifest(m); err != nil || !bytes.Equal(again, manifest) {
		t.Fatalf("manifest re-encodes to %x (err %v), fixture %x", again, err, manifest)
	}

	frame := readGolden(t, "delta.golden")
	if len(frame) < 8 || int(binary.LittleEndian.Uint32(frame)) != len(frame)-8 ||
		binary.LittleEndian.Uint32(frame[4:]) != checksum(frame[8:]) {
		t.Fatalf("delta fixture is not one frame: %x", frame)
	}
	d, err := decodeManifestDelta(frame[8:])
	if err != nil {
		t.Fatal(err)
	}
	if d.Edition != 8 || d.NextSegID != 13 || d.NextEventID != 111 ||
		!reflect.DeepEqual(d.NextSeq, map[uint32]uint64{3: 10}) ||
		!reflect.DeepEqual(d.Procs, goldenDeltaProcs) || !reflect.DeepEqual(d.Files, goldenDeltaFiles) ||
		!reflect.DeepEqual(d.Conns, goldenDeltaConns) || !reflect.DeepEqual(refFields(d.Segments), refFields(goldenDeltaRefs)) {
		t.Fatalf("delta fixture decodes to %+v", d)
	}
	if again := encodeManifestDelta(d); !bytes.Equal(again, frame[8:]) {
		t.Fatalf("delta re-encodes to %x, fixture payload %x", again, frame[8:])
	}
	// The frame folds onto the manifest fixture.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestDeltaName), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	folded, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ApplyManifestDeltas(dir, folded); err != nil || n != 1 || folded.Edition != 8 ||
		len(folded.Procs) != 2 || len(folded.Segments) != 3 || folded.NextSeq[3] != 10 {
		t.Fatalf("fold: %d deltas (err %v) into %+v", n, err, folded)
	}

	wal := readGolden(t, "wal.golden")
	path := filepath.Join(t.TempDir(), WALName)
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(goldenRecs); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if written, err := os.ReadFile(path); err != nil || !bytes.Equal(written, wal) {
		t.Fatalf("WAL frames %x (err %v), fixture %x", written, err, wal)
	}
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []Rec
	w, err = OpenWAL(path, func(r *Rec) error { got = append(got, *r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if !reflect.DeepEqual(got, goldenRecs) {
		t.Fatalf("WAL fixture replays as %+v", got)
	}
}
