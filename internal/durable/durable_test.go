package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/aiql/aiql/internal/sysmon"
)

func testEvents(n int) []sysmon.Event {
	evs := make([]sysmon.Event, n)
	for i := range evs {
		evs[i] = sysmon.Event{
			ID:      uint64(i + 1),
			AgentID: uint32(i % 3),
			Subject: sysmon.EntityID(i%7 + 1),
			Op:      sysmon.OpWrite,
			ObjType: sysmon.EntityFile,
			Object:  sysmon.EntityID(i%5 + 1),
			StartTS: int64(1000 + i),
			EndTS:   int64(1000 + i + 2),
			Amount:  uint64(i * 10),
			Seq:     uint64(i + 1),
		}
	}
	return evs
}

func testSegment(n int) *SegmentData {
	evs := testEvents(n)
	sub := map[sysmon.EntityID][]int32{}
	obj := map[sysmon.EntityID][]int32{}
	ops := make([]int, sysmon.NumOperations)
	for i := range evs {
		sub[evs[i].Subject] = append(sub[evs[i].Subject], int32(i))
		obj[evs[i].Object] = append(obj[evs[i].Object], int32(i))
		ops[evs[i].Op]++
	}
	return &SegmentData{
		ID: 42, AgentID: 1, Bucket: 99, Events: evs,
		Indexed: true, PostingSub: sub, PostingObj: obj, OpCount: ops,
	}
}

// decodeV2 parses a segment image through the one decode path there
// is, the file reader: open (header, footer, block directory), then
// every column and the index section.
func decodeV2(t *testing.T, buf []byte) (*SegmentData, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "decode.seg")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenSegmentReader(path)
	if err != nil {
		return nil, err
	}
	d := &SegmentData{
		ID: rd.ID, AgentID: rd.AgentID, Bucket: rd.Bucket,
		MinEventID: rd.MinEventID, MaxEventID: rd.MaxEventID,
		Indexed: rd.Indexed, OpCount: rd.OpCount,
	}
	if d.Events, err = rd.MaterializeEvents(); err != nil {
		return nil, err
	}
	if _, err := rd.Column(ColKey); err != nil {
		return nil, err
	}
	if d.PostingSub, d.PostingObj, err = rd.ReadIndexes(); err != nil {
		return nil, err
	}
	return d, nil
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100} {
		d := testSegment(n)
		got, err := decodeV2(t, EncodeSegmentV2(d))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !reflect.DeepEqual(got.Events, d.Events) {
			t.Fatalf("n=%d: events differ after round trip", n)
		}
		if got.ID != d.ID || got.AgentID != d.AgentID || got.Bucket != d.Bucket {
			t.Fatalf("n=%d: identity differs: %+v", n, got)
		}
		if n > 0 && (got.MinEventID != 1 || got.MaxEventID != uint64(n)) {
			t.Fatalf("n=%d: event-ID bounds %d..%d", n, got.MinEventID, got.MaxEventID)
		}
		if !reflect.DeepEqual(got.PostingSub, d.PostingSub) || !reflect.DeepEqual(got.PostingObj, d.PostingObj) {
			t.Fatalf("n=%d: postings differ after round trip", n)
		}
		if !reflect.DeepEqual(got.OpCount, d.OpCount) {
			t.Fatalf("n=%d: op histogram differs", n)
		}
	}
}

func TestSegmentRoundTripUnindexed(t *testing.T) {
	d := &SegmentData{ID: 7, Events: testEvents(10)}
	got, err := decodeV2(t, EncodeSegmentV2(d))
	if err != nil {
		t.Fatal(err)
	}
	if got.Indexed || got.PostingSub != nil || got.OpCount != nil {
		t.Fatal("unindexed segment decoded with indexes")
	}
	if !reflect.DeepEqual(got.Events, d.Events) {
		t.Fatal("events differ")
	}
}

// Every clipped prefix and every flipped byte must produce a typed
// ErrCorrupt, never a panic and never silent success.
func TestSegmentDecodeCorrupt(t *testing.T) {
	buf := EncodeSegmentV2(testSegment(25))
	for _, cut := range []int{0, 3, 4, 10, 20, len(buf) / 2, len(buf) - 5, len(buf) - 1} {
		if _, err := decodeV2(t, buf[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("clip at %d of %d: error %v, want ErrCorrupt", cut, len(buf), err)
		}
	}
	for _, pos := range []int{5, 30, 200, len(buf) - 10} {
		bad := append([]byte(nil), buf...)
		bad[pos] ^= 0xff
		if _, err := decodeV2(t, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: error %v, want ErrCorrupt", pos, err)
		}
	}
}

func TestSegmentFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), SegmentFileName(42))
	d := testSegment(50)
	n, err := WriteSegmentFileV2(path, d)
	if err != nil || n == 0 {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != n {
		t.Fatalf("file size %v (err %v), write reported %d", fi, err, n)
	}
	rd, err := OpenSegmentReader(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rd.MaterializeEvents()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d.Events) {
		t.Fatal("events differ after file round trip")
	}
}

// testManifest returns a small manifest at edition 3.
func testManifest() *Manifest {
	return &Manifest{
		Edition:     3,
		NextSegID:   9,
		NextEventID: 1234,
		NextSeq:     map[uint32]uint64{1: 10, 2: 20},
		Procs:       []sysmon.Process{{PID: 1, ExeName: "cmd.exe"}},
		Files:       []sysmon.File{{Path: "/etc/passwd"}},
		Conns:       []sysmon.Netconn{{SrcIP: "10.0.0.1", DstPort: 443, Protocol: "tcp"}},
		Segments: []SegmentRef{
			{ID: 1, AgentID: 1, File: SegmentFileName(1), Events: 100, MinEventID: 1, MaxEventID: 100},
			{ID: 2, AgentID: 1, File: SegmentFileName(2), Events: 50, MinEventID: 101, MaxEventID: 150},
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadManifest(dir); err != ErrNoManifest {
		t.Fatalf("empty dir: got %v, want ErrNoManifest", err)
	}
	m := testManifest()
	if _, err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest differs after round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestManifestDecodeCorrupt(t *testing.T) {
	buf, err := EncodeManifest(&Manifest{Edition: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, 11, len(buf) - 1} {
		if _, err := DecodeManifest(buf[:cut]); err == nil {
			t.Fatalf("clip at %d: no error", cut)
		}
	}
	bad := append([]byte(nil), buf...)
	bad[14] ^= 0xff
	if _, err := DecodeManifest(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload byte: error %v, want ErrCorrupt", err)
	}
	// Version 3 is the only manifest version: the retired version 2 (no
	// per-ref Format byte) is refused, not read with guessed formats.
	for _, v := range []uint32{2, manifestVersion + 1} {
		old := append([]byte(nil), buf...)
		binary.LittleEndian.PutUint32(old[4:], v)
		if _, err := DecodeManifest(old); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("manifest version %d: error %v, want ErrCorrupt", v, err)
		}
	}
}

func walRecs(n int) []Rec {
	recs := []Rec{
		{Kind: RecProc, Proc: sysmon.Process{PID: 7, ExeName: "osql.exe", Path: `C:\osql.exe`, User: "svc", CmdLine: "osql -i x"}},
		{Kind: RecFile, File: sysmon.File{Path: "/tmp/backup1.dmp", Owner: "root"}},
		{Kind: RecConn, Conn: sysmon.Netconn{SrcIP: "10.0.0.2", SrcPort: 5555, DstIP: "8.8.8.8", DstPort: 53, Protocol: "udp"}},
	}
	for _, ev := range testEvents(n) {
		recs = append(recs, Rec{Kind: RecEvent, Event: ev})
	}
	return recs
}

func replayAll(t *testing.T, path string) ([]Rec, *WAL) {
	t.Helper()
	var got []Rec
	w, err := OpenWAL(path, func(r *Rec) error { got = append(got, *r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	return got, w
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALName)
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecs(20)
	if err := w.Append(recs[:5]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[5:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != uint64(len(recs)) {
		t.Fatalf("records = %d, want %d", w.Records(), len(recs))
	}
	w.Close()

	got, w2 := replayAll(t, path)
	defer w2.Close()
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay differs: got %d recs, want %d", len(got), len(recs))
	}
	if w2.Records() != uint64(len(recs)) || w2.Size() == 0 {
		t.Fatalf("reopened WAL counters: %d recs, %d bytes", w2.Records(), w2.Size())
	}
}

// A crash mid-append leaves a torn final record: replay must deliver
// every record before the tear and the reopened log must truncate the
// garbage so later appends extend a clean file.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALName)
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecs(10)
	if err := w.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	full := w.Size()
	w.Close()

	for _, chop := range []int64{1, 3, 7} {
		dst := filepath.Join(t.TempDir(), WALName)
		buf, _ := os.ReadFile(path)
		if err := os.WriteFile(dst, buf[:full-chop], 0o644); err != nil {
			t.Fatal(err)
		}
		got, w2 := replayAll(t, dst)
		if len(got) != len(recs)-1 {
			t.Fatalf("chop %d: replayed %d, want %d", chop, len(got), len(recs)-1)
		}
		if !reflect.DeepEqual(got, recs[:len(recs)-1]) {
			t.Fatalf("chop %d: surviving records differ", chop)
		}
		// the tail was truncated; appending and replaying again must
		// see the old records plus the new one, with no gap
		if err := w2.Append(recs[:1]); err != nil {
			t.Fatal(err)
		}
		if err := w2.Sync(); err != nil {
			t.Fatal(err)
		}
		w2.Close()
		got2, w3 := replayAll(t, dst)
		w3.Close()
		if len(got2) != len(recs) {
			t.Fatalf("chop %d: after repair append, replayed %d, want %d", chop, len(got2), len(recs))
		}
	}
}

// A corrupted byte inside an earlier record stops replay at that
// record: the log is only trusted up to the first bad frame.
func TestWALCorruptMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALName)
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecs(10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	buf, _ := os.ReadFile(path)
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, w2 := replayAll(t, path)
	w2.Close()
	if len(got) == 0 || len(got) >= len(walRecs(10)) {
		t.Fatalf("replayed %d records through a mid-file corruption", len(got))
	}
}

func TestWALTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALName)
	w, err := OpenWAL(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(walRecs(5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 || w.Records() != 0 {
		t.Fatalf("after truncate: %d bytes, %d records", w.Size(), w.Records())
	}
	if err := w.Append(walRecs(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, w2 := replayAll(t, path)
	w2.Close()
	if len(got) != len(walRecs(2)) {
		t.Fatalf("after truncate+append: replayed %d, want %d", len(got), len(walRecs(2)))
	}
}

// walFrames frames payloads as the WAL does: [u32 length | u32 crc32 |
// payload] each.
func walFrames(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
		out = binary.LittleEndian.AppendUint32(out, checksum(p))
		out = append(out, p...)
	}
	return out
}

// TestWALUndecodableFrameIsCorrupt: a frame whose checksum matches but
// whose payload is no record (kind byte 9) was never torn, so OpenWAL
// fails with ErrCorrupt and leaves the log (125 bytes here) as it found
// it, instead of cutting it and every record after it.
func TestWALUndecodableFrameIsCorrupt(t *testing.T) {
	recs := walRecs(1)
	data := walFrames(recPayload(&recs[0]), []byte{9}, recPayload(&recs[len(recs)-1]))
	path := filepath.Join(t.TempDir(), WALName)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	w, err := OpenWAL(path, func(*Rec) error { delivered++; return nil })
	if !errors.Is(err, ErrCorrupt) {
		if w != nil {
			w.Close()
		}
		t.Fatalf("OpenWAL over an undecodable frame: error %v, want ErrCorrupt", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(data)) {
		t.Fatalf("log cut to %v bytes (%v), want it intact at %d", fi.Size(), err, len(data))
	}
	if delivered != 1 {
		t.Fatalf("delivered %d records before the corrupt frame, want 1", delivered)
	}
}

// recPayload encodes one WAL record's payload.
func recPayload(r *Rec) []byte {
	w := &byteWriter{}
	encodeRec(w, r)
	return w.buf
}

// FuzzOpenWAL writes arbitrary bytes as a WAL file. OpenWAL must never
// panic. Walking the frames, the log holds intact frames up to a torn
// tail (a short frame or a checksum mismatch) or a corrupt frame (a
// checksum match that does not decode). With a corrupt frame OpenWAL
// fails with ErrCorrupt and the file is unchanged. Otherwise each
// record it delivers must re-encode to its frame's payload, the file
// must be truncated to the end of the last intact frame, and a second
// open must deliver the same records. Since a mutated frame rarely
// keeps a valid checksum, each input is also tried as the payload of
// one correctly checksummed frame after a valid prefix, which drives
// the record decoder itself.
func FuzzOpenWAL(f *testing.F) {
	var payloads [][]byte
	for _, r := range walRecs(3) {
		payloads = append(payloads, recPayload(&r))
	}
	valid := walFrames(payloads...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(payloads[0])
	f.Add(payloads[len(payloads)-1])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		checkOpenWAL(t, filepath.Join(dir, "raw.wal"), data)
		if len(data) > 0 {
			checkOpenWAL(t, filepath.Join(dir, "framed.wal"), append(walFrames(payloads[0]), walFrames(data)...))
		}
	})
}

// intactFrames walks data as a frame log and returns the payloads of
// its intact frames, the offset where they end, and whether the walk
// stopped at a checksummed frame that decode rejects (corruption) rather
// than at a torn tail or the end.
func intactFrames(data []byte, decode func([]byte) error) (payloads [][]byte, end int, corrupt bool) {
	for end+frameOverhead <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[end:]))
		if n == 0 || end+frameOverhead+n > len(data) {
			break
		}
		payload := data[end+frameOverhead : end+frameOverhead+n]
		if checksum(payload) != binary.LittleEndian.Uint32(data[end+4:]) {
			break
		}
		if decode(payload) != nil {
			return payloads, end, true
		}
		payloads = append(payloads, payload)
		end += frameOverhead + n
	}
	return payloads, end, false
}

// checkOpenWAL writes data as the WAL at path and checks FuzzOpenWAL's
// properties on it.
func checkOpenWAL(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Skip()
	}
	frames, end, corrupt := intactFrames(data, func(p []byte) error { var rec Rec; return decodeRec(p, &rec) })
	var got []Rec
	var encoded [][]byte
	w, err := OpenWAL(path, func(r *Rec) error {
		got = append(got, *r)
		encoded = append(encoded, recPayload(r))
		return nil
	})
	if corrupt {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("open over a corrupt frame at offset %d: error %v, want ErrCorrupt", end, err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(data)) {
			t.Fatalf("corrupt log changed on disk: %v bytes (%v), want %d", fi.Size(), err, len(data))
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	size := w.Size()
	w.Close()
	if len(encoded) != len(frames) {
		t.Fatalf("delivered %d records, the log holds %d intact frames", len(encoded), len(frames))
	}
	for i, enc := range encoded {
		if !bytes.Equal(frames[i], enc) {
			t.Fatalf("record %d re-encodes to %x, frame payload %x", i, enc, frames[i])
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(end) || size != int64(end) {
		t.Fatalf("file truncated to %d bytes (log size %d), want %d", fi.Size(), size, end)
	}
	again, w2 := replayAll(t, path)
	w2.Close()
	if !reflect.DeepEqual(again, got) {
		t.Fatalf("second open delivered %d records, first %d", len(again), len(got))
	}
}

// testDeltas returns the two delta frames' payloads that extend
// testManifest to editions 4 and 5, each adding a process and a segment.
func testDeltas() [][]byte {
	var out [][]byte
	for e := uint64(4); e <= 5; e++ {
		out = append(out, encodeManifestDelta(&Manifest{
			Edition:     e,
			NextSegID:   e + 6,
			NextEventID: 1234 + e*10,
			NextSeq:     map[uint32]uint64{1: 10 + e},
			Procs:       []sysmon.Process{{PID: uint32(e), ExeName: "sh"}},
			Segments: []SegmentRef{{ID: e - 1, AgentID: 1, File: SegmentFileName(e - 1), Events: 10,
				MinEventID: 1234 + e*10 - 9, MaxEventID: 1234 + e*10}},
		}))
	}
	return out
}

// writeDeltaDir writes testManifest and data as its MANIFEST.delta into
// a new directory (without fsyncs, which would slow fuzzing to a crawl).
func writeDeltaDir(t *testing.T, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	base, err := EncodeManifest(testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), base, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestDeltaName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// A checksummed delta frame that does not decode between two valid
// ones is corruption: ApplyManifestDeltas fails with ErrCorrupt and
// leaves the log untruncated.
func TestManifestDeltaUndecodableFrameIsCorrupt(t *testing.T) {
	ds := testDeltas()
	checkCorruptDeltaLog(t, walFrames(ds[0], []byte{9}, ds[1]))
}

// A decodable frame whose edition is neither covered by the editions
// before it nor the next one leaves a gap no writer produces, so it is
// corruption too, at the head of the log or after applied and stale
// frames.
func TestManifestDeltaEditionGapIsCorrupt(t *testing.T) {
	ds := testDeltas()
	checkCorruptDeltaLog(t, walFrames(ds[1], ds[0]))
	// editions 4 (applied), 4 (stale), 5 (applied), then 7
	checkCorruptDeltaLog(t, walFrames(ds[0], ds[0], ds[1], encodeManifestDelta(&Manifest{Edition: 7})))
}

// checkCorruptDeltaLog folds data as a delta log over testManifest and
// expects ErrCorrupt with the log left intact.
func checkCorruptDeltaLog(t *testing.T, data []byte) {
	t.Helper()
	dir := writeDeltaDir(t, data)
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyManifestDeltas(dir, m); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ApplyManifestDeltas: error %v, want ErrCorrupt", err)
	}
	if got := ManifestDeltaSize(dir); got != int64(len(data)) {
		t.Fatalf("delta log cut to %d bytes, want it intact at %d", got, len(data))
	}
}

// FuzzApplyManifestDeltas writes arbitrary bytes as MANIFEST.delta over
// a valid base manifest. ApplyManifestDeltas must never panic. Walking
// the frames, the log holds intact frames up to a torn tail or a
// corrupt frame: a checksum match that does not decode, or whose
// edition is neither covered by the editions before it nor the next.
// With a corrupt frame ApplyManifestDeltas fails with ErrCorrupt and
// leaves the log as it was. Otherwise it folds every frame with the next
// edition, truncates the log to the end of the last intact frame, and a
// second open, over what the first left on disk, folds exactly the same
// manifest. Each input is also tried as the payload of one checksummed
// frame after a valid one, which drives the delta decoder itself.
func FuzzApplyManifestDeltas(f *testing.F) {
	ds := testDeltas()
	valid := walFrames(ds...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(walFrames(ds[1], ds[0]))
	f.Add(ds[0])
	f.Add([]byte{})
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkApplyDeltas(t, data)
		if len(data) > 0 {
			checkApplyDeltas(t, append(walFrames(ds[0]), walFrames(data)...))
		}
	})
}

// checkApplyDeltas writes data as a delta log over testManifest and
// checks FuzzApplyManifestDeltas's properties on it.
func checkApplyDeltas(t *testing.T, data []byte) {
	t.Helper()
	base := testManifest().Edition
	edition := base
	_, end, corrupt := intactFrames(data, func(p []byte) error {
		d, err := decodeManifestDelta(p)
		switch {
		case err != nil:
			return err
		case d.Edition == edition+1:
			edition++
		case d.Edition > edition:
			return errors.New("edition gap")
		}
		return nil
	})
	dir := writeDeltaDir(t, data)
	fold := func() (*Manifest, int, error) {
		m, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		n, err := ApplyManifestDeltas(dir, m)
		return m, n, err
	}
	m, n, err := fold()
	if corrupt {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("fold over a corrupt frame at offset %d: error %v, want ErrCorrupt", end, err)
		}
		if got := ManifestDeltaSize(dir); got != int64(len(data)) {
			t.Fatalf("corrupt delta log changed on disk: %d bytes, want %d", got, len(data))
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if m.Edition != edition || uint64(n) != edition-base {
		t.Fatalf("folded %d deltas into edition %d over base %d, want edition %d", n, m.Edition, base, edition)
	}
	if got := ManifestDeltaSize(dir); got != int64(end) {
		t.Fatalf("delta log truncated to %d bytes, want %d", got, end)
	}
	m2, n2, err := fold()
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	if n2 != n || !reflect.DeepEqual(m2, m) {
		t.Fatalf("second open folded %d deltas into edition %d, first %d into %d", n2, m2.Edition, n, m.Edition)
	}
	if got := ManifestDeltaSize(dir); got != int64(end) {
		t.Fatalf("second open cut the delta log again: %d -> %d bytes", end, got)
	}
}

// encodeManifestDelta encodes one delta frame's payload.
func encodeManifestDelta(d *Manifest) []byte {
	w := &byteWriter{}
	encodeEdition(w, d, false)
	return w.buf
}

// manifestImage wraps body in a manifest's magic, version and checksum.
func manifestImage(body []byte) []byte {
	img := binary.LittleEndian.AppendUint32([]byte(manifestMagic), manifestVersion)
	img = append(img, body...)
	return binary.LittleEndian.AppendUint32(img, checksum(body))
}

// FuzzDecodeManifest feeds arbitrary bytes to DecodeManifest, as an
// image and as the body of an image with a valid header and checksum,
// which drives the body decoder itself. It must never panic and must
// fail only with ErrCorrupt. A manifest it decodes must re-encode to an
// image that decodes to an equal value, and rewriting that image's
// layout marker, or its last segment ref's format byte, to any other
// value must fail with ErrCorrupt.
func FuzzDecodeManifest(f *testing.F) {
	valid, err := EncodeManifest(testManifest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[8 : len(valid)-4])
	f.Add(valid[:len(valid)-5])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeManifest(t, data)
		checkDecodeManifest(t, manifestImage(data))
	})
}

// checkDecodeManifest checks FuzzDecodeManifest's properties on data.
func checkDecodeManifest(t *testing.T, data []byte) {
	t.Helper()
	m, err := DecodeManifest(data)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error %v, want ErrCorrupt", err)
		}
		return
	}
	img, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := DecodeManifest(img); err != nil || !reflect.DeepEqual(again, m) {
		t.Fatalf("re-encoded manifest decodes to %+v (err %v), want %+v", again, err, m)
	}
	flip := byte(1)
	if len(data) > 0 && data[0] != 0 {
		flip = data[0]
	}
	body := img[8 : len(img)-4]
	// The layout marker follows the counters and the sequence table:
	// partitioned (1 byte), chunk width (8), interned (1).
	marker := 3*8 + 4 + 12*len(m.NextSeq)
	at := []int{marker, marker + 1 + int(flip)%8, marker + 9}
	if len(m.Segments) > 0 {
		at = append(at, len(body)-1) // the last ref's format byte
	}
	for _, pos := range at {
		bad := append([]byte(nil), body...)
		bad[pos] ^= flip
		if _, err := DecodeManifest(manifestImage(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("body byte %d xor %#x: error %v, want ErrCorrupt", pos, flip, err)
		}
	}
}
