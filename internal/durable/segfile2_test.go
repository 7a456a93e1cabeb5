package durable

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeV2 writes a fresh v2 segment file for d and opens a reader on it.
func writeV2(t *testing.T, d *SegmentData) (string, *SegmentReader) {
	t.Helper()
	path := filepath.Join(t.TempDir(), SegmentFileName(d.ID))
	if _, err := WriteSegmentFileV2(path, d); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenSegmentReader(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, rd
}

func TestSegmentV2RoundTrip(t *testing.T) {
	// 2500 spans three blocks with a ragged tail; 1024 is exactly one.
	for _, n := range []int{1, 100, 1024, 2500} {
		d := testSegment(n)
		_, rd := writeV2(t, d)
		if rd.ID != d.ID || rd.AgentID != d.AgentID || rd.Bucket != d.Bucket || rd.Count != n {
			t.Fatalf("n=%d: identity differs: %+v", n, rd)
		}
		if rd.MinEventID != 1 || rd.MaxEventID != uint64(n) {
			t.Fatalf("n=%d: event-ID bounds %d..%d", n, rd.MinEventID, rd.MaxEventID)
		}
		evs, err := rd.MaterializeEvents()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(evs, d.Events) {
			t.Fatalf("n=%d: events differ after round trip", n)
		}
		sub, obj, err := rd.ReadIndexes()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sub, d.PostingSub) || !reflect.DeepEqual(obj, d.PostingObj) {
			t.Fatalf("n=%d: postings differ after round trip", n)
		}
		if !reflect.DeepEqual(rd.OpCount, d.OpCount) {
			t.Fatalf("n=%d: op histogram differs", n)
		}
		// The scan-key and timestamp columns must be whole, raw, and
		// contiguous — that is the zero-copy contract the batch scan
		// kernel depends on.
		keys, err := rd.Column(ColKey)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := rd.Column(ColStartTS)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range d.Events {
			wantKey := ScanKey(ev.AgentID, uint16(ev.Op), uint8(ev.ObjType))
			if got := binary.LittleEndian.Uint64(keys[i*8:]); got != wantKey {
				t.Fatalf("n=%d: key[%d] = %#x, want %#x", n, i, got, wantKey)
			}
			if got := int64(binary.LittleEndian.Uint64(ts[i*8:])); got != ev.StartTS {
				t.Fatalf("n=%d: ts[%d] = %d, want %d", n, i, got, ev.StartTS)
			}
		}
	}
}

// The reader accepts exactly one format: a v2 file opens, and a
// header naming any other magic or version — the retired v1 layout
// included — is refused as ErrCorrupt before anything else is read.
func TestSegmentV2VersionDispatch(t *testing.T) {
	d := testSegment(64)
	good := EncodeSegmentV2(d)
	if got, err := decodeV2(t, good); err != nil || !reflect.DeepEqual(got.Events, d.Events) {
		t.Fatalf("v2 file: err %v", err)
	}
	for _, tc := range []struct {
		name    string
		magic   string
		version uint32
	}{
		{"v1 layout", "AQSG", 1},
		{"future version", seg2Magic, seg2Version + 1},
		{"v1 version under v2 magic", seg2Magic, 1},
	} {
		bad := append([]byte(nil), good...)
		copy(bad, tc.magic)
		binary.LittleEndian.PutUint32(bad[4:], tc.version)
		if _, err := decodeV2(t, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// Every targeted corruption — a flipped byte in a compressed block, in a
// raw block, in the block directory, in the index section, in the
// header, or in the footer — must surface as a typed ErrCorrupt (either
// at open or at first read), never a panic and never silently bad rows.
func TestSegmentV2Corruption(t *testing.T) {
	d := testSegment(2500)
	path, rd := writeV2(t, d)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dirOff := binary.LittleEndian.Uint64(orig[len(orig)-seg2FooterSize:])

	cases := []struct {
		name string
		pos  int
	}{
		{"header magic", 0},
		{"header count", 28},
		{"compressed id block", int(rd.blocks[ColID][0].off) + 3},
		{"raw key block", int(rd.blocks[ColKey][1].off) + 5},
		{"raw ts block", int(rd.blocks[ColStartTS][0].off) + 9},
		{"index section", int(rd.idx.off) + 2},
		{"block directory", int(dirOff) + 12},
		{"footer", len(orig) - 20},
		{"footer magic", len(orig) - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), orig...)
			bad[tc.pos] ^= 0xff
			bp := filepath.Join(t.TempDir(), SegmentFileName(42))
			if err := os.WriteFile(bp, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			crd, err := OpenSegmentReader(bp)
			if err == nil {
				// Structural metadata was intact; the flip must surface
				// on the first read that touches the damaged bytes. The
				// scan-key column is derived during materialization, so
				// probe it explicitly the way the batch kernel does.
				if _, err = crd.MaterializeEvents(); err == nil {
					if _, err = crd.Column(ColKey); err == nil {
						_, _, err = crd.ReadIndexes()
					}
				}
			}
			if err == nil {
				t.Fatalf("flip at %d: no error", tc.pos)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at %d: error %v is not ErrCorrupt", tc.pos, err)
			}
		})
	}

	// Clipped files must fail cleanly at open.
	for _, cut := range []int{0, 4, seg2HeaderSize, len(orig) / 2, len(orig) - 1} {
		bp := filepath.Join(t.TempDir(), SegmentFileName(43))
		if err := os.WriteFile(bp, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSegmentReader(bp); err == nil {
			t.Fatalf("clip at %d of %d: no error", cut, len(orig))
		}
	}
}

// FuzzSegmentDecode drives arbitrary bytes through the full v2 lazy
// read path: whatever the mutation, the reader must return an error or
// correct data — never panic, never index out of range.
func FuzzSegmentDecode(f *testing.F) {
	small := testSegment(5)
	big := testSegment(1500)
	f.Add(EncodeSegmentV2(small))
	f.Add(withoutIndexedFlag(EncodeSegmentV2(small)))
	f.Add(EncodeSegmentV2(big))
	buf := EncodeSegmentV2(big)
	f.Add(append([]byte("AQSG"), buf[4:]...))
	f.Add(buf[:len(buf)/2])
	f.Add(buf[:seg2HeaderSize])
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		rd, err := OpenSegmentReader(path)
		if err != nil {
			return
		}
		if _, err := rd.MaterializeEvents(); err != nil {
			return
		}
		rd.ReadIndexes()
		rd.Column(ColKey)
		rd.Column(ColStartTS)
	})
}
