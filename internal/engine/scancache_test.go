package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
)

// buildSegmentedStore assembles a store with many small sealed segments
// plus an unsealed memtable tail, for scan-cache and snapshot tests.
func buildSegmentedStore(t testing.TB, sealEvery, events, tail int) *eventstore.Store {
	t.Helper()
	opts := eventstore.DefaultOptions()
	opts.SegmentEvents = sealEvery
	s := eventstore.New(opts)
	rec := func(i int) eventstore.Record {
		return eventstore.Record{
			AgentID: uint32(1 + i%2),
			Subject: proc("worker.exe"),
			Op:      sysmon.OpWrite,
			ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: fmt.Sprintf(`C:\data\out%d.log`, i)},
			StartTS: ts(i % 180),
			Amount:  uint64(i),
		}
	}
	// batches of sealEvery events commit often enough that memtables
	// seal near sealEvery events each
	recs := make([]eventstore.Record, 0, sealEvery)
	for i := 0; i < events; i++ {
		recs = append(recs, rec(i))
		if len(recs) == sealEvery || i == events-1 {
			s.AppendAll(recs)
			recs = recs[:0]
		}
	}
	s.Flush() // everything so far sealed
	// the tail commits one record at a time and stays in memtables
	for i := 0; i < tail; i++ {
		s.AppendAll([]eventstore.Record{rec(events + i)})
	}
	return s
}

const segQuery = `proc p["%worker.exe"] write file f as evt return p, f`

// TestScanCacheCorrectAndCounted: with the segment scan cache enabled,
// a repeated query returns identical rows, reports every sealed segment
// as a cache hit, and scans only the unsealed tail.
func TestScanCacheCorrectAndCounted(t *testing.T) {
	s := buildSegmentedStore(t, 16, 160, 0)
	segs := s.NumSegments()
	if segs < 5 {
		t.Fatalf("store sealed only %d segments, want several", segs)
	}
	e := New(s)
	e.SetScanCache(8 << 20)

	cold, err := e.Execute(context.Background(), segQuery)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.SegmentHits != 0 || cold.Stats.SegmentMisses == 0 {
		t.Errorf("cold run: hits=%d misses=%d, want 0 hits and >0 misses",
			cold.Stats.SegmentHits, cold.Stats.SegmentMisses)
	}
	if cold.Stats.ScannedEvents == 0 {
		t.Error("cold run scanned nothing")
	}

	warm, err := e.Execute(context.Background(), segQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Rows, cold.Rows) {
		t.Errorf("warm rows differ from cold rows")
	}
	if warm.Stats.SegmentMisses != 0 || warm.Stats.SegmentHits != cold.Stats.SegmentMisses {
		t.Errorf("warm run: hits=%d misses=%d, want %d hits and 0 misses",
			warm.Stats.SegmentHits, warm.Stats.SegmentMisses, cold.Stats.SegmentMisses)
	}
	if warm.Stats.ScannedEvents != 0 {
		t.Errorf("warm run scanned %d events, want 0 (all sealed segments cached)", warm.Stats.ScannedEvents)
	}
	cs := e.ScanCacheStats()
	if cs.Hits == 0 || cs.Entries == 0 {
		t.Errorf("scan cache stats = %+v, want hits and entries", cs)
	}
}

// TestScanCachePartialReuseAfterAppend: an append re-scans only the
// fresh data; every previously sealed segment is served from the cache
// and the result reflects the new events.
func TestScanCachePartialReuseAfterAppend(t *testing.T) {
	s := buildSegmentedStore(t, 16, 160, 0)
	e := New(s)
	e.SetScanCache(8 << 20)

	cold, err := e.Execute(context.Background(), segQuery)
	if err != nil {
		t.Fatal(err)
	}
	sealedBefore := cold.Stats.SegmentMisses

	// append a small delta and seal it
	s.AppendAll([]eventstore.Record{{
		AgentID: 1,
		Subject: proc("worker.exe"),
		Op:      sysmon.OpWrite,
		ObjType: sysmon.EntityFile,
		ObjFile: sysmon.File{Path: `C:\data\delta.log`},
		StartTS: ts(10),
	}})
	s.Flush()

	warm, err := e.Execute(context.Background(), segQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Rows) != len(cold.Rows)+1 {
		t.Fatalf("after append got %d rows, want %d", len(warm.Rows), len(cold.Rows)+1)
	}
	if warm.Stats.SegmentHits != sealedBefore {
		t.Errorf("after append: %d sealed-segment hits, want all %d pre-append segments reused",
			warm.Stats.SegmentHits, sealedBefore)
	}
	if warm.Stats.SegmentMisses == 0 {
		t.Error("the fresh segment should be a miss on its first scan")
	}
	if warm.Stats.ScannedEvents == 0 || warm.Stats.ScannedEvents >= cold.Stats.ScannedEvents {
		t.Errorf("after append scanned %d events, want >0 and far fewer than cold's %d",
			warm.Stats.ScannedEvents, cold.Stats.ScannedEvents)
	}
}

// TestScanCacheDisabledByDefault: a zero Config reports no segment
// reuse, preserving ablation measurement semantics.
func TestScanCacheDisabledByDefault(t *testing.T) {
	s := buildSegmentedStore(t, 16, 64, 0)
	e := New(s)
	for i := 0; i < 2; i++ {
		res, err := e.Execute(context.Background(), segQuery)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SegmentHits != 0 || res.Stats.SegmentMisses != 0 {
			t.Fatalf("run %d counted segment reuse %+v without a cache", i, res.Stats)
		}
		if res.Stats.ScannedEvents == 0 {
			t.Fatalf("run %d scanned nothing", i)
		}
	}
	if cs := e.ScanCacheStats(); cs != (ScanCacheStats{}) {
		t.Errorf("disabled cache reports stats %+v", cs)
	}
}

// TestCursorSnapshotIsolation: a cursor opened before a concurrent
// append + seal iterates the frozen segment set — the row count matches
// the store as of cursor creation, regardless of mid-iteration writes.
func TestCursorSnapshotIsolation(t *testing.T) {
	s := buildSegmentedStore(t, 16, 96, 5)
	e := New(s)
	wantRows := s.Len()

	cur, err := e.ExecuteCursor(context.Background(), segQuery, CursorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	appended := make(chan struct{})
	go func() {
		defer close(appended)
		for i := 0; i < 10; i++ {
			s.AppendAll([]eventstore.Record{{
				AgentID: 1,
				Subject: proc("worker.exe"),
				Op:      sysmon.OpWrite,
				ObjType: sysmon.EntityFile,
				ObjFile: sysmon.File{Path: fmt.Sprintf(`C:\data\mid%d.log`, i)},
				StartTS: ts(20),
			}})
			s.Flush() // forces seals while the cursor iterates
		}
	}()

	rows := 0
	for cur.Next() {
		rows++
		if rows == 1 {
			<-appended // let all writes land mid-iteration
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != wantRows {
		t.Errorf("cursor yielded %d rows, want the snapshot's %d", rows, wantRows)
	}
	if s.Len() != wantRows+10 {
		t.Errorf("store has %d events, want %d", s.Len(), wantRows+10)
	}
}
