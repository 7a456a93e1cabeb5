package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/experiments"
)

// newSegmentedTestDB builds a database with many small sealed segments,
// the segment scan cache enabled, and per-record commits so appended
// tails land in memtables.
func newSegmentedTestDB(t testing.TB, events int) *aiql.DB {
	t.Helper()
	storage := aiql.DefaultStorage()
	storage.SegmentEvents = 16
	storage.BatchSize = 1
	db := aiql.OpenWithOptions(storage, aiql.EngineConfig{})
	db.EnableSegmentScanCache(8 << 20)
	recs := make([]aiql.Record, 0, events)
	for i := 0; i < events; i++ {
		recs = append(recs, demoRecord(i))
	}
	db.AppendAll(recs)
	db.Flush() // seal everything loaded so far
	return db
}

// TestServiceSegmentReuseAfterAppend is the service-level acceptance
// check for segment-granular reuse: after an AppendAll to a warm store,
// re-running the same query misses the result cache (the commit counter
// moved) but reuses every previously sealed segment's scan results —
// asserted via the response's segment-cache hit counters.
func TestServiceSegmentReuseAfterAppend(t *testing.T) {
	db := newSegmentedTestDB(t, 160)
	svc := New(db, Config{})
	ctx := context.Background()

	cold, err := svc.Do(ctx, Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached || cold.Stats.SegmentHits != 0 {
		t.Fatalf("cold response: cached=%v hits=%d", cold.Cached, cold.Stats.SegmentHits)
	}
	sealed := cold.Stats.SegmentMisses
	if sealed < 5 {
		t.Fatalf("store produced only %d sealed segments, fixture is wrong", sealed)
	}

	// warm repeat: served from the result cache, no execution at all
	warm, err := svc.Do(ctx, Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("repeat on an unchanged store missed the result cache")
	}

	// append new data and seal it: the result cache invalidates (new
	// commit), but the re-execution reuses every pre-append segment
	db.AppendAll([]aiql.Record{demoRecord(160), demoRecord(161)})
	db.Flush()

	requery, err := svc.Do(ctx, Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}
	if requery.Cached {
		t.Fatal("append did not invalidate the result cache")
	}
	if requery.TotalRows != cold.TotalRows+2 {
		t.Fatalf("re-query rows %d, want %d", requery.TotalRows, cold.TotalRows+2)
	}
	if requery.Stats.SegmentHits != sealed {
		t.Errorf("re-query reused %d sealed segments, want all %d", requery.Stats.SegmentHits, sealed)
	}
	if requery.Stats.ScannedEvents >= cold.Stats.ScannedEvents {
		t.Errorf("re-query scanned %d events, cold scanned %d — want far fewer", requery.Stats.ScannedEvents, cold.Stats.ScannedEvents)
	}
	if cs := db.ScanCacheStats(); cs.Hits == 0 || cs.Entries == 0 {
		t.Errorf("scan cache stats %+v, want hits and entries", cs)
	}
}

// TestCursorPaginationAcrossSeal: walking a cursor chain across a
// concurrent append + seal must keep serving pages from the pinned
// generation — never a spurious 410.
func TestCursorPaginationAcrossSeal(t *testing.T) {
	db := newSegmentedTestDB(t, 100)
	svc := New(db, Config{})
	ctx := context.Background()

	page1, err := svc.Do(ctx, Request{Query: demoQuery, Limit: 30})
	if err != nil {
		t.Fatal(err)
	}
	if page1.NextCursor == "" || page1.TotalRows != 100 {
		t.Fatalf("page 1: total=%d cursor=%q", page1.TotalRows, page1.NextCursor)
	}

	// a pure seal (no new data) must not disturb the chain
	db.Flush()
	page2, err := svc.Do(ctx, Request{Query: demoQuery, Limit: 30, Cursor: page1.NextCursor})
	if err != nil {
		t.Fatalf("page 2 across a pure seal: %v", err)
	}

	// an append + seal moves the commit counter; the chain's generation
	// is still cached, so later pages keep working on the old snapshot
	db.AppendAll([]aiql.Record{demoRecord(100)})
	db.Flush()
	page3, err := svc.Do(ctx, Request{Query: demoQuery, Limit: 30, Cursor: page2.NextCursor})
	if err != nil {
		t.Fatalf("page 3 across an append+seal: %v", err)
	}
	total := len(page1.Rows) + len(page2.Rows) + len(page3.Rows)
	if total != 90 || page3.Offset != 60 {
		t.Errorf("pages covered %d rows (offset %d), want 90 rows offset 60", total, page3.Offset)
	}
	// every page reports the pinned generation's size, not the grown store's
	if page3.TotalRows != 100 {
		t.Errorf("page 3 total %d, want the pinned generation's 100", page3.TotalRows)
	}
}

// segFig4DB lazily builds a private Fig4 50k dataset with the segment
// scan cache enabled, fully sealed — the append-then-requery benchmarks
// mutate it, so it is deliberately not shared with other fixtures.
var segFig4DB = sync.OnceValue(func() *aiql.DB {
	store := experiments.BuildStore(experiments.Fig4Dataset(50000, 10, 42))
	db := aiql.FromStore(store)
	db.EnableSegmentScanCache(64 << 20)
	db.Flush() // seal all generated data
	return db
})

// segDeltaRecord fabricates one agent-2 file write inside the dataset's
// time range that matches none of fig4Query's patterns, so an appended
// delta invalidates the result cache without disturbing the bindings
// (the realistic "new telemetry lands, analyst re-runs an old
// investigation" shape).
func segDeltaRecord(i int) aiql.Record {
	return aiql.Record{
		AgentID: 2,
		Subject: aiql.Process{PID: 4242, ExeName: "collector.exe", Path: `C:\bin\collector.exe`, User: "system"},
		Op:      aiql.OpWrite,
		ObjType: aiql.EntityFile,
		ObjFile: aiql.File{Path: fmt.Sprintf(`C:\telemetry\delta%d.log`, i)},
		StartTS: time.Date(2018, 5, 10, 12, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second).UnixNano(),
	}
}

// segHuntQuery is the append-then-requery benchmark workload: a
// scan-bound hunting query ("find abnormally large file operations")
// that sweeps every file event in the store and matches a handful —
// exactly the shape where re-scanning after every append hurts and
// segment-granular reuse pays. Join-bound workloads (fig4Query) see a
// smaller, bindings-dominated benefit and stay covered by the
// streaming benchmarks.
const segHuntQuery = `proc p read || write || execute || delete file f as evt with evt.amount > 10000000 return p, f`

// BenchmarkSegmentsCold is the baseline: every iteration re-executes
// the hunting query with no result cache and no segment reuse.
func BenchmarkSegmentsCold(b *testing.B) {
	svc := New(fig4DB(), Config{CacheEntries: -1})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Do(ctx, Request{Query: segHuntQuery}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentsFullCacheHit measures the unchanged-store repeat:
// the monolithic result cache serves it without executing.
func BenchmarkSegmentsFullCacheHit(b *testing.B) {
	svc := New(fig4DB(), Config{})
	ctx := context.Background()
	if _, err := svc.Do(ctx, Request{Query: segHuntQuery}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := svc.Do(ctx, Request{Query: segHuntQuery})
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("expected a result-cache hit")
		}
	}
}

// BenchmarkSegmentsPartialReuseAfterAppend measures the case the
// segment cache exists for: every iteration appends fresh telemetry
// (invalidating the result cache) and re-runs the query, which reuses
// all sealed-segment scan results and re-scans only the delta. The
// append itself runs off the clock; the measured work is the requery.
func BenchmarkSegmentsPartialReuseAfterAppend(b *testing.B) {
	db := segFig4DB()
	svc := New(db, Config{})
	ctx := context.Background()
	if _, err := svc.Do(ctx, Request{Query: segHuntQuery}); err != nil {
		b.Fatal(err) // warm the segment cache once
	}
	next := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		delta := make([]aiql.Record, 64)
		for j := range delta {
			delta[j] = segDeltaRecord(next)
			next++
		}
		db.AppendAll(delta)
		db.Flush()
		b.StartTimer()
		resp, err := svc.Do(ctx, Request{Query: segHuntQuery})
		if err != nil {
			b.Fatal(err)
		}
		if resp.Cached {
			b.Fatal("append failed to invalidate the result cache")
		}
		if resp.Stats.SegmentHits == 0 {
			b.Fatal("re-query reused no sealed segments")
		}
	}
}
