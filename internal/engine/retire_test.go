package engine

import (
	"context"
	"reflect"
	"testing"
)

// Compaction retires segments and the engine must re-point its scan
// cache: retired entries are dropped immediately, a re-run returns
// identical rows, and the merged segment is cached under its own id so
// the query is fully reusable again afterwards.
func TestScanCacheRetiredByCompaction(t *testing.T) {
	s := buildSegmentedStore(t, 16, 160, 0)
	before := s.NumSegments()
	e := New(s)
	e.SetScanCache(8 << 20)

	cold, err := e.Execute(context.Background(), segQuery)
	if err != nil {
		t.Fatal(err)
	}
	warmed := e.ScanCacheStats()
	if warmed.Entries == 0 {
		t.Fatal("cold run cached nothing")
	}

	res := s.Compact()
	if res.SegmentsRetired == 0 {
		t.Fatalf("compaction retired nothing (segments before: %d)", before)
	}
	afterCompact := e.ScanCacheStats()
	if afterCompact.Entries >= warmed.Entries {
		t.Fatalf("retirement left %d entries, had %d before", afterCompact.Entries, warmed.Entries)
	}
	if afterCompact.Bytes >= warmed.Bytes {
		t.Fatalf("retirement did not release bytes: %d vs %d", afterCompact.Bytes, warmed.Bytes)
	}

	requery, err := e.Execute(context.Background(), segQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(requery.Rows, cold.Rows) {
		t.Fatal("rows differ after compaction")
	}
	// the re-run cached the merged segments; a third run is all hits
	hitsBefore := e.ScanCacheStats().Hits
	third, err := e.Execute(context.Background(), segQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third.Rows, cold.Rows) {
		t.Fatal("rows differ on the re-pointed cache")
	}
	st := e.ScanCacheStats()
	if st.Hits <= hitsBefore {
		t.Fatal("no hits against the merged segments' entries")
	}
	if third.Stats.SegmentMisses != 0 {
		t.Fatalf("third run missed %d segments, want 0", third.Stats.SegmentMisses)
	}
}
