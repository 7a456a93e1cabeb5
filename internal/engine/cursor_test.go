package engine

import (
	"context"
	"errors"
	"testing"
)

// drain pulls every row from a cursor and returns them with the final
// error.
func drain(t *testing.T, c *Cursor) ([][]string, error) {
	t.Helper()
	defer c.Close()
	var rows [][]string
	for c.Next() {
		rows = append(rows, c.Row())
	}
	return rows, c.Err()
}

// TestCursorMatchesExecute: a fully drained cursor, once sorted, must
// produce exactly the rows, columns, and scan statistics of the
// materializing Execute path, for every query family and engine
// configuration.
func TestCursorMatchesExecute(t *testing.T) {
	store := buildWideStore(t, 20000)
	queries := []string{
		`proc p write file f as evt return p, f`,
		`proc p write file f as evt return distinct p`,
		`proc p1 write file f as e1
proc p2 write file f as e2
with e1 before e2
return distinct f`,
		`window = 1 min, step = 1 min
proc p write file f as evt
return p, count(evt) as c
group by p
having c > 0`,
	}
	for _, cfg := range []Config{{}, {ScanWorkers: 1}} {
		eng := NewWithConfig(store, cfg)
		for qi, src := range queries {
			want, err := eng.Execute(context.Background(), src)
			if err != nil {
				t.Fatalf("cfg %+v query %d: Execute: %v", cfg, qi, err)
			}
			cur, err := eng.ExecuteCursor(context.Background(), src, CursorOptions{})
			if err != nil {
				t.Fatalf("cfg %+v query %d: ExecuteCursor: %v", cfg, qi, err)
			}
			rows, err := drain(t, cur)
			if err != nil {
				t.Fatalf("cfg %+v query %d: cursor: %v", cfg, qi, err)
			}
			got := &Result{Columns: cur.Columns(), Rows: rows}
			got.SortRows()
			if len(got.Columns) != len(want.Columns) {
				t.Fatalf("cfg %+v query %d: columns %v != %v", cfg, qi, got.Columns, want.Columns)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("cfg %+v query %d: %d rows != %d rows", cfg, qi, len(got.Rows), len(want.Rows))
			}
			for i := range got.Rows {
				for j := range got.Rows[i] {
					if got.Rows[i][j] != want.Rows[i][j] {
						t.Fatalf("cfg %+v query %d: row %d differs: %v != %v", cfg, qi, i, got.Rows[i], want.Rows[i])
					}
				}
			}
			if st := cur.Stats(); st.ScannedEvents != want.Stats.ScannedEvents {
				t.Errorf("cfg %+v query %d: cursor scanned %d events, Execute scanned %d", cfg, qi, st.ScannedEvents, want.Stats.ScannedEvents)
			}
		}
	}
}

// TestCursorLimitPushdown: a LIMIT-k cursor must stop the final pattern
// scan early — strictly fewer events visited than the unlimited drain —
// and still return exactly k rows.
func TestCursorLimitPushdown(t *testing.T) {
	store := buildWideStore(t, 60000)
	eng := New(store)

	full, err := eng.Execute(context.Background(), wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) <= 50 {
		t.Fatalf("want a result larger than the limit, got %d rows", len(full.Rows))
	}

	cur, err := eng.ExecuteCursor(context.Background(), wideQuery, CursorOptions{Limit: 50})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drain(t, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("limit 50 yielded %d rows", len(rows))
	}
	st := cur.Stats()
	if st.ScannedEvents >= full.Stats.ScannedEvents {
		t.Errorf("limit 50 scanned %d events, full drain scanned %d — want strictly fewer", st.ScannedEvents, full.Stats.ScannedEvents)
	}
	if st.ScannedEvents >= int64(store.Len()) {
		t.Errorf("limit 50 visited the whole store (%d events)", st.ScannedEvents)
	}
}

// TestCursorLimitWithDistinct: the limit counts emitted (post-dedup)
// rows, not bindings.
func TestCursorLimitWithDistinct(t *testing.T) {
	store := buildWideStore(t, 5000)
	eng := New(store)
	// every event shares one subject process, so distinct p has 1 row
	cur, err := eng.ExecuteCursor(context.Background(), `proc p write file f as evt return distinct p`, CursorOptions{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drain(t, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("distinct p yielded %d rows, want 1", len(rows))
	}
}

// TestCursorCloseAbortsScan: closing a cursor mid-stream must abort the
// remaining scan work — the final statistics show only part of the
// store visited — and must not surface an error.
func TestCursorCloseAbortsScan(t *testing.T) {
	store := buildWideStore(t, 60000)
	for _, cfg := range []Config{{}, {ScanWorkers: 1}} {
		eng := NewWithConfig(store, cfg)
		cur, err := eng.ExecuteCursor(context.Background(), wideQuery, CursorOptions{})
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		for i := 0; i < 5; i++ {
			if !cur.Next() {
				t.Fatalf("cfg %+v: stream ended after %d rows", cfg, i)
			}
		}
		cur.Close()
		if err := cur.Err(); err != nil {
			t.Errorf("cfg %+v: deliberate close surfaced error %v", cfg, err)
		}
		st := cur.Stats()
		if st.ScannedEvents == 0 {
			t.Errorf("cfg %+v: no events scanned before close", cfg)
		}
		if st.ScannedEvents >= int64(store.Len()) {
			t.Errorf("cfg %+v: close did not abort the scan: visited %d of %d events", cfg, st.ScannedEvents, store.Len())
		}
	}
}

// TestCursorParentCancellation: cancelling the caller's context
// mid-stream surfaces a context error through Err, unlike a deliberate
// Close.
func TestCursorParentCancellation(t *testing.T) {
	store := buildWideStore(t, 60000)
	eng := New(store)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cur, err := eng.ExecuteCursor(ctx, wideQuery, CursorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for i := 0; i < 3; i++ {
		if !cur.Next() {
			t.Fatalf("stream ended after %d rows", i)
		}
	}
	cancel()
	for cur.Next() { //nolint:revive // drain whatever was in flight
	}
	if err := cur.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCursorCompileErrors: parse/semantic errors are returned
// immediately, not through the stream.
func TestCursorCompileErrors(t *testing.T) {
	eng := New(buildWideStore(t, 10))
	if _, err := eng.ExecuteCursor(context.Background(), "not aiql", CursorOptions{}); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := eng.ExecuteCursor(context.Background(), "proc p write file f as evt return q", CursorOptions{}); err == nil {
		t.Error("semantic error not surfaced")
	}
}
