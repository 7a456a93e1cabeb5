package engine

import (
	"context"
	"errors"
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/aiql/aiql/internal/aiql/semantic"
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

// chunkedRun streams n one-cell rows ("0", "1", ...) through a cursor's
// row chunker with its hold pinned, marking a scan-unit boundary after
// every third row, and returns what the consumer received chunk by
// chunk, the statistics, and whether the producer was told to stop.
func chunkedRun(t *testing.T, n int, hold time.Duration, limit int) (chunks [][][]string, stats ExecStats, stopped bool) {
	t.Helper()
	p := &Prepared{info: &semantic.Info{Columns: []string{"i"}}}
	cur := (&Engine{}).startCursor(context.Background(), p, CursorOptions{Limit: limit}, ExecStats{},
		func(_ context.Context, _ *ExecStats, out *rowChunker) error {
			out.hold = hold
			for i := 0; i < n; i++ {
				row := out.row(1)
				row[0] = strconv.Itoa(i)
				if !out.emit(row) {
					stopped = true
					return nil
				}
				if i%3 == 2 && (!out.boundary() || !out.boundary()) { // a second boundary finds nothing new
					stopped = true
					return nil
				}
			}
			return nil
		})
	defer cur.Close()
	for chunk := cur.NextChunk(); chunk != nil; chunk = cur.NextChunk() {
		chunks = append(chunks, chunk)
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return chunks, cur.Stats(), stopped
}

func chunkSizes(chunks [][][]string) []int {
	var sizes []int
	for _, c := range chunks {
		sizes = append(sizes, len(c))
	}
	return sizes
}

// TestRowChunkerFillsChunks: scan-unit boundaries are not flush points
// while the pending rows are younger than the hold — a fast scan hands
// over its first row alone and then full chunks — and the rows, cut
// from the chunker's arenas, are whole, in order, and capped so that
// appending to one never overwrites the next.
func TestRowChunkerFillsChunks(t *testing.T) {
	chunks, stats, stopped := chunkedRun(t, 1000, math.MaxInt64, 0)
	if got, want := chunkSizes(chunks), []int{1, 256, 256, 256, 231}; !slices.Equal(got, want) {
		t.Fatalf("chunk sizes %v, want %v", got, want)
	}
	if stopped || stats.Chunks != len(chunks) {
		t.Errorf("stopped %v, Stats.Chunks %d; want false, %d", stopped, stats.Chunks, len(chunks))
	}
	var rows [][]string
	for _, c := range chunks {
		rows = append(rows, c...)
	}
	for i, row := range rows {
		if len(row) != 1 || cap(row) != 1 || row[0] != strconv.Itoa(i) {
			t.Fatalf("row %d is %q (cap %d), want [%d] capped at 1", i, row, cap(row), i)
		}
	}
	_ = append(rows[0], "x")
	if rows[1][0] != "1" {
		t.Errorf("appending to row 0 overwrote row 1: %q", rows[1])
	}
}

// TestRowChunkerZeroHold: with no hold, every boundary that has pending
// rows hands them over, and one that has none sends nothing.
func TestRowChunkerZeroHold(t *testing.T) {
	chunks, stats, _ := chunkedRun(t, 30, 0, 0)
	want := []int{1, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3}
	if got := chunkSizes(chunks); !slices.Equal(got, want) {
		t.Fatalf("chunk sizes %v, want %v", got, want)
	}
	if stats.Chunks != len(want) {
		t.Errorf("Stats.Chunks = %d, want %d", stats.Chunks, len(want))
	}
}

// TestRowChunkerLimit: the row that reaches the limit is handed over in
// a final chunk with those held before it, and emit reports that demand
// is satisfied.
func TestRowChunkerLimit(t *testing.T) {
	chunks, _, stopped := chunkedRun(t, 1000, math.MaxInt64, 10)
	if got, want := chunkSizes(chunks), []int{1, 9}; !slices.Equal(got, want) {
		t.Fatalf("chunk sizes %v, want %v", got, want)
	}
	if !stopped {
		t.Error("emit did not report the limit reached")
	}
}

// TestRowChunkerCloseWhileHolding: rows held when the cursor is closed
// are dropped — the handoff that would carry them, at a boundary whose
// hold has run out or at the end, reports that the stream must stop —
// and the consumer received only the first row's chunk.
func TestRowChunkerCloseWhileHolding(t *testing.T) {
	held, closed := make(chan struct{}), make(chan struct{})
	var goOn, flushed bool
	p := &Prepared{info: &semantic.Info{Columns: []string{"i"}}}
	cur := (&Engine{}).startCursor(context.Background(), p, CursorOptions{}, ExecStats{},
		func(_ context.Context, _ *ExecStats, out *rowChunker) error {
			out.hold = math.MaxInt64
			for i := 0; i < 3; i++ {
				row := out.row(1)
				row[0] = strconv.Itoa(i)
				out.emit(row)
			}
			close(held)
			<-closed
			out.hold = 0
			goOn, flushed = out.boundary(), out.flush()
			return nil
		})
	<-held
	go func() {
		<-cur.h.ch // Close has triggered the halt
		close(closed)
	}()
	cur.Close()
	if goOn || flushed {
		t.Errorf("after Close: boundary %v, flush %v; want false, false", goOn, flushed)
	}
	if st := cur.Stats(); st.Chunks != 1 {
		t.Errorf("Stats.Chunks = %d, want 1 (the first row's)", st.Chunks)
	}
}
