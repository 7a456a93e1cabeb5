package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
	"github.com/aiql/aiql/internal/workpool"
)

// forceParallel installs an unclamped helper pool so the ordered-merge
// executor really fans out, even on a single-core test machine where
// NewWithConfig would clamp the pool to zero helpers.
func forceParallel(e *Engine, helpers int) *Engine {
	e.SetScanPool(workpool.New(helpers))
	return e
}

// TestParallelMatchesSequential locks in the executor's core contract:
// with helpers racing ahead of the merge point, every query must
// produce byte-for-byte the same rows, in the same order, as the plain
// sequential walk.
func TestParallelMatchesSequential(t *testing.T) {
	store := buildWideStore(t, 40000)
	queries := []string{
		wideQuery,
		// multi-pattern join: two patterns share the file entity
		`proc p write file f as evt1
proc p2 write file f as evt2
with evt1 before evt2
return distinct p, f`,
		// windowed aggregation over the full scan
		`window = 1 min, step = 1 min
proc p write file f as evt
return p, count(evt) as c
group by p
having c > 0`,
	}
	seq := NewWithConfig(store, Config{ScanWorkers: 1})
	par := forceParallel(New(store), 3)
	for i, q := range queries {
		want, err := seq.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d sequential: %v", i, err)
		}
		got, err := par.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d parallel: %v", i, err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("query %d: parallel rows differ from sequential (%d vs %d rows)", i, len(got.Rows), len(want.Rows))
		}
		if got.Stats.ScannedEvents != want.Stats.ScannedEvents {
			t.Errorf("query %d: parallel visited %d events, sequential %d", i, got.Stats.ScannedEvents, want.Stats.ScannedEvents)
		}
	}
}

// TestParallelCursorLimitMatchesSequential checks limit pushdown under
// parallel fan-out: the first N rows of a paginated stream must be
// exactly the first N rows of the sequential stream, or resumable
// pagination tokens would skip or duplicate rows depending on pool
// size.
func TestParallelCursorLimitMatchesSequential(t *testing.T) {
	store := buildWideStore(t, 40000)
	for _, limit := range []int{1, 37, 500} {
		collect := func(e *Engine) [][]string {
			cur, err := e.ExecuteCursor(context.Background(), wideQuery, CursorOptions{Limit: limit})
			if err != nil {
				t.Fatalf("limit %d: ExecuteCursor: %v", limit, err)
			}
			defer cur.Close()
			var rows [][]string
			for cur.Next() {
				rows = append(rows, append([]string(nil), cur.Row()...))
			}
			if err := cur.Err(); err != nil {
				t.Fatalf("limit %d: cursor: %v", limit, err)
			}
			return rows
		}
		want := collect(NewWithConfig(store, Config{ScanWorkers: 1}))
		got := collect(forceParallel(New(store), 3))
		if len(want) != limit {
			t.Fatalf("limit %d: sequential produced %d rows", limit, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("limit %d: parallel page differs from sequential page", limit)
		}
	}
}

// TestParallelCancellationMidFanout cancels while helper goroutines
// hold claimed units mid-scan: the executor must abort cleanly —
// helpers awaited, partial stats coherent — rather than hang on a
// done channel or deliver rows past the abort.
func TestParallelCancellationMidFanout(t *testing.T) {
	store := buildWideStore(t, 60000)
	total := int64(store.Len())
	for _, allow := range []int64{2, 8, 64} {
		ctx := newCountdownCtx(allow)
		res, err := forceParallel(New(store), 3).Execute(ctx, wideQuery)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("allow %d: want context.Canceled, got %v", allow, err)
		}
		if res == nil {
			t.Fatalf("allow %d: want partial result, got nil", allow)
		}
		if res.Stats.ScannedEvents >= total {
			t.Errorf("allow %d: visited %d of %d events despite mid-fan-out cancellation", allow, res.Stats.ScannedEvents, total)
		}
	}
}

// TestParallelScanDuringAppendAndSeal races parallel scans against a
// writer that keeps appending and sealing memtables into segments.
// Snapshot isolation means every query sees a consistent prefix: row
// counts observed by one reader never go backwards, and the run is a
// -race exercise of the scan path against concurrent seals.
func TestParallelScanDuringAppendAndSeal(t *testing.T) {
	store := eventstore.New(eventstore.DefaultOptions())
	eng := forceParallel(New(store), 3)

	const writers, batches, perBatch = 1, 40, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func() {
			defer wg.Done()
			n := 0
			for b := 0; b < batches; b++ {
				recs := make([]eventstore.Record, 0, perBatch)
				for i := 0; i < perBatch; i++ {
					recs = append(recs, eventstore.Record{
						AgentID: uint32(1 + n%8),
						Subject: proc("worker.exe"),
						Op:      sysmon.OpWrite,
						ObjType: sysmon.EntityFile,
						ObjFile: sysmon.File{Path: fmt.Sprintf(`C:\data\out%d.log`, n)},
						StartTS: ts(n / 50),
						Amount:  uint64(n),
					})
					n++
				}
				store.AppendAll(recs)
				store.Flush() // seal every batch, so scans race real seals
			}
			close(stop)
		}()
	}

	prev := 0
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		res, err := eng.Execute(context.Background(), wideQuery)
		if err != nil {
			t.Fatalf("Execute during ingest: %v", err)
		}
		if len(res.Rows) < prev {
			t.Fatalf("row count went backwards: %d after %d", len(res.Rows), prev)
		}
		prev = len(res.Rows)
	}
	wg.Wait()

	store.Flush()
	res, err := eng.Execute(context.Background(), wideQuery)
	if err != nil {
		t.Fatalf("final Execute: %v", err)
	}
	if want := writers * batches * perBatch; len(res.Rows) != want {
		t.Fatalf("final query saw %d rows, want %d", len(res.Rows), want)
	}
}
