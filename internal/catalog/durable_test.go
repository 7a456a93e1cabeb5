package catalog

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/service"
)

// buildSegmentedDir creates a durable store directory holding events
// fragmented into many tiny sealed segments.
func buildSegmentedDir(t testing.TB, dir string, batches, perBatch int) int {
	t.Helper()
	storage := eventstore.DefaultOptions()
	storage.Dir = dir
	storage.CompactTargetEvents = batches * perBatch
	db, err := aiql.OpenDirWithOptions(storage, aiql.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	n := 0
	for b := 0; b < batches; b++ {
		recs := make([]aiql.Record, 0, perBatch)
		for i := 0; i < perBatch; i++ {
			recs = append(recs, aiql.Record{
				AgentID: 1,
				Subject: aiql.Process{PID: 100, ExeName: "worker.exe", Path: `C:\bin\worker.exe`, User: "alice"},
				Op:      aiql.OpWrite,
				ObjType: aiql.EntityFile,
				ObjFile: aiql.File{Path: fmt.Sprintf(`C:\logs\out%d.log`, n)},
				StartTS: int64(n) * int64(time.Second),
			})
			n++
		}
		db.AppendAll(recs)
		db.Flush() // tiny seal per batch
	}
	segs := db.SegmentStats().Segments
	if segs < batches {
		t.Fatalf("setup sealed only %d segments, want >= %d", segs, batches)
	}
	return n
}

// TestCatalogServesDurableDirectory: a durable directory registers,
// serves queries, and hot-reloads.
func TestCatalogServesDurableDirectory(t *testing.T) {
	dir := t.TempDir()
	events := buildSegmentedDir(t, dir, 8, 4)

	c := New(Config{})
	d, err := c.AddDir("dur", dir)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.Service().Do(context.Background(), service.Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TotalRows != events {
		t.Fatalf("durable dataset returned %d rows, want %d", resp.TotalRows, events)
	}
	if st := d.Service().DatasetStats("dur"); st.Durable.Dir != dir || st.Durable.SegmentFiles == 0 {
		t.Fatalf("stats missing durable figures: %+v", st.Durable)
	}
}

// The satellite scenario: a hot-swap lands while the old dataset's
// compaction is in flight. Queries started on the old service must
// finish on their pinned snapshot, and the reloaded dataset must open
// from the compacted manifest.
func TestHotSwapDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	events := buildSegmentedDir(t, dir, 16, 4)

	c := New(Config{})
	d, err := c.AddDir("x", dir)
	if err != nil {
		t.Fatal(err)
	}
	oldSvc := d.Service()
	segsBefore := oldSvc.DatasetStats("x").Store.Segments

	// queries hammer the old service while compaction runs and the
	// catalog entry is swapped out from under it
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := oldSvc.Do(context.Background(), service.Request{Query: demoQuery})
				if err != nil {
					errs <- err
					return
				}
				if resp.TotalRows != events {
					errs <- fmt.Errorf("in-flight query on old dataset saw %d rows, want %d", resp.TotalRows, events)
					return
				}
			}
		}()
	}

	// compact the old dataset's store concurrently with the queries;
	// wait for at least one pass to land so the manifest on disk is
	// known to carry a compacted edition before the swap
	compactDone := make(chan eventstore.CompactionResult, 1)
	go func() { compactDone <- oldSvc.DB().Compact() }()
	deadline := time.Now().Add(5 * time.Second)
	for oldSvc.DB().DurableStats().Compactions == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// hot-swap while the compaction loop may still be mid-pass: Load
	// drains it via Close before the replacement opens the directory
	if _, err := c.Load("x", dir); err != nil {
		t.Fatal(err)
	}
	res := <-compactDone
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if res.Passes == 0 {
		t.Fatal("compaction performed no merges")
	}

	// the swapped-in dataset reads whatever manifest edition the
	// compactor had installed; reloading once more after compaction
	// finished must see the fully compacted manifest
	d2, err := c.Load("x", dir)
	if err != nil {
		t.Fatal(err)
	}
	st := d2.Service().DatasetStats("x")
	if st.Store.Segments >= segsBefore {
		t.Fatalf("reloaded dataset has %d segments, want fewer than %d (compacted manifest)", st.Store.Segments, segsBefore)
	}
	if st.Store.Events != events {
		t.Fatalf("reloaded dataset has %d events, want %d", st.Store.Events, events)
	}
	resp, err := d2.Service().Do(context.Background(), service.Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TotalRows != events {
		t.Fatalf("compacted dataset returned %d rows, want %d", resp.TotalRows, events)
	}
}

// A hot-swap must refuse a path that holds no durable store — missing,
// an empty directory, a plain file — and leave the dataset serving its
// old data, instead of creating and swapping in an empty store.
func TestLoadRefusesNonStorePath(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good")
	if err := buildDB(t, "x", 6).SaveDir(good); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}

	c := New(Config{})
	defer c.Close()
	if _, err := c.AddDir("inv", good); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing"), empty, file} {
		if _, err := c.Load("inv", path); err == nil {
			t.Fatalf("Load(%s) swapped in a path holding no store", path)
		}
		if _, err := c.Load("fresh", path); err == nil {
			t.Fatalf("Load(%s) registered a path holding no store", path)
		}
		d, err := c.Get("inv")
		if err != nil {
			t.Fatal(err)
		}
		if d.Path() != good {
			t.Fatalf("after refused Load(%s) the dataset serves %s", path, d.Path())
		}
		resp, err := d.Service().Do(context.Background(), service.Request{Query: demoQuery})
		if err != nil || resp.TotalRows != 6 {
			t.Fatalf("after refused Load(%s): %d rows, err %v; want the old 6", path, resp.TotalRows, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Fatal("refused Load created the missing directory")
	}
}

// A query that reaches a segment file that cannot be decoded fails over
// HTTP instead of answering without its rows, and the failure is the
// server's: 500 storage_error, never a 4xx blaming the request.
func TestHTTPQueryOnCorruptSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := buildDB(t, "x", 6).SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(segs) == 0 {
		t.Fatal("no segment files")
	}
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xff
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(Config{})
	defer c.Close()
	if _, err := c.AddDir("inv", dir); err != nil {
		t.Fatal(err)
	}
	rec := do(t, c.Handler(), http.MethodPost, "/api/v1/query", `{"query": "proc p write file f as evt return p, f"}`)
	wantStorageError(t, "query", rec)
	if !strings.Contains(rec.Body.String(), "corrupt") {
		t.Fatalf("body %s does not name the corruption", rec.Body)
	}
}

// A served directory acknowledges an ingest only after its WAL fsync:
// the store's default options sync the log once per batch, so a 200
// from the ingest endpoint survives power loss, not just a crash.
func TestDurableIngestIsFsynced(t *testing.T) {
	c := New(Config{})
	defer c.Close()
	d, err := c.AddDir("live", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, c.Handler(), http.MethodPost, "/api/v1/ingest?dataset=live", watchIngestLine("x", 0)); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body.String())
	}
	if st := d.Service().DatasetStats("live").Durable; st.WALSyncs < 1 || st.WALRecords == 0 {
		t.Fatalf("acknowledged ingest left %d WAL records after %d fsyncs, want at least one fsync", st.WALRecords, st.WALSyncs)
	}
}
