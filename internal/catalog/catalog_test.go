package catalog

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/service"
)

// buildDB assembles a small database whose every event matches
// demoQuery, with rows distinguishable per dataset via the file prefix.
func buildDB(t testing.TB, prefix string, events int) *aiql.DB {
	t.Helper()
	db := aiql.Open()
	recs := make([]aiql.Record, 0, events)
	for i := 0; i < events; i++ {
		recs = append(recs, aiql.Record{
			AgentID: uint32(1 + i%3),
			Subject: aiql.Process{PID: 100, ExeName: "worker.exe", Path: `C:\bin\worker.exe`, User: "alice"},
			Op:      aiql.OpWrite,
			ObjType: aiql.EntityFile,
			ObjFile: aiql.File{Path: fmt.Sprintf(`C:\%s\out%d.log`, prefix, i)},
			StartTS: int64(i) * int64(time.Second),
		})
	}
	db.AppendAll(recs)
	db.Flush()
	return db
}

const demoQuery = `proc p["%worker.exe"] write file f as evt return p, f`

func mustAdd(t *testing.T, c *Catalog, name string, db *aiql.DB) {
	t.Helper()
	if _, err := c.AddDB(name, db); err != nil {
		t.Fatal(err)
	}
}

// TestIndependentDatasets: two datasets answer the same query text with
// their own data and keep separate cache/stat counters.
func TestIndependentDatasets(t *testing.T) {
	c := New(Config{})
	mustAdd(t, c, "alpha", buildDB(t, "alpha", 10))
	mustAdd(t, c, "beta", buildDB(t, "beta", 25))

	ctx := context.Background()
	alpha, err := c.Resolve("alpha")
	if err != nil {
		t.Fatal(err)
	}
	beta, err := c.Resolve("beta")
	if err != nil {
		t.Fatal(err)
	}
	ra, err := alpha.Do(ctx, service.Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := beta.Do(ctx, service.Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}
	if ra.TotalRows != 10 || rb.TotalRows != 25 {
		t.Errorf("rows alpha=%d beta=%d, want 10/25", ra.TotalRows, rb.TotalRows)
	}
	if !strings.Contains(ra.Rows[0][1], "alpha") || !strings.Contains(rb.Rows[0][1], "beta") {
		t.Errorf("datasets served each other's data: %q / %q", ra.Rows[0][1], rb.Rows[0][1])
	}
	// repeat on alpha only: its cache takes the hit, beta's counters idle
	if _, err := alpha.Do(ctx, service.Request{Query: demoQuery}); err != nil {
		t.Fatal(err)
	}
	if st := alpha.Stats(); st.Queries != 2 || st.CacheHits != 1 {
		t.Errorf("alpha stats %+v, want 2 queries / 1 hit", st)
	}
	if st := beta.Stats(); st.Queries != 1 || st.CacheHits != 0 {
		t.Errorf("beta stats %+v, want 1 query / 0 hits", st)
	}
	// default dataset is the first registered
	if def, err := c.Resolve(""); err != nil || def != alpha {
		t.Errorf("default dataset is not alpha (err %v)", err)
	}
}

// TestHotSwapKeepsInflightQueries: a dataset hot-swap must not fail
// queries running on the old store — they hold the old service and its
// snapshot and finish normally.
func TestHotSwapKeepsInflightQueries(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old")
	newPath := filepath.Join(dir, "new")
	if err := buildDB(t, "old", 2000).SaveDir(oldPath); err != nil {
		t.Fatal(err)
	}
	if err := buildDB(t, "new", 7).SaveDir(newPath); err != nil {
		t.Fatal(err)
	}

	c := New(Config{})
	if _, err := c.AddDir("inv", oldPath); err != nil {
		t.Fatal(err)
	}
	oldSvc, err := c.Resolve("inv")
	if err != nil {
		t.Fatal(err)
	}

	// Stream slowly from the old dataset while the swap happens: the
	// row callback blocks until the swap completed, so the stream is
	// provably in flight across the swap.
	swapped := make(chan struct{})
	var once sync.Once
	rows := 0
	var streamErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, streamErr = oldSvc.DoStream(context.Background(), service.Request{Query: demoQuery},
			func(cols []string, cached bool) error { return nil },
			func(row []string) error {
				once.Do(func() { <-swapped })
				rows++
				return nil
			})
	}()

	if _, err := c.Load("inv", newPath); err != nil {
		t.Fatal(err)
	}
	close(swapped)
	<-done
	if streamErr != nil {
		t.Fatalf("in-flight stream failed across hot-swap: %v", streamErr)
	}
	if rows != 2000 {
		t.Errorf("in-flight stream saw %d rows, want the old dataset's 2000", rows)
	}

	newSvc, err := c.Resolve("inv")
	if err != nil {
		t.Fatal(err)
	}
	if newSvc == oldSvc {
		t.Fatal("hot-swap did not replace the service")
	}
	resp, err := newSvc.Do(context.Background(), service.Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TotalRows != 7 || !strings.Contains(resp.Rows[0][1], "new") {
		t.Errorf("post-swap query returned %d rows (%q), want the new dataset's 7", resp.TotalRows, resp.Rows[0][1])
	}
	// fresh caches and counters on the swapped-in dataset
	if st := newSvc.Stats(); st.Queries != 1 {
		t.Errorf("swapped-in service stats %+v, want exactly 1 query", st)
	}
}

// TestHTTPDatasetRoutingAndManagement drives the catalog handler end to
// end: listing, per-dataset queries, per-dataset stats, and a hot-swap.
func TestHTTPDatasetRoutingAndManagement(t *testing.T) {
	dir := t.TempDir()
	betaPath := filepath.Join(dir, "beta")
	if err := buildDB(t, "beta2", 4).SaveDir(betaPath); err != nil {
		t.Fatal(err)
	}

	c := New(Config{})
	mustAdd(t, c, "alpha", buildDB(t, "alpha", 3))
	mustAdd(t, c, "beta", buildDB(t, "beta", 5))
	h := c.Handler()

	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		var r *http.Request
		if body == "" {
			r = httptest.NewRequest(method, path, nil)
		} else {
			r = httptest.NewRequest(method, path, strings.NewReader(body))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}

	// dataset routing on the query endpoint
	rec := do(http.MethodPost, "/api/v1/query", `{"query": "proc p write file f as evt return p, f", "dataset": "beta"}`)
	var qr struct {
		TotalRows int `json:"total_rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil || rec.Code != 200 {
		t.Fatalf("query beta: %d %s", rec.Code, rec.Body.String())
	}
	if qr.TotalRows != 5 {
		t.Errorf("beta rows = %d, want 5", qr.TotalRows)
	}
	if rec := do(http.MethodPost, "/api/v1/query", `{"query": "proc p write file f as evt return p, f", "dataset": "nope"}`); rec.Code != http.StatusNotFound {
		t.Errorf("unknown dataset status %d, want 404", rec.Code)
	}

	// listing with per-dataset stats
	rec = do(http.MethodGet, "/api/v1/datasets", "")
	var list DatasetsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Default != "alpha" || len(list.Datasets) != 2 {
		t.Fatalf("datasets list %+v", list)
	}
	for _, d := range list.Datasets {
		if d.Dataset == "beta" && d.Service.Queries != 1 {
			t.Errorf("beta served %d queries, want 1", d.Service.Queries)
		}
		if d.Dataset == "alpha" && d.Service.Queries != 0 {
			t.Errorf("alpha served %d queries, want 0", d.Service.Queries)
		}
	}

	// per-dataset stats endpoint
	rec = do(http.MethodGet, "/api/v1/stats?dataset=beta", "")
	var st service.DatasetStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Store.Events != 5 {
		t.Errorf("beta stats report %d events, want 5", st.Store.Events)
	}

	// hot-swap beta from a snapshot file
	rec = do(http.MethodPost, "/api/v1/datasets/beta/load", `{"path": `+fmt.Sprintf("%q", betaPath)+`}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("load: %d %s", rec.Code, rec.Body.String())
	}
	var lr LoadResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Dataset != "beta" || lr.Stats.Events != 4 {
		t.Errorf("load response %+v, want beta with 4 events", lr)
	}
	rec = do(http.MethodPost, "/api/v1/query", `{"query": "proc p write file f as evt return p, f", "dataset": "beta"}`)
	if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.TotalRows != 4 {
		t.Errorf("post-swap beta rows = %d, want 4", qr.TotalRows)
	}

	// loading a dataset with no backing file and no path is a 400
	if rec := do(http.MethodPost, "/api/v1/datasets/alpha/load", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("pathless load of in-memory dataset: status %d, want 400", rec.Code)
	}
	// a pathless load of an unregistered name is a 404, not a 400
	if rec := do(http.MethodPost, "/api/v1/datasets/ghost/load", ""); rec.Code != http.StatusNotFound {
		t.Errorf("pathless load of unknown dataset: status %d, want 404", rec.Code)
	}
}

// TestCatalogScanPoolFollowsWorkers: the shared scan pool takes its
// size from Service.Workers, clamped to the cores available, and every
// dataset scans on it: min(workers, GOMAXPROCS)-1 helpers beside each
// query's own goroutine.
func TestCatalogScanPoolFollowsWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, helpers int }{
		{0, procs - 1}, // Workers defaults to GOMAXPROCS
		{1, 0},
		{2, min(2, procs) - 1},
		{procs + 3, procs - 1},
	} {
		c := New(Config{Service: service.Config{Workers: tc.workers}})
		d, err := c.AddDB("ds", buildDB(t, "a", 3))
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Service().DatasetStats("ds").Scan.Workers; got != tc.helpers {
			t.Errorf("Workers %d: scan pool has %d helpers, want %d", tc.workers, got, tc.helpers)
		}
		c.Close()
	}
}
