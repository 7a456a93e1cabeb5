package catalog

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/service"
	"github.com/aiql/aiql/internal/shard"
)

// shardDay returns the unix-nano start of a May 2018 day, the axis the
// partition maps in these tests slice on.
func shardDay(d int) int64 {
	return time.Date(2018, 5, d, 0, 0, 0, 0, time.UTC).UnixNano()
}

// shardCorpus builds a deterministic event set spanning May 10-12, all
// matching demoQuery, with per-event file paths so row identity is
// byte-comparable across executions.
func shardCorpus() []aiql.Record {
	var recs []aiql.Record
	for i := 0; i < 60; i++ {
		recs = append(recs, aiql.Record{
			AgentID: uint32(1 + i%3),
			Subject: aiql.Process{PID: 100, ExeName: "worker.exe", Path: `C:\bin\worker.exe`, User: "alice"},
			Op:      aiql.OpWrite,
			ObjType: aiql.EntityFile,
			ObjFile: aiql.File{Path: fmt.Sprintf(`C:\logs\evt%02d.log`, i)},
			StartTS: shardDay(10+i%3) + int64(i)*int64(time.Minute),
		})
	}
	return recs
}

// writeMemberDir persists records into a durable store directory and
// closes it, leaving the directory for a shard member to open.
func writeMemberDir(t testing.TB, dir string, recs []aiql.Record) {
	t.Helper()
	storage := eventstore.DefaultOptions()
	storage.Dir = dir
	db, err := aiql.OpenDirWithOptions(storage, aiql.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	db.AppendAll(recs)
	db.Flush()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// splitByDay partitions the corpus at the given day boundary.
func splitByDay(recs []aiql.Record, boundary int64) (before, after []aiql.Record) {
	for _, r := range recs {
		if r.StartTS < boundary {
			before = append(before, r)
		} else {
			after = append(after, r)
		}
	}
	return
}

// newShardedCatalog assembles the golden-test topology: dataset "all"
// holds the whole corpus unsharded; dataset "sharded" splits it at May
// 11 between a local member directory and a remote member served by a
// second catalog over HTTP. Returns the coordinator catalog and the
// member server (closed via t.Cleanup).
func newShardedCatalog(t *testing.T, reg *obs.Registry) *Catalog {
	t.Helper()
	recs := shardCorpus()
	early, late := splitByDay(recs, shardDay(11))
	earlyDir, lateDir := t.TempDir(), t.TempDir()
	writeMemberDir(t, earlyDir, early)
	writeMemberDir(t, lateDir, late)

	mcat := New(Config{})
	if _, err := mcat.AddDir("events", lateDir); err != nil {
		t.Fatal(err)
	}
	msrv := httptest.NewServer(mcat.Handler())
	t.Cleanup(msrv.Close)

	cat := New(Config{Metrics: reg})
	all := aiql.Open()
	all.AppendAll(recs)
	all.Flush()
	if _, err := cat.AddDB("all", all); err != nil {
		t.Fatal(err)
	}
	_, err := cat.AddSharded(shard.DatasetSpec{
		Dataset: "sharded",
		Members: []shard.MemberSpec{
			{Name: "early", Dir: earlyDir, To: "05/11/2018"},
			{Name: "late", URL: msrv.URL, Dataset: "events", From: "05/11/2018"},
		},
	}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestShardedGolden is the acceptance golden test: a 2-way sharded
// dataset (one local member, one remote) answers with byte-identical
// rows, ordering, and cursor pages to the same data unsharded —
// including prepared-statement execution — and the partition map prunes
// members provably outside a query's window, observed through the
// aiql_shard_* metrics.
func TestShardedGolden(t *testing.T) {
	reg := obs.NewRegistry()
	cat := newShardedCatalog(t, reg)
	ctx := context.Background()
	sharded, err := cat.Resolve("sharded")
	if err != nil {
		t.Fatal(err)
	}
	unsharded, err := cat.Resolve("all")
	if err != nil {
		t.Fatal(err)
	}

	// full-scan equivalence
	want, err := unsharded.Do(ctx, service.Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Do(ctx, service.Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial || len(got.Warnings) != 0 {
		t.Fatalf("healthy scatter flagged partial: %+v", got.Warnings)
	}
	if !reflect.DeepEqual(got.Columns, want.Columns) || got.TotalRows != want.TotalRows {
		t.Fatalf("shape: %v/%d vs %v/%d", got.Columns, got.TotalRows, want.Columns, want.TotalRows)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatal("sharded rows are not byte-identical to the unsharded execution")
	}

	// cursor pages walk in lockstep
	gr := service.Request{Query: demoQuery, Limit: 7}
	wr := service.Request{Query: demoQuery, Limit: 7}
	for page := 0; ; page++ {
		gp, err := sharded.Do(ctx, gr)
		if err != nil {
			t.Fatalf("page %d sharded: %v", page, err)
		}
		wp, err := unsharded.Do(ctx, wr)
		if err != nil {
			t.Fatalf("page %d unsharded: %v", page, err)
		}
		if !reflect.DeepEqual(gp.Rows, wp.Rows) {
			t.Fatalf("page %d diverges", page)
		}
		if (gp.NextCursor == "") != (wp.NextCursor == "") {
			t.Fatalf("page %d: cursor presence diverges (%q vs %q)", page, gp.NextCursor, wp.NextCursor)
		}
		if gp.NextCursor == "" {
			break
		}
		gr.Cursor, wr.Cursor = gp.NextCursor, wp.NextCursor
	}

	// prepared statements fan out and stay byte-identical
	const paramQuery = `(at $day) proc p["%worker.exe"] write file f as evt return p, f`
	pg, err := sharded.Prepare(paramQuery)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := unsharded.Prepare(paramQuery)
	if err != nil {
		t.Fatal(err)
	}
	day := map[string]any{"day": "05/10/2018"}
	got, err = sharded.Do(ctx, service.Request{StmtID: pg.StmtID, Params: day})
	if err != nil {
		t.Fatal(err)
	}
	want, err = unsharded.Do(ctx, service.Request{StmtID: pw.StmtID, Params: day})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("prepared execution diverges (%d vs %d rows)", len(got.Rows), len(want.Rows))
	}

	// the May 10 window proves the remote member (May 11+) irrelevant:
	// it was pruned, not contacted
	st := sharded.DatasetStats("sharded")
	if st.Shards == nil {
		t.Fatal("sharded dataset stats carry no shard figures")
	}
	for _, m := range st.Shards.Members {
		switch m.Shard {
		case "late":
			if m.Pruned == 0 {
				t.Errorf("late member was never pruned: %+v", m)
			}
		case "early":
			if m.Pruned != 0 {
				t.Errorf("early member was pruned for its own window: %+v", m)
			}
		}
	}

	// the same pruning figures surface as aiql_shard_* series
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	metrics := rec.Body.String()
	var prunedSeries string
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "aiql_shard_pruned_total") && strings.Contains(line, `shard="late"`) {
			prunedSeries = line
		}
	}
	if prunedSeries == "" || strings.HasSuffix(prunedSeries, " 0") {
		t.Fatalf("aiql_shard_pruned_total for the late member missing or zero: %q", prunedSeries)
	}
	for _, name := range []string{"aiql_shard_queries_total", "aiql_shard_fanouts_total", "aiql_shard_healthy", "aiql_shard_rows_total"} {
		if !strings.Contains(metrics, name) {
			t.Errorf("metrics exposition is missing %s", name)
		}
	}

	// coordinator healthz reports sharded readiness
	hrec := httptest.NewRecorder()
	cat.Handler().ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/api/v1/healthz?dataset=sharded", nil))
	if hrec.Code != http.StatusOK {
		t.Fatalf("coordinator healthz: %d %s", hrec.Code, hrec.Body.String())
	}
	var h service.Health
	if err := json.Unmarshal(hrec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if !h.Sharded || h.Status != "ok" {
		t.Fatalf("coordinator health %+v", h)
	}
}

// TestShardedStreamGolden: the streaming endpoint merges member streams
// into the same global order, with the limit pushed down.
func TestShardedStreamGolden(t *testing.T) {
	cat := newShardedCatalog(t, nil)
	unsharded, err := cat.Resolve("all")
	if err != nil {
		t.Fatal(err)
	}
	want, err := unsharded.Do(context.Background(), service.Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(service.QueryRequest{Query: demoQuery, Dataset: "sharded", Limit: 11})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/query/stream", strings.NewReader(string(body)))
	cat.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream: %d %s", rec.Code, rec.Body.String())
	}
	var rows [][]string
	var trailer service.StreamTrailer
	sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
	first := true
	for sc.Scan() {
		line := sc.Text()
		switch {
		case first:
			first = false
		case strings.HasPrefix(line, "["):
			var r []string
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			rows = append(rows, r)
		default:
			if err := json.Unmarshal([]byte(line), &trailer); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !trailer.Done || trailer.Partial {
		t.Fatalf("trailer %+v", trailer)
	}
	if len(rows) != 11 || !reflect.DeepEqual(rows, want.Rows[:11]) {
		t.Fatalf("streamed %d rows, want the unsharded sorted prefix of 11", len(rows))
	}
}

// TestShardedMemberDiesMidStream is the degradation satellite: a remote
// member that dies after contributing rows becomes a typed
// shard_unavailable warning in the stream trailer — partial, not
// failed — the healthy member's rows all arrive, and repeated queries
// do not leak goroutines.
func TestShardedMemberDiesMidStream(t *testing.T) {
	recs := shardCorpus()
	localDir := t.TempDir()
	writeMemberDir(t, localDir, recs[:40])

	// flaky member: streams a header and two rows, then drops the
	// connection without a trailer
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		enc.Encode(service.StreamHeader{Columns: []string{"p", "f"}})
		enc.Encode([]string{"~tail1", "~tail1"})
		enc.Encode([]string{"~tail2", "~tail2"})
		w.(http.Flusher).Flush()
		if hj, ok := w.(http.Hijacker); ok {
			conn, _, _ := hj.Hijack()
			conn.Close()
		}
	}))
	defer flaky.Close()

	cat := New(Config{})
	if _, err := cat.AddSharded(shard.DatasetSpec{
		Dataset: "flaky",
		Members: []shard.MemberSpec{
			{Name: "solid", Dir: localDir},
			{Name: "dying", URL: flaky.URL},
		},
	}, ShardOptions{Retries: -1}); err != nil {
		t.Fatal(err)
	}

	query := func() service.StreamTrailer {
		body, _ := json.Marshal(service.QueryRequest{Query: demoQuery, Dataset: "flaky"})
		rec := httptest.NewRecorder()
		cat.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query/stream", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("stream: %d %s", rec.Code, rec.Body.String())
		}
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		var tr service.StreamTrailer
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
			t.Fatalf("trailer: %v (%q)", err, lines[len(lines)-1])
		}
		if rowLines := len(lines) - 2; rowLines < 40 {
			t.Fatalf("partial stream delivered %d rows, want at least the healthy member's 40", rowLines)
		}
		return tr
	}

	tr := query()
	if !tr.Done || !tr.Partial {
		t.Fatalf("trailer %+v, want done+partial", tr)
	}
	if len(tr.Warnings) != 1 || tr.Warnings[0].Code != service.CodeShardUnavailable || tr.Warnings[0].Shard != "dying" {
		t.Fatalf("warnings %+v, want one shard_unavailable naming the dying member", tr.Warnings)
	}

	// repeated partial queries must not accumulate member goroutines
	query()
	runtime.GC()
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		query()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d across partial queries", baseline, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// buffered path reports the same degradation
	svc, err := cat.Resolve("flaky")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Do(context.Background(), service.Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Partial || resp.NextCursor != "" {
		t.Fatalf("buffered partial: partial=%v cursor=%q", resp.Partial, resp.NextCursor)
	}

	// require_all flips degradation into a 503 shard_unavailable
	_, err = svc.Do(context.Background(), service.Request{Query: demoQuery, RequireAll: true})
	if err == nil {
		t.Fatal("require_all succeeded with a dead member")
	}
	if body := service.ErrorBody(err); body.Code != service.CodeShardUnavailable {
		t.Fatalf("require_all error code %q, want shard_unavailable", body.Code)
	}
}

// TestShardedDatasetGuards: sharded datasets refuse hot-swap and
// duplicate registration, and reject ingest at the coordinator.
func TestShardedDatasetGuards(t *testing.T) {
	localDir := t.TempDir()
	writeMemberDir(t, localDir, shardCorpus()[:5])
	cat := New(Config{})
	spec := shard.DatasetSpec{Dataset: "s", Members: []shard.MemberSpec{{Name: "m", Dir: localDir}}}
	if _, err := cat.AddSharded(spec, ShardOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AddSharded(spec, ShardOptions{}); err == nil {
		t.Fatal("duplicate sharded dataset registered")
	}
	if _, err := cat.Load("s", localDir); err == nil {
		t.Fatal("sharded dataset accepted a hot-swap")
	}
	svc, err := cat.Resolve("s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ingest(context.Background(), "agent", []aiql.Record{{}}); err == nil {
		t.Fatal("coordinator accepted ingest")
	}
}

// TestCatalogCloseReleasesMembers: Close tears a sharded dataset down
// through its coordinator to the local members — a member directory's
// LOCK flock is released, so the store can be reopened — and leaves
// the catalog answering lookups with the closed (dataset_reloading)
// error. A durable unsharded dataset closes the same way, and a second
// Close is a no-op.
func TestCatalogCloseReleasesMembers(t *testing.T) {
	recs := shardCorpus()
	early, late := splitByDay(recs, shardDay(11))
	earlyDir, lateDir, plainDir := t.TempDir(), t.TempDir(), t.TempDir()
	writeMemberDir(t, earlyDir, early)
	writeMemberDir(t, lateDir, late)
	writeMemberDir(t, plainDir, recs)

	cat := New(Config{CompactInterval: time.Hour})
	if _, err := cat.AddSharded(shard.DatasetSpec{
		Dataset: "sharded",
		Members: []shard.MemberSpec{
			{Name: "early", Dir: earlyDir, To: "05/11/2018"},
			{Name: "late", Dir: lateDir, From: "05/11/2018"},
		},
	}, ShardOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AddDir("plain", plainDir); err != nil {
		t.Fatal(err)
	}
	if db, err := aiql.OpenDir(earlyDir); err == nil {
		db.Close()
		t.Fatal("member directory opened twice while the catalog holds it")
	}

	if err := cat.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := cat.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	for _, dir := range []string{earlyDir, lateDir, plainDir} {
		db, err := aiql.OpenDir(dir)
		if err != nil {
			t.Fatalf("reopen %s after catalog close: %v", dir, err)
		}
		db.Close()
	}
	_, err := cat.Resolve("sharded")
	if !errors.Is(err, aiql.ErrClosed) {
		t.Fatalf("Resolve after close: %v, want aiql.ErrClosed", err)
	}
	if body := service.ErrorBody(err); body.Code != service.CodeDatasetReloading {
		t.Fatalf("closed-catalog error code %q, want %q", body.Code, service.CodeDatasetReloading)
	}
	if _, err := cat.Load("plain", plainDir); !errors.Is(err, aiql.ErrClosed) {
		t.Fatalf("Load after close: %v, want aiql.ErrClosed", err)
	}
}
