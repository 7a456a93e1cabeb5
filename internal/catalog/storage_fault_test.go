package catalog

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/service"
	"github.com/aiql/aiql/internal/shard"
)

// wantStorageError asserts rec is a 500 storage_error ErrorResponse: a
// fault of the server's storage, never a 4xx that tells the client its
// request was bad.
func wantStorageError(t *testing.T, what string, rec *httptest.ResponseRecorder) {
	t.Helper()
	var body service.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: %d %q is not an ErrorResponse: %v", what, rec.Code, rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || body.Code != service.CodeStorageError {
		t.Fatalf("%s: %d %s, want 500 %s", what, rec.Code, rec.Body.String(), service.CodeStorageError)
	}
}

// corruptSegments flips the last byte (the footer magic) of every
// segment file in dir.
func corruptSegments(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files in %s (%v)", dir, err)
	}
	for _, seg := range segs {
		buf, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)-1] ^= 0xff
		if err := os.WriteFile(seg, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIngestWALFaultIsStorageError: an ingest whose WAL fsync fails
// answers 500 storage_error, and so does every later ingest against the
// poisoned log, so a writer keeps its batches instead of dropping them.
func TestIngestWALFaultIsStorageError(t *testing.T) {
	storage := eventstore.DefaultOptions()
	storage.Dir = t.TempDir()
	storage.SyncWAL = true
	db, err := aiql.OpenDirWithOptions(storage, aiql.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cat := New(Config{})
	defer cat.Close()
	if _, err := cat.AddDB("live", db); err != nil {
		t.Fatal(err)
	}
	h := cat.Handler()
	restore := durable.InjectFaults(func(site durable.IOSite) durable.Fault {
		if site == durable.SiteWALSync {
			return durable.FailOp
		}
		return durable.NoFault
	})
	defer restore()
	wantStorageError(t, "ingest", do(t, h, http.MethodPost, "/api/v1/ingest?dataset=live", watchIngestLine("x", 0)))
	wantStorageError(t, "ingest after the fault", do(t, h, http.MethodPost, "/api/v1/ingest?dataset=live", watchIngestLine("x", 1)))
}

// TestShardedMemberStorageFaultIsPartial: a remote member whose store
// fails answers 5xx, which the coordinator reads as that member being
// unavailable: the query succeeds as a partial result with a
// shard_unavailable warning naming it, holding every healthy row.
func TestShardedMemberStorageFaultIsPartial(t *testing.T) {
	recs := shardCorpus()
	early, late := splitByDay(recs, shardDay(11))
	earlyDir, lateDir := t.TempDir(), t.TempDir()
	writeMemberDir(t, earlyDir, early)
	writeMemberDir(t, lateDir, late)
	corruptSegments(t, lateDir)

	mcat := New(Config{})
	defer mcat.Close()
	if _, err := mcat.AddDir("events", lateDir); err != nil {
		t.Fatal(err)
	}
	msrv := httptest.NewServer(mcat.Handler())
	defer msrv.Close()

	cat := New(Config{})
	defer cat.Close()
	if _, err := cat.AddSharded(shard.DatasetSpec{
		Dataset: "sharded",
		Members: []shard.MemberSpec{
			{Name: "early", Dir: earlyDir, To: "05/11/2018"},
			{Name: "late", URL: msrv.URL, Dataset: "events", From: "05/11/2018"},
		},
	}, ShardOptions{Retries: -1}); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(service.QueryRequest{Query: demoQuery, Dataset: "sharded"})
	rec := do(t, cat.Handler(), http.MethodPost, "/api/v1/query", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s, want 200 partial", rec.Code, rec.Body.String())
	}
	var got service.QueryResult
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Partial || len(got.Warnings) != 1 ||
		got.Warnings[0].Code != service.CodeShardUnavailable || got.Warnings[0].Shard != "late" {
		t.Fatalf("partial=%v warnings=%+v, want one shard_unavailable naming the late member", got.Partial, got.Warnings)
	}
	if got.TotalRows != len(early) {
		t.Fatalf("partial result holds %d rows, want the early member's %d", got.TotalRows, len(early))
	}
}
