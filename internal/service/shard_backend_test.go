package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/engine"
)

// fakeShards scripts a ShardBackend outcome, counting invocations so
// tests can observe caching behavior.
type fakeShards struct {
	rows  [][]string
	warns []ShardWarning
	err   error
	gen   atomic.Uint64
	runs  atomic.Int64
}

func (f *fakeShards) RunStream(ctx context.Context, q ShardQuery, header func([]string) error, rows func([][]string) error) (engine.ExecStats, []ShardWarning, error) {
	f.runs.Add(1)
	if err := header(q.Columns); err != nil {
		return engine.ExecStats{}, nil, err
	}
	if f.err != nil {
		return engine.ExecStats{}, f.warns, f.err
	}
	all := f.rows
	if q.Limit > 0 && len(all) > q.Limit {
		all = all[:q.Limit]
	}
	// chunked the way the coordinator's merge hands rows over when no
	// member keeps it waiting: the first row alone, then full chunks
	for sent, n := 0, 1; sent < len(all); n = streamChunkRows {
		chunk := all[sent:min(sent+n, len(all))]
		if err := rows(chunk); err != nil {
			return engine.ExecStats{}, nil, err
		}
		sent += len(chunk)
	}
	return engine.ExecStats{ScannedEvents: int64(len(all))}, f.warns, nil
}

func (f *fakeShards) Generation() uint64 { return f.gen.Load() }
func (f *fakeShards) Stats() *ShardStats {
	return &ShardStats{Queries: uint64(f.runs.Load()), Generation: f.gen.Load()}
}
func (f *fakeShards) Close() error { return nil }

const shardTestQuery = `proc p write file f as evt return p, f`

func newShardedService(t *testing.T, f *fakeShards, cfg Config) *Service {
	t.Helper()
	svc := NewSharded(aiql.Open(), f, cfg)
	if !svc.Sharded() {
		t.Fatal("NewSharded service does not report Sharded()")
	}
	return svc
}

// TestShardRetryAfterPropagates rides alongside
// TestRetryAfterProportional: when a member 429s, the coordinator's
// propagated hint — not a locally synthesized one — reaches the
// client's Retry-After header.
func TestShardRetryAfterPropagates(t *testing.T) {
	f := &fakeShards{err: WithRetryHint(fmt.Errorf("shard m2: %w", ErrClientThrottled), 9)}
	svc := newShardedService(t, f, Config{})
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query",
		`{"query": "`+shardTestQuery+`"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "9" {
		t.Fatalf("Retry-After = %q, want the member's own hint 9", got)
	}
	if e := decodeError(t, rec); e.Code != CodeThrottled {
		t.Errorf("code %q, want %q", e.Code, CodeThrottled)
	}
}

// TestShardedPartialResponse: member failures surface as typed warnings
// with partial=true, partial results are never cached and never hand
// out pagination cursors.
func TestShardedPartialResponse(t *testing.T) {
	f := &fakeShards{
		rows:  [][]string{{"worker.exe", "a.log"}, {"worker.exe", "b.log"}},
		warns: []ShardWarning{{Code: CodeShardUnavailable, Shard: "m2", Error: "connection refused"}},
	}
	svc := newShardedService(t, f, Config{})
	resp, err := svc.Do(context.Background(), Request{Query: shardTestQuery, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Partial || len(resp.Warnings) != 1 || resp.Warnings[0].Shard != "m2" {
		t.Fatalf("partial=%v warnings=%+v", resp.Partial, resp.Warnings)
	}
	if resp.Warnings[0].Code != CodeShardUnavailable {
		t.Errorf("warning code %q, want %q", resp.Warnings[0].Code, CodeShardUnavailable)
	}
	if resp.NextCursor != "" {
		t.Error("partial result handed out a pagination cursor (its later pages could silently differ once the member returns)")
	}
	if _, err := svc.Do(context.Background(), Request{Query: shardTestQuery, Limit: 1}); err != nil {
		t.Fatal(err)
	}
	if f.runs.Load() != 2 {
		t.Errorf("backend ran %d times, want 2 (partial results must not be cached)", f.runs.Load())
	}

	// the same query with healthy members: cached, paginated
	f.warns = nil
	resp, err = svc.Do(context.Background(), Request{Query: shardTestQuery, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Partial || resp.NextCursor == "" {
		t.Fatalf("healthy scatter: partial=%v cursor=%q", resp.Partial, resp.NextCursor)
	}
	page2, err := svc.Do(context.Background(), Request{Query: shardTestQuery, Cursor: resp.NextCursor, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Rows) != 1 || page2.Rows[0][1] != "b.log" {
		t.Fatalf("page 2 = %+v", page2.Rows)
	}
	runs := f.runs.Load()
	if _, err := svc.Do(context.Background(), Request{Query: shardTestQuery, Limit: 1}); err != nil {
		t.Fatal(err)
	}
	if f.runs.Load() != runs {
		t.Error("healthy sharded result was not served from cache")
	}

	// a member commit moves the generation; the cache invalidates
	f.gen.Add(1)
	if _, err := svc.Do(context.Background(), Request{Query: shardTestQuery, Limit: 1}); err != nil {
		t.Fatal(err)
	}
	if f.runs.Load() != runs+1 {
		t.Error("generation change did not invalidate the sharded result cache")
	}
}

// TestShardedStreamTrailer: the streaming endpoint carries partiality in
// its trailer, after delivering every healthy member's rows.
func TestShardedStreamTrailer(t *testing.T) {
	f := &fakeShards{
		rows:  [][]string{{"worker.exe", "a.log"}},
		warns: []ShardWarning{{Code: CodeShardUnavailable, Shard: "dead", Error: "eof"}},
	}
	svc := newShardedService(t, f, Config{})
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query/stream",
		`{"query": "`+shardTestQuery+`"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	lines := []string{}
	sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 3 { // header, 1 row, trailer
		t.Fatalf("stream lines = %d: %q", len(lines), lines)
	}
	var tr StreamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Done || !tr.Partial || len(tr.Warnings) != 1 || tr.Warnings[0].Shard != "dead" {
		t.Fatalf("trailer %+v, want done+partial with the dead member's warning", tr)
	}
}

// TestShardedRejectsWrites: a coordinator is read-only — ingest and
// standing queries belong on the members.
func TestShardedRejectsWrites(t *testing.T) {
	svc := newShardedService(t, &fakeShards{}, Config{})
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/ingest", ingestLine(0))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("ingest on coordinator: status %d, want 400", rec.Code)
	}
	if e := decodeError(t, rec); e.Code != CodeUnsupported {
		t.Errorf("ingest code %q, want %q", e.Code, CodeUnsupported)
	}
	rec = doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/watch",
		`{"query": "`+shardTestQuery+`"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("watch on coordinator: status %d, want 400", rec.Code)
	}
}

// TestHealthzEndpoint: 200 with store/WAL figures while serving, 503
// once the store closes or for a dataset the catalog does not hold.
func TestHealthzEndpoint(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	rec := doJSON(t, svc.Handler(), http.MethodGet, "/api/v1/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || !h.StoreOpen || h.WALHeld || h.Sharded {
		t.Fatalf("health %+v, want ok/open/in-memory/unsharded", h)
	}
	if h.Generation == 0 {
		t.Error("healthz reports no store generation")
	}

	if rec := doJSON(t, svc.Handler(), http.MethodGet, "/api/v1/healthz?dataset=nope", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unknown dataset healthz: status %d, want 503", rec.Code)
	}
	if rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/healthz", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST healthz: status %d, want 405", rec.Code)
	}

	if err := svc.DB().Close(); err != nil {
		t.Fatal(err)
	}
	rec = doJSON(t, svc.Handler(), http.MethodGet, "/api/v1/healthz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("closed store healthz: status %d, want 503", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "unavailable" || h.StoreOpen {
		t.Fatalf("closed store health %+v", h)
	}
}

// TestHealthzWALHeld: a durable dataset reports its WAL lock.
func TestHealthzWALHeld(t *testing.T) {
	db, err := aiql.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(db, Config{})
	defer db.Close()
	rec := doJSON(t, svc.Handler(), http.MethodGet, "/api/v1/healthz", "")
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if !h.WALHeld {
		t.Fatalf("durable dataset health %+v, want wal_held", h)
	}
}

// TestSortedStream: "sorted": true streams the buffered execution's
// canonical row order — the contract shard members serve coordinators.
func TestSortedStream(t *testing.T) {
	svc := New(newTestDB(t, 30), Config{})
	want, err := svc.Do(context.Background(), Request{Query: shardTestQuery})
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query/stream",
		`{"query": "`+shardTestQuery+`", "sorted": true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var rows [][]string
	sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
	first := true
	for sc.Scan() {
		line := sc.Text()
		if first {
			first = false
			continue
		}
		if strings.HasPrefix(line, "[") {
			var r []string
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			rows = append(rows, r)
		}
	}
	if len(rows) != len(want.Rows) {
		t.Fatalf("sorted stream delivered %d rows, want %d", len(rows), len(want.Rows))
	}
	for i := range rows {
		if rows[i][0] != want.Rows[i][0] || rows[i][1] != want.Rows[i][1] {
			t.Fatalf("row %d: stream %v != buffered %v", i, rows[i], want.Rows[i])
		}
	}
}
