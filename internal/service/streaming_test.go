package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
)

// fig4StreamQuery is a high-volume single-pattern query on the Fig4
// 50k-event dataset (~17k matching events), the workload where limit
// pushdown pays.
const fig4StreamQuery = `proc p read file f as evt return p, f`

// singleAgentDB builds a deterministic one-partition store: one agent,
// adjacent timestamps, one matching row per event, so streamed row
// order is stable even under parallel partition scans.
func singleAgentDB(t testing.TB, events int) *aiql.DB {
	t.Helper()
	db := aiql.Open()
	recs := make([]aiql.Record, 0, events)
	for i := 0; i < events; i++ {
		recs = append(recs, aiql.Record{
			AgentID: 1,
			Subject: aiql.Process{PID: 100, ExeName: "worker.exe", Path: `C:\bin\worker.exe`, User: "alice"},
			Op:      aiql.OpWrite,
			ObjType: aiql.EntityFile,
			ObjFile: aiql.File{Path: fmt.Sprintf(`C:\data\out%d.log`, i)},
			StartTS: int64(i) * int64(time.Second),
		})
	}
	db.AppendAll(recs)
	db.Flush()
	return db
}

// TestFig4LimitPushdownAcceptance is the acceptance check for the
// streaming pipeline: a LIMIT-50 query on the Fig4 50k-event dataset
// must scan strictly fewer events than its unlimited form and run at
// least 2x faster wall-clock.
func TestFig4LimitPushdownAcceptance(t *testing.T) {
	db := fig4DB()

	fullStart := time.Now()
	full, err := db.Query(fig4StreamQuery)
	fullTime := time.Since(fullStart)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) <= 50 {
		t.Fatalf("acceptance query yields %d rows, need > 50", len(full.Rows))
	}

	limitedTime := time.Hour
	var limitedStats aiql.Result
	for i := 0; i < 5; i++ { // best of 5 to shrug off scheduler noise
		start := time.Now()
		cur, err := db.QueryCursor(context.Background(), fig4StreamQuery, aiql.CursorOptions{Limit: 50})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for cur.Next() {
			rows++
		}
		cur.Close()
		d := time.Since(start)
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		if rows != 50 {
			t.Fatalf("limit 50 yielded %d rows", rows)
		}
		if d < limitedTime {
			limitedTime = d
			limitedStats.Stats = cur.Stats()
		}
	}

	if limitedStats.Stats.ScannedEvents >= full.Stats.ScannedEvents {
		t.Errorf("limit 50 scanned %d events, full drain scanned %d — want strictly fewer",
			limitedStats.Stats.ScannedEvents, full.Stats.ScannedEvents)
	}
	if 2*limitedTime > fullTime {
		t.Errorf("limit 50 took %v, full drain %v — want >= 2x faster", limitedTime, fullTime)
	}
	t.Logf("full: %d events scanned in %v; limit 50: %d events scanned in %v (%.0fx)",
		full.Stats.ScannedEvents, fullTime, limitedStats.Stats.ScannedEvents, limitedTime,
		float64(fullTime)/float64(limitedTime))
}

// TestDoPagination pages a 100-row result in 30-row pages through the
// cursor-token chain and checks offsets, page sizes, cache service, and
// exact reassembly.
func TestDoPagination(t *testing.T) {
	db := newTestDB(t, 100)
	svc := New(db, Config{})
	ctx := context.Background()

	full, err := svc.Do(ctx, Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}

	var pages []*Response
	req := Request{Query: demoQuery, Limit: 30}
	for {
		resp, err := svc.Do(ctx, req)
		if err != nil {
			t.Fatalf("page %d: %v", len(pages), err)
		}
		pages = append(pages, resp)
		if resp.NextCursor == "" {
			break
		}
		req.Cursor = resp.NextCursor
	}
	if len(pages) != 4 {
		t.Fatalf("got %d pages, want 4", len(pages))
	}
	var got [][]string
	for i, p := range pages {
		if p.TotalRows != 100 {
			t.Errorf("page %d: total_rows = %d, want 100", i, p.TotalRows)
		}
		if p.Offset != i*30 {
			t.Errorf("page %d: offset = %d, want %d", i, p.Offset, i*30)
		}
		want := 30
		if i == 3 {
			want = 10
		}
		if len(p.Rows) != want {
			t.Errorf("page %d: %d rows, want %d", i, len(p.Rows), want)
		}
		if !p.Cached {
			t.Errorf("page %d not served from cache", i)
		}
		got = append(got, p.Rows...)
	}
	if len(got) != len(full.Rows) {
		t.Fatalf("reassembled %d rows, want %d", len(got), len(full.Rows))
	}
	for i := range got {
		if strings.Join(got[i], "\t") != strings.Join(full.Rows[i], "\t") {
			t.Fatalf("row %d differs after reassembly", i)
		}
	}
}

// TestPaginationTokenValidation: tokens must be well-formed, belong to
// the submitted query, and point at a still-available snapshot.
func TestPaginationTokenValidation(t *testing.T) {
	db := newTestDB(t, 50)
	svc := New(db, Config{})
	svc.cache.cap = 1
	ctx := context.Background()

	first, err := svc.Do(ctx, Request{Query: demoQuery, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if first.NextCursor == "" {
		t.Fatal("no cursor for a 50-row result with limit 10")
	}

	if _, err := svc.Do(ctx, Request{Query: demoQuery, Cursor: "!!not base64!!"}); !errors.Is(err, ErrBadCursor) {
		t.Errorf("malformed token: got %v, want ErrBadCursor", err)
	}
	otherQuery := `proc p write file f["%out1.log"] as evt return p, f`
	if _, err := svc.Do(ctx, Request{Query: otherQuery, Cursor: first.NextCursor}); !errors.Is(err, ErrBadCursor) {
		t.Errorf("token replayed against another query: got %v, want ErrBadCursor", err)
	}

	// Evict the snapshot (capacity 1) and advance the store: the token's
	// generation is gone, so the chain must expire instead of silently
	// recomputing over newer data.
	if _, err := svc.Do(ctx, Request{Query: otherQuery}); err != nil {
		t.Fatal(err)
	}
	db.AppendAll([]aiql.Record{demoRecord(50)})
	db.Flush()
	if _, err := svc.Do(ctx, Request{Query: demoQuery, Cursor: first.NextCursor}); !errors.Is(err, ErrCursorExpired) {
		t.Errorf("superseded snapshot: got %v, want ErrCursorExpired", err)
	}
}

// TestPaginationSnapshotUnderWrites is the stress test: readers page
// through a result while a writer appends. Every chain must observe one
// consistent generation — all pages report the same total, the pages are
// disjoint, and together they are exactly rows {out0..out(T-1)} for the
// chain's total T. A chain whose snapshot was evicted and superseded may
// expire (the reader restarts), but it must never mix generations.
func TestPaginationSnapshotUnderWrites(t *testing.T) {
	const (
		initial  = 300
		readers  = 4
		chains   = 15
		pageSize = 50
		batches  = 40
		batch    = 10
	)
	db := newTestDB(t, initial)
	svc := New(db, Config{Workers: 8})
	svc.cache.cap = 64
	ctx := context.Background()

	var wg sync.WaitGroup
	errCh := make(chan error, readers+1)
	rowIndex := func(row []string) (int, error) {
		f := row[len(row)-1] // the file column, C:\data\out<N>.log
		num := strings.TrimSuffix(f[strings.Index(f, "out")+3:], ".log")
		return strconv.Atoi(num)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for c := 0; c < chains; c++ {
			restart:
				first, err := svc.Do(ctx, Request{Query: demoQuery, Limit: pageSize})
				if err != nil {
					errCh <- fmt.Errorf("reader %d chain %d: %w", r, c, err)
					return
				}
				total := first.TotalRows
				seen := make(map[int]bool, total)
				page := first
				for {
					if page.TotalRows != total {
						errCh <- fmt.Errorf("reader %d chain %d: total changed mid-chain: %d -> %d (mixed generations)", r, c, total, page.TotalRows)
						return
					}
					for _, row := range page.Rows {
						i, err := rowIndex(row)
						if err != nil {
							errCh <- fmt.Errorf("reader %d chain %d: bad row %v: %w", r, c, row, err)
							return
						}
						if seen[i] {
							errCh <- fmt.Errorf("reader %d chain %d: row %d served twice (overlapping pages)", r, c, i)
							return
						}
						seen[i] = true
					}
					if page.NextCursor == "" {
						break
					}
					page, err = svc.Do(ctx, Request{Query: demoQuery, Cursor: page.NextCursor})
					if errors.Is(err, ErrCursorExpired) {
						goto restart // snapshot evicted+superseded: legal, start a new chain
					}
					if err != nil {
						errCh <- fmt.Errorf("reader %d chain %d: %w", r, c, err)
						return
					}
				}
				if len(seen) != total {
					errCh <- fmt.Errorf("reader %d chain %d: chain yielded %d rows, total said %d", r, c, len(seen), total)
					return
				}
				for i := 0; i < total; i++ {
					if !seen[i] {
						errCh <- fmt.Errorf("reader %d chain %d: row %d missing — pages are not one generation", r, c, i)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			recs := make([]aiql.Record, 0, batch)
			for j := 0; j < batch; j++ {
				recs = append(recs, demoRecord(initial+b*batch+j))
			}
			db.AppendAll(recs)
			db.Flush()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestSingleflight: 16 concurrent identical cache-miss queries trigger
// exactly one engine execution; everyone gets the same full result.
// (Run under -race via the tier-1 gate.)
func TestSingleflight(t *testing.T) {
	const clients = 16
	db := newTestDB(t, 2000)
	svc := New(db, Config{Workers: 4})
	ctx := context.Background()

	start := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			resp, err := svc.Do(ctx, Request{Query: demoQuery})
			if err != nil {
				errCh <- fmt.Errorf("client %d: %w", c, err)
				return
			}
			if resp.TotalRows != 2000 {
				errCh <- fmt.Errorf("client %d: %d rows, want 2000", c, resp.TotalRows)
			}
		}(c)
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := svc.Stats()
	if st.Executions != 1 {
		t.Errorf("%d engine executions for %d concurrent identical queries, want exactly 1 (stats %+v)", st.Executions, clients, st)
	}
	if st.Queries != clients {
		t.Errorf("queries = %d, want %d", st.Queries, clients)
	}
}

// TestFollowerOutlivesCancelledLeader: a follower coalesced onto a
// leader that dies of its own context — here cancelled while its
// execution waits for the only worker — does not inherit that failure
// while its own context is live: it re-executes and delivers the full
// result. Buffered queries and sorted streams share the singleflight, so
// both must honour this (a shard coordinator's members serve sorted
// streams, so there one client's disconnect must not fail another's
// query).
func TestFollowerOutlivesCancelledLeader(t *testing.T) {
	const events = 2000
	for _, tc := range []struct {
		name string
		run  func(svc *Service, ctx context.Context) (int, error)
	}{
		{"buffered", func(svc *Service, ctx context.Context) (int, error) {
			resp, err := svc.Do(ctx, Request{Query: demoQuery})
			if err != nil {
				return 0, err
			}
			return len(resp.Rows), nil
		}},
		{"sorted stream", func(svc *Service, ctx context.Context) (int, error) {
			rows := 0
			_, err := svc.DoStream(ctx, Request{Query: demoQuery, Sorted: true},
				func([]string, bool) error { return nil },
				func([]string) error { rows++; return nil })
			return rows, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(newTestDB(t, events), Config{Workers: 1})
			svc.queueWait = time.Minute
			svc.sem <- struct{}{} // hold the only worker: the leader queues behind it

			leaderCtx, cancelLeader := context.WithCancel(context.Background())
			leaderErr := make(chan error, 1)
			go func() {
				_, err := tc.run(svc, leaderCtx)
				leaderErr <- err
			}()
			waitFor(t, func() bool { return svc.queued.Load() == 1 }, "the leader to queue for a worker")

			type result struct {
				rows int
				err  error
			}
			follower := make(chan result, 1)
			go func() {
				rows, err := tc.run(svc, context.Background())
				follower <- result{rows, err}
			}()
			waitFor(t, func() bool { return svc.coalesced.Load() == 1 }, "the follower to join the leader's flight")

			cancelLeader()
			if err := <-leaderErr; !errors.Is(err, context.Canceled) {
				t.Fatalf("leader: %v, want context.Canceled", err)
			}
			<-svc.sem // free the worker for the follower's own execution

			got := <-follower
			if got.err != nil {
				t.Fatalf("follower inherited the leader's cancellation: %v", got.err)
			}
			if got.rows != events {
				t.Fatalf("follower received %d rows, want %d", got.rows, events)
			}
			if st := svc.Stats(); st.Executions != 1 || st.Canceled != 1 {
				t.Errorf("executions=%d canceled=%d, want the follower's one execution and the leader's one cancellation", st.Executions, st.Canceled)
			}
		})
	}
}

// TestClientThrottling: one client at its in-flight cap is rejected with
// ErrClientThrottled while other clients (and unkeyed requests) proceed.
func TestClientThrottling(t *testing.T) {
	db := newTestDB(t, 10)
	svc := New(db, Config{Workers: 4})
	svc.clientInflight = 1
	ctx := context.Background()

	svc.clientMu.Lock()
	svc.clients["noisy"] = 1 // the noisy client's one slot is taken
	svc.clientMu.Unlock()
	defer func() {
		svc.clientMu.Lock()
		delete(svc.clients, "noisy")
		svc.clientMu.Unlock()
	}()

	if _, err := svc.Do(ctx, Request{Query: demoQuery, Client: "noisy"}); !errors.Is(err, ErrClientThrottled) {
		t.Fatalf("noisy client: got %v, want ErrClientThrottled", err)
	}
	if _, err := svc.Do(ctx, Request{Query: demoQuery, Client: "calm"}); err != nil {
		t.Fatalf("calm client rejected: %v", err)
	}
	// another query, so the unkeyed request executes rather than hitting
	// the entry the calm client's request cached
	if _, err := svc.Do(ctx, Request{Query: `proc p write file f["%out1.log"] as evt return p, f`}); err != nil {
		t.Fatalf("unkeyed request rejected: %v", err)
	}
	if st := svc.Stats(); st.Throttled != 1 || st.Executions != 2 {
		t.Errorf("throttled = %d, executions = %d, want 1 and 2", st.Throttled, st.Executions)
	}
}

// TestHTTPClientThrottled: the API maps ErrClientThrottled to 429 with
// Retry-After, keyed by the X-Client-Id header.
func TestHTTPClientThrottled(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	svc.clientInflight = 1
	svc.clientMu.Lock()
	svc.clients["tenant-a"] = 1
	svc.clientMu.Unlock()

	req := httptest.NewRequest(http.MethodPost, "/api/v1/query",
		strings.NewReader(`{"query": "proc p write file f as evt return p, f"}`))
	req.Header.Set("X-Client-Id", "tenant-a")
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestCacheByteBudget: the cache evicts by approximate byte footprint,
// not only by entry count.
func TestCacheByteBudget(t *testing.T) {
	db := newTestDB(t, 100)
	// ~100 rows x ~2 cells x ~(len+16) ≈ 10 KiB per entry: budget one
	// entry but allow many by count
	svc := New(db, Config{MaxCacheBytes: 15 << 10})
	ctx := context.Background()

	if _, err := svc.Do(ctx, Request{Query: demoQuery}); err != nil {
		t.Fatal(err)
	}
	q2 := `proc p["%worker.exe"] write file f as evt return distinct p, f`
	if _, err := svc.Do(ctx, Request{Query: q2}); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.CacheEntries != 1 {
		t.Fatalf("cache holds %d entries, want 1 under the byte budget (bytes=%d)", st.CacheEntries, st.CacheBytes)
	}
	if st.CacheBytes <= 0 || st.CacheBytes > 15<<10 {
		t.Errorf("cache_bytes = %d, want within (0, %d]", st.CacheBytes, 15<<10)
	}
	// the first query was evicted; the second is the survivor
	resp, err := svc.Do(ctx, Request{Query: q2})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("most recent entry evicted instead of oldest")
	}
	resp, err = svc.Do(ctx, Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("evicted entry still served from cache")
	}
}

// TestCacheRejectsOversizedEntry: a result larger than the whole byte
// budget must not wipe the cache to admit itself.
func TestCacheRejectsOversizedEntry(t *testing.T) {
	db := newTestDB(t, 200)
	svc := New(db, Config{MaxCacheBytes: 1 << 10})
	if _, err := svc.Do(context.Background(), Request{Query: demoQuery}); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.CacheEntries != 0 {
		t.Errorf("oversized result was cached (%d entries, %d bytes)", st.CacheEntries, st.CacheBytes)
	}
}

// TestDoStreamCancelMidStream: cancelling the request context after k
// rows aborts the stream with a context error — the deterministic
// mid-stream disconnect path.
func TestDoStreamCancelMidStream(t *testing.T) {
	svc := New(fig4DB(), Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	rows := 0
	_, err := svc.DoStream(ctx, Request{Query: fig4StreamQuery},
		func(cols []string, cached bool) error {
			if cached {
				return errors.New("unexpected cache hit")
			}
			return nil
		},
		func(row []string) error {
			rows++
			if rows == 5 {
				cancel() // the client goes away mid-stream
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rows < 5 {
		t.Fatalf("stream delivered %d rows before cancel, want >= 5", rows)
	}
	if st := svc.Stats(); st.Canceled != 1 {
		t.Errorf("canceled = %d, want 1", st.Canceled)
	}
}

// TestDoStreamLimitPushdown: the stream's limit reaches the engine — the
// scan stops after the limit instead of draining the store.
func TestDoStreamLimitPushdown(t *testing.T) {
	svc := New(fig4DB(), Config{})
	rows := 0
	resp, err := svc.DoStream(context.Background(), Request{Query: fig4StreamQuery, Limit: 25},
		func([]string, bool) error { return nil },
		func([]string) error { rows++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if rows != 25 || resp.TotalRows != 25 {
		t.Fatalf("streamed %d rows (reported %d), want 25", rows, resp.TotalRows)
	}
	if resp.Stats.ScannedEvents >= int64(svc.DB().Len()) {
		t.Errorf("limit 25 stream scanned the whole store (%d events)", resp.Stats.ScannedEvents)
	}
}

// TestHTTPQueryPagination: the buffered endpoint carries cursor tokens
// over the wire — limit picks the page size, next_cursor chains pages,
// offsets advance, and the final page has no cursor.
func TestHTTPQueryPagination(t *testing.T) {
	svc := New(newTestDB(t, 25), Config{})
	h := svc.Handler()

	first := decodeResult(t, doJSON(t, h, http.MethodPost, "/api/v1/query",
		`{"query": "proc p write file f as evt return p, f", "limit": 10}`))
	if len(first.Rows) != 10 || first.TotalRows != 25 || first.Offset != 0 || first.NextCursor == "" {
		t.Fatalf("first page = %d rows / total %d / offset %d / cursor %q", len(first.Rows), first.TotalRows, first.Offset, first.NextCursor)
	}
	second := decodeResult(t, doJSON(t, h, http.MethodPost, "/api/v1/query",
		`{"query": "proc p write file f as evt return p, f", "limit": 10, "cursor": "`+first.NextCursor+`"}`))
	if len(second.Rows) != 10 || second.Offset != 10 || second.NextCursor == "" {
		t.Fatalf("second page = %d rows / offset %d / cursor %q", len(second.Rows), second.Offset, second.NextCursor)
	}
	third := decodeResult(t, doJSON(t, h, http.MethodPost, "/api/v1/query",
		`{"query": "proc p write file f as evt return p, f", "limit": 10, "cursor": "`+second.NextCursor+`"}`))
	if len(third.Rows) != 5 || third.Offset != 20 || third.NextCursor != "" {
		t.Fatalf("third page = %d rows / offset %d / cursor %q", len(third.Rows), third.Offset, third.NextCursor)
	}

	rec := doJSON(t, h, http.MethodPost, "/api/v1/query",
		`{"query": "proc p write file f as evt return p, f", "cursor": "garbage!"}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed cursor: status %d, want 400", rec.Code)
	}
}

// TestHTTPQueryCursorExpired: a token whose snapshot is evicted and
// superseded maps to 410 Gone.
func TestHTTPQueryCursorExpired(t *testing.T) {
	db := newTestDB(t, 25)
	svc := New(db, Config{})
	svc.cache.cap = 1
	h := svc.Handler()

	first := decodeResult(t, doJSON(t, h, http.MethodPost, "/api/v1/query",
		`{"query": "proc p write file f as evt return p, f", "limit": 10}`))
	// evict the snapshot, then advance the store
	doJSON(t, h, http.MethodPost, "/api/v1/query",
		`{"query": "proc p write file f[\"%out1.log\"] as evt return p, f"}`)
	db.AppendAll([]aiql.Record{demoRecord(25)})
	db.Flush()

	rec := doJSON(t, h, http.MethodPost, "/api/v1/query",
		`{"query": "proc p write file f as evt return p, f", "cursor": "`+first.NextCursor+`"}`)
	if rec.Code != http.StatusGone {
		t.Fatalf("status %d, want 410: %s", rec.Code, rec.Body.String())
	}
}

// TestHTTPStreamGolden locks the NDJSON wire format: header line, one
// JSON array per row in deterministic order, trailer line.
func TestHTTPStreamGolden(t *testing.T) {
	svc := New(singleAgentDB(t, 3), Config{})
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query/stream",
		`{"query": "proc p write file f as evt return p, f"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q, want application/x-ndjson", ct)
	}
	lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	goldenPrefix := []string{
		`{"columns":["p.exe_name","f.name"]}`,
		`["worker.exe","C:\\data\\out0.log"]`,
		`["worker.exe","C:\\data\\out1.log"]`,
		`["worker.exe","C:\\data\\out2.log"]`,
	}
	if len(lines) != len(goldenPrefix)+1 {
		t.Fatalf("got %d NDJSON lines, want %d:\n%s", len(lines), len(goldenPrefix)+1, rec.Body.String())
	}
	for i, want := range goldenPrefix {
		if lines[i] != want {
			t.Errorf("line %d = %s, want %s", i, lines[i], want)
		}
	}
	var trailer StreamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("trailer %q: %v", lines[len(lines)-1], err)
	}
	if !trailer.Done || trailer.Rows != 3 || trailer.Error != "" || trailer.ScannedEvents != 3 {
		t.Errorf("trailer = %+v, want done, 3 rows, 3 scanned, no error", trailer)
	}
}

// TestHTTPStreamParseError: failures before the first streamed byte use
// normal error statuses.
func TestHTTPStreamParseError(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query/stream", `{"query": "not aiql"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.String())
	}
}

// TestHTTPStreamClientDisconnect exercises the real network path: the
// client reads the stream's head and slams the connection while the
// server is still producing; the server-side execution must abort (the
// canceled counter moves, far fewer rows streamed than the result
// holds) instead of draining everything into a dead socket. The query
// is a deliberate quadratic self-join (~1.1M result rows, far beyond
// any socket buffering) so the producer is guaranteed to still be
// running when the disconnect lands.
func TestHTTPStreamClientDisconnect(t *testing.T) {
	const totalRows = 1500 * 1499 / 2 // ordered pairs under `e1 before e2`
	svc := New(singleAgentDB(t, 1500), Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	query := `proc p1 write file f1 as e1
proc p2 write file f2 as e2
with e1 before e2
return f1, f2`
	resp, err := http.Post(srv.URL+"/api/v1/query/stream", "application/json",
		strings.NewReader(`{"query": "`+strings.ReplaceAll(query, "\n", " ")+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 4 && sc.Scan(); i++ { // header + 3 rows
	}
	resp.Body.Close() // disconnect mid-stream

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := svc.Stats()
		if st.Canceled >= 1 && st.Active == 0 {
			if st.RowsStreamed >= totalRows {
				t.Fatalf("disconnect did not stop the stream: %d rows streamed", st.RowsStreamed)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("stream not aborted after client disconnect: stats %+v", svc.Stats())
}

// BenchmarkFullDrain is the price of materializing the ~17k-row Fig4
// read query end to end.
func BenchmarkFullDrain(b *testing.B) {
	db := fig4DB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(fig4StreamQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLimit50EarlyTermination is the same query under limit
// pushdown: the scan stops after 50 matches.
func BenchmarkLimit50EarlyTermination(b *testing.B) {
	db := fig4DB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := db.QueryCursor(context.Background(), fig4StreamQuery, aiql.CursorOptions{Limit: 50})
		if err != nil {
			b.Fatal(err)
		}
		for cur.Next() {
		}
		cur.Close()
		if err := cur.Err(); err != nil {
			b.Fatal(err)
		}
	}
}
