package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/experiments"
)

// demoRecord fabricates one write event with a unique file per call, so
// every committed record adds exactly one row to demoQuery's result.
func demoRecord(i int) aiql.Record {
	return aiql.Record{
		AgentID: uint32(1 + i%4),
		Subject: aiql.Process{PID: 100, ExeName: "worker.exe", Path: `C:\bin\worker.exe`, User: "alice"},
		Op:      aiql.OpWrite,
		ObjType: aiql.EntityFile,
		ObjFile: aiql.File{Path: fmt.Sprintf(`C:\data\out%d.log`, i)},
		StartTS: int64(i) * int64(time.Second),
		Amount:  uint64(i),
	}
}

const demoQuery = `proc p["%worker.exe"] write file f as evt return p, f`

func newTestDB(t testing.TB, events int) *aiql.DB {
	t.Helper()
	db := aiql.Open()
	recs := make([]aiql.Record, 0, events)
	for i := 0; i < events; i++ {
		recs = append(recs, demoRecord(i))
	}
	db.AppendAll(recs)
	db.Flush()
	return db
}

// fig4DB lazily builds the Fig4 50k-event demo-apt dataset shared by the
// latency-sensitive tests and benchmarks.
var fig4DB = sync.OnceValue(func() *aiql.DB {
	return aiql.FromStore(experiments.BuildStore(experiments.Fig4Dataset(50000, 10, 42)))
})

// fig4Query is an expensive four-pattern investigation query (the
// paper's Query 1 shape) against the demo-apt scenario.
const fig4Query = `(at "05/10/2018")
agentid = 2
proc p1 start proc p2 as evt1
proc p2 read file f1 as evt2
proc p2 write ip i1 as evt3
with evt1 before evt2, evt2 before evt3
return distinct p1, p2, f1, i1`

func TestNormalizeQuery(t *testing.T) {
	cases := []struct {
		name, a, b string
		same       bool
	}{
		{"reformatting hits", "proc p \n\t start  proc q\nreturn p", "proc p start proc q return p", true},
		{"leading and trailing space", "  return p  ", "return p", true},
		{"whitespace inside double-quoted literal is significant", `f["a  b"]`, `f["a b"]`, false},
		{"whitespace inside single-quoted literal is significant", `f['a  b']`, `f['a b']`, false},
		{"escaped quote does not end the literal", `f["a\"  b"] x`, `f["a\" b"] x`, false},
		{"collapse after literal", `f["a b"]   return p`, `f["a b"] return p`, true},
		{"different queries stay different", "return p", "return q", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			na, nb := normalizeQuery(tc.a), normalizeQuery(tc.b)
			if (na == nb) != tc.same {
				t.Errorf("normalize(%q)=%q vs normalize(%q)=%q, want same=%v", tc.a, na, tc.b, nb, tc.same)
			}
		})
	}
}

func TestCacheHitAndInvalidationOnAppend(t *testing.T) {
	db := newTestDB(t, 500)
	svc := New(db, Config{})
	ctx := context.Background()

	first, err := svc.Do(ctx, Request{Query: demoQuery})
	if err != nil {
		t.Fatalf("cold query: %v", err)
	}
	if first.Cached {
		t.Fatal("cold query reported cached")
	}
	if first.TotalRows != 500 {
		t.Fatalf("cold query: %d rows, want 500", first.TotalRows)
	}

	// reformatted text must hit the same entry
	warm, err := svc.Do(ctx, Request{Query: "  proc   p[\"%worker.exe\"]\n\twrite file f as evt\nreturn p, f  "})
	if err != nil {
		t.Fatalf("warm query: %v", err)
	}
	if !warm.Cached {
		t.Fatal("repeat query on an unchanged store was not served from cache")
	}
	if warm.TotalRows != first.TotalRows {
		t.Fatalf("cached rows %d != cold rows %d", warm.TotalRows, first.TotalRows)
	}

	// appending invalidates: the commit counter moves, so the next
	// lookup misses and sees the new data
	db.AppendAll([]aiql.Record{demoRecord(500)})
	db.Flush()
	after, err := svc.Do(ctx, Request{Query: demoQuery})
	if err != nil {
		t.Fatalf("post-append query: %v", err)
	}
	if after.Cached {
		t.Fatal("query after append served from cache (stale)")
	}
	if after.TotalRows != 501 {
		t.Fatalf("post-append query: %d rows, want 501", after.TotalRows)
	}

	st := svc.Stats()
	if st.CacheHits != 1 || st.Queries != 3 {
		t.Errorf("stats = %+v, want 1 cache hit over 3 queries", st)
	}
}

func TestLimitTruncationShapesNotMutates(t *testing.T) {
	db := newTestDB(t, 100)
	svc := New(db, Config{})
	ctx := context.Background()

	limited, err := svc.Do(ctx, Request{Query: demoQuery, Limit: 7})
	if err != nil {
		t.Fatalf("limited query: %v", err)
	}
	if len(limited.Rows) != 7 || limited.TotalRows != 100 {
		t.Fatalf("limit=7: got %d rows (total %d), want 7 (total 100)", len(limited.Rows), limited.TotalRows)
	}
	// the truncated view must not have shrunk the cached entry
	full, err := svc.Do(ctx, Request{Query: demoQuery})
	if err != nil {
		t.Fatalf("full query: %v", err)
	}
	if !full.Cached || len(full.Rows) != 100 {
		t.Fatalf("full query after limited: cached=%v rows=%d, want cached 100 rows", full.Cached, len(full.Rows))
	}
}

func TestLRUEviction(t *testing.T) {
	db := newTestDB(t, 10)
	svc := New(db, Config{})
	svc.cache.cap = 2
	ctx := context.Background()
	queries := []string{
		demoQuery,
		`proc p write file f["%out1.log"] as evt return p, f`,
		`proc p write file f["%out2.log"] as evt return p, f`,
	}
	for _, q := range queries {
		if _, err := svc.Do(ctx, Request{Query: q}); err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
	}
	if n := svc.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want capacity 2", n)
	}
	// the least recently used entry (queries[0]) was evicted
	resp, err := svc.Do(ctx, Request{Query: queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Error("evicted entry still served from cache")
	}
	resp, err = svc.Do(ctx, Request{Query: queries[2]})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("most recently used entry was evicted")
	}
}

func TestAdmissionControl(t *testing.T) {
	db := newTestDB(t, 10)

	t.Run("queue full sheds immediately", func(t *testing.T) {
		svc := New(db, Config{Workers: 1})
		svc.queueDepth, svc.queueWait = 1, 50*time.Millisecond
		svc.sem <- struct{}{} // occupy the only worker
		defer func() { <-svc.sem }()
		svc.queued.Add(1) // occupy the only queue slot
		defer svc.queued.Add(-1)
		if _, err := svc.Do(context.Background(), Request{Query: demoQuery}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("want ErrOverloaded, got %v", err)
		}
	})

	t.Run("queue wait expiry sheds", func(t *testing.T) {
		svc := New(db, Config{Workers: 1})
		svc.queueWait = 30 * time.Millisecond
		svc.sem <- struct{}{}
		defer func() { <-svc.sem }()
		start := time.Now()
		_, err := svc.Do(context.Background(), Request{Query: demoQuery})
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("want ErrOverloaded, got %v", err)
		}
		if time.Since(start) > 5*time.Second {
			t.Errorf("shedding took %s, want about the queue wait", time.Since(start))
		}
		if st := svc.Stats(); st.Rejected != 1 {
			t.Errorf("rejected = %d, want 1", st.Rejected)
		}
	})

	t.Run("cancelled while queued returns context error", func(t *testing.T) {
		svc := New(db, Config{Workers: 1})
		svc.queueWait = time.Minute
		svc.sem <- struct{}{}
		defer func() { <-svc.sem }()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, err := svc.Do(ctx, Request{Query: demoQuery}); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want context.DeadlineExceeded, got %v", err)
		}
		// a client deadline expiring in the queue is a timeout, not a
		// service rejection
		if st := svc.Stats(); st.Rejected != 0 || st.Timeouts != 1 {
			t.Errorf("stats = %+v, want 0 rejected / 1 timeout", st)
		}
	})

	t.Run("client disconnect while queued counts as canceled", func(t *testing.T) {
		svc := New(db, Config{Workers: 1})
		svc.queueWait = time.Minute
		svc.sem <- struct{}{}
		defer func() { <-svc.sem }()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		if _, err := svc.Do(ctx, Request{Query: demoQuery}); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if st := svc.Stats(); st.Rejected != 0 || st.Canceled != 1 {
			t.Errorf("stats = %+v, want 0 rejected / 1 canceled", st)
		}
	})

	t.Run("worker release admits the next query", func(t *testing.T) {
		svc := New(db, Config{Workers: 1})
		svc.queueWait = 5 * time.Second
		svc.sem <- struct{}{}
		go func() {
			time.Sleep(20 * time.Millisecond)
			<-svc.sem
		}()
		if _, err := svc.Do(context.Background(), Request{Query: demoQuery}); err != nil {
			t.Fatalf("queued query failed after worker release: %v", err)
		}
	})
}

// TestConcurrentClientsWithWriter is the -race stress test: 32 clients
// hammer the service while a writer appends and flushes. Staleness
// invariant: each committed record adds one matching row, so any client
// must observe a non-decreasing row count — a cached result computed
// over an older store version ever being served for a newer one would
// break monotonicity.
func TestConcurrentClientsWithWriter(t *testing.T) {
	const (
		clients       = 32
		perClient     = 40
		initialEvents = 2000
		writerBatches = 50
		batchSize     = 20
	)
	db := newTestDB(t, initialEvents)
	svc := New(db, Config{Workers: 8})
	svc.queueDepth, svc.queueWait = clients*2, 30*time.Second
	ctx := context.Background()

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	var cachedServed atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			last := -1
			for i := 0; i < perClient; i++ {
				resp, err := svc.Do(ctx, Request{Query: demoQuery})
				if err != nil {
					errCh <- fmt.Errorf("client %d query %d: %w", c, i, err)
					return
				}
				if resp.TotalRows < last {
					errCh <- fmt.Errorf("client %d: stale result: rows went %d -> %d (cached=%v)", c, last, resp.TotalRows, resp.Cached)
					return
				}
				last = resp.TotalRows
				if resp.Cached {
					cachedServed.Add(1)
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < writerBatches; b++ {
			recs := make([]aiql.Record, 0, batchSize)
			for j := 0; j < batchSize; j++ {
				recs = append(recs, demoRecord(initialEvents+b*batchSize+j))
			}
			db.AppendAll(recs)
			db.Flush()
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// quiesced store: one more round trip must be exact and cacheable
	final, err := svc.Do(ctx, Request{Query: demoQuery})
	if err != nil {
		t.Fatalf("final query: %v", err)
	}
	want := initialEvents + writerBatches*batchSize
	if final.TotalRows != want {
		t.Fatalf("final rows = %d, want %d", final.TotalRows, want)
	}
	repeat, err := svc.Do(ctx, Request{Query: demoQuery})
	if err != nil {
		t.Fatalf("repeat query: %v", err)
	}
	if !repeat.Cached || repeat.TotalRows != want {
		t.Fatalf("repeat on quiesced store: cached=%v rows=%d, want cached %d", repeat.Cached, repeat.TotalRows, want)
	}
	t.Logf("stats: %+v (cached responses observed by clients: %d)", svc.Stats(), cachedServed.Load())
}

// TestDeadlineAbortsFig4Scan is the acceptance check: a 1ms deadline
// against the 50k-event Fig4 dataset returns a context-deadline error
// without scanning all partitions. The deadline has provably expired by
// execution time, so the engine must bail out before touching any chunk.
func TestDeadlineAbortsFig4Scan(t *testing.T) {
	db := fig4DB()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done() // the 1ms deadline has provably fired

	res, err := db.QueryContext(ctx, fig4Query)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if res == nil {
		t.Fatal("want partial result stats, got nil")
	}
	if res.Stats.Partitions != 0 {
		t.Errorf("visited %d partitions despite expired deadline, want 0", res.Stats.Partitions)
	}
	if res.Stats.ScannedEvents != 0 {
		t.Errorf("scanned %d events despite expired deadline, want 0", res.Stats.ScannedEvents)
	}

	// a live (not yet expired) short deadline aborts the scan mid-flight:
	// this query runs for hundreds of milliseconds uncancelled, so a 5ms
	// budget must stop it with only part of the store visited
	ctxLive, cancelLive := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancelLive()
	resLive, err := db.QueryContext(ctxLive, fig4Query)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("live deadline: want context.DeadlineExceeded, got %v", err)
	}
	if resLive.Stats.ScannedEvents >= int64(db.Len()) {
		t.Errorf("live deadline: scanned %d of %d events, want an early abort", resLive.Stats.ScannedEvents, db.Len())
	}

	// the same request through the service surfaces the timeout
	svc := New(db, Config{})
	if _, err := svc.Do(context.Background(), Request{Query: fig4Query, Timeout: 5 * time.Millisecond}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("service: want context.DeadlineExceeded, got %v", err)
	}
	if st := svc.Stats(); st.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", st.Timeouts)
	}
}

// TestWarmCacheSpeedup is the acceptance check that a warm-cache repeat
// of an expensive query on the Fig4 50k-event dataset is at least 10x
// faster than its cold execution.
func TestWarmCacheSpeedup(t *testing.T) {
	svc := New(fig4DB(), Config{})
	ctx := context.Background()

	start := time.Now()
	cold, err := svc.Do(ctx, Request{Query: fig4Query})
	coldTime := time.Since(start)
	if err != nil {
		t.Fatalf("cold query: %v", err)
	}
	if cold.Cached {
		t.Fatal("cold query reported cached")
	}

	warmTime := time.Hour
	for i := 0; i < 5; i++ { // best of 5 to shrug off scheduler noise
		start = time.Now()
		warm, err := svc.Do(ctx, Request{Query: fig4Query})
		d := time.Since(start)
		if err != nil {
			t.Fatalf("warm query: %v", err)
		}
		if !warm.Cached {
			t.Fatal("repeat query was not served from cache")
		}
		if warm.TotalRows != cold.TotalRows {
			t.Fatalf("warm rows %d != cold rows %d", warm.TotalRows, cold.TotalRows)
		}
		if d < warmTime {
			warmTime = d
		}
	}
	if warmTime*10 > coldTime {
		t.Errorf("warm cache %v is not >=10x faster than cold %v", warmTime, coldTime)
	}
	t.Logf("cold %v, warm %v (%.0fx)", coldTime, warmTime, float64(coldTime)/float64(warmTime))
}

// BenchmarkColdQuery measures repeated execution against an empty result
// cache — the price every repeat pays without it. Each iteration runs on
// a fresh service, so every one executes.
func BenchmarkColdQuery(b *testing.B) {
	db := fig4DB()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(db, Config{}).Do(ctx, Request{Query: fig4Query}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmCache measures repeated execution served from the LRU.
func BenchmarkWarmCache(b *testing.B) {
	svc := New(fig4DB(), Config{})
	ctx := context.Background()
	if _, err := svc.Do(ctx, Request{Query: fig4Query}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := svc.Do(ctx, Request{Query: fig4Query})
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("expected cache hit")
		}
	}
}
