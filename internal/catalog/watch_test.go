package catalog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/service"
)

// watchIngestLine renders one NDJSON ingest record matching demoQuery.
func watchIngestLine(prefix string, i int) string {
	return fmt.Sprintf(`{"agentid": %d, "op": "write", "object_type": "file", "subject": {"pid": 100, "exe_name": "worker.exe", "path": "C:\\bin\\worker.exe", "user": "alice"}, "file": {"name": "C:\\%s\\live%d.log"}, "start_ts": %d}`,
		1+i%3, prefix, i, int64(5000+i)*int64(time.Second))
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestWatchSurvivesHotSwap: a standing query and its live subscriber
// carry across a dataset hot-swap under the original watch id. The
// first post-swap evaluation re-baselines silently (the swapped-in
// history is not replayed), then fresh post-swap ingests flow to the
// same subscriber again.
func TestWatchSurvivesHotSwap(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap")
	writeDir(t, snap, "x", 8)
	c := New(Config{})
	if _, err := c.AddDir("inv", snap); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	svc, err := c.Resolve("inv")
	if err != nil {
		t.Fatal(err)
	}
	info, err := svc.Watch(context.Background(), demoQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := svc.Subscribe(info.WatchID)
	if err != nil {
		t.Fatal(err)
	}

	// pre-swap ingest reaches the subscriber
	if rec := do(t, h, http.MethodPost, "/api/v1/ingest?dataset=inv", watchIngestLine("pre", 0)); rec.Code != http.StatusOK {
		t.Fatalf("pre-swap ingest: %s", rec.Body.String())
	}
	select {
	case m := <-sub.Matches():
		if len(m.Rows) != 1 {
			t.Fatalf("pre-swap match = %+v", m)
		}
	default:
		t.Fatal("pre-swap ingest pushed nothing")
	}

	if _, err := c.Load("inv", snap); err != nil {
		t.Fatal(err)
	}
	svc2, err := c.Resolve("inv")
	if err != nil {
		t.Fatal(err)
	}
	after, err := svc2.WatchInfo(info.WatchID)
	if err != nil {
		t.Fatalf("watch id did not survive the hot-swap: %v", err)
	}
	if after.Subscribers != 1 {
		t.Fatalf("post-swap subscribers = %d, want the carried SSE subscription", after.Subscribers)
	}

	// first post-swap ingest re-baselines: the swapped-in store's 8
	// historical rows are recorded, the 1 fresh row rides along unseen —
	// nothing is pushed
	if rec := do(t, h, http.MethodPost, "/api/v1/ingest?dataset=inv", watchIngestLine("rebase", 1)); rec.Code != http.StatusOK {
		t.Fatalf("re-baseline ingest: %s", rec.Body.String())
	}
	select {
	case m := <-sub.Matches():
		t.Fatalf("re-baseline pushed %d rows; history must not replay", len(m.Rows))
	default:
	}

	// the next ingest is a normal delta push to the carried subscriber
	if rec := do(t, h, http.MethodPost, "/api/v1/ingest?dataset=inv", watchIngestLine("post", 2)); rec.Code != http.StatusOK {
		t.Fatalf("post-swap ingest: %s", rec.Body.String())
	}
	select {
	case m := <-sub.Matches():
		if len(m.Rows) != 1 || !strings.Contains(strings.Join(m.Rows[0], " "), "post") {
			t.Fatalf("post-swap match = %+v, want the single post-swap row", m)
		}
	default:
		t.Fatal("post-swap ingest pushed nothing to the carried subscriber")
	}

	// deleting on the new service closes the carried subscription
	if err := svc2.Unwatch(info.WatchID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Closed():
	case <-time.After(5 * time.Second):
		t.Fatal("carried subscription not closed by post-swap delete")
	}
}

// TestConcurrentIngestWatchCursorHotSwap is the -race regression for
// the live-ingestion stack: HTTP NDJSON ingests (with synchronous
// standing-query evaluation), cursor-paginated reads, an SSE-style
// subscriber draining matches, and repeated catalog hot-swaps all run
// concurrently. Every operation must succeed or fail with a clean
// contract error — no data races, no torn registries, no stuck ingests.
func TestConcurrentIngestWatchCursorHotSwap(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap")
	writeDir(t, snap, "x", 30)
	c := New(Config{})
	if _, err := c.AddDir("inv", snap); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	svc, err := c.Resolve("inv")
	if err != nil {
		t.Fatal(err)
	}
	winfo, err := svc.Watch(context.Background(), demoQuery, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ingests, pages, drained, swaps atomic.Int64
	errs := make(chan error, 16)
	workers := 0

	// ingesters: NDJSON batches through the HTTP handler; dataset
	// teardown mid-commit must surface as dataset_reloading, never as a
	// torn batch
	for g := 0; g < 3; g++ {
		wg.Add(1)
		workers++
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				var body strings.Builder
				for j := 0; j < 4; j++ {
					body.WriteString(watchIngestLine(fmt.Sprintf("g%d", g), i*4+j) + "\n")
				}
				rec := do(t, h, http.MethodPost, "/api/v1/ingest?dataset=inv", body.String())
				switch rec.Code {
				case http.StatusOK:
					ingests.Add(1)
				case http.StatusServiceUnavailable, http.StatusTooManyRequests:
					// shed or mid-swap: both are clean rejections
				default:
					errs <- fmt.Errorf("ingester %d: status %d: %s", g, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}

	// readers: cursor pagination across whatever service currently
	// serves the dataset; swaps may expire a cursor chain mid-walk
	for r := 0; r < 3; r++ {
		wg.Add(1)
		workers++
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				s, err := c.Resolve("inv")
				if err != nil {
					errs <- err
					return
				}
				cursor := ""
				for page := 0; page < 50; page++ {
					resp, err := s.Do(ctx, service.Request{
						Query:  demoQuery,
						Limit:  7,
						Cursor: cursor,
						Client: fmt.Sprintf("reader-%d", r),
					})
					switch {
					case err == nil:
						pages.Add(1)
						cursor = resp.NextCursor
					case errors.Is(err, service.ErrClientThrottled),
						errors.Is(err, service.ErrOverloaded),
						errors.Is(err, service.ErrCursorExpired),
						errors.Is(err, aiql.ErrClosed):
						cursor = ""
					default:
						errs <- fmt.Errorf("reader %d: %v", r, err)
						return
					}
					if cursor == "" {
						break
					}
				}
			}
		}(r)
	}

	// subscriber: drains matches from whichever service holds the watch,
	// re-subscribing across swaps (the carried sub also keeps working;
	// this exercises the subscribe/unsubscribe paths under churn)
	wg.Add(1)
	workers++
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			s, err := c.Resolve("inv")
			if err != nil {
				errs <- err
				return
			}
			sub, err := s.Subscribe(winfo.WatchID)
			if err != nil {
				// the watch can be mid-adoption during a swap
				if errors.Is(err, service.ErrWatchNotFound) {
					continue
				}
				errs <- err
				return
			}
			for i := 0; i < 20; i++ {
				select {
				case <-sub.Matches():
					drained.Add(1)
				case <-sub.Closed():
					i = 20
				case <-time.After(5 * time.Millisecond):
					i = 20
				case <-stop:
					i = 20
				}
			}
			s.Unsubscribe(winfo.WatchID, sub)
		}
	}()

	// swapper: hot-swap the dataset back to the snapshot repeatedly
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			time.Sleep(60 * time.Millisecond)
			if _, err := c.Load("inv", snap); err != nil {
				t.Errorf("hot-swap: %v", err)
				return
			}
			swaps.Add(1)
		}
		close(stop)
	}()

	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	if ingests.Load() == 0 || pages.Load() == 0 || swaps.Load() != 5 {
		t.Fatalf("test exercised nothing: %d ingests, %d pages, %d swaps", ingests.Load(), pages.Load(), swaps.Load())
	}

	// the watch still answers under its original id on the final service
	s, err := c.Resolve("inv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WatchInfo(winfo.WatchID); err != nil {
		t.Fatalf("watch lost across %d swaps: %v", swaps.Load(), err)
	}
	if rec := do(t, h, http.MethodGet, "/api/v1/watch?dataset=inv", ""); rec.Code != http.StatusOK {
		t.Errorf("final watch list: %s", rec.Body.String())
	} else {
		var infos []service.WatchInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil || len(infos) != 1 {
			t.Errorf("final watch list = %s", rec.Body.String())
		}
	}
	t.Logf("%d ingests, %d pages, %d matches drained across %d hot-swaps",
		ingests.Load(), pages.Load(), drained.Load(), swaps.Load())
}
