package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/experiments"
)

// ingestLine renders one valid NDJSON ingest record: worker.exe writing
// a unique file, so each line adds exactly one row to demoQuery.
func ingestLine(i int) string {
	return fmt.Sprintf(`{"agentid": %d, "op": "write", "object_type": "file", "subject": {"pid": 100, "exe_name": "worker.exe"}, "file": {"name": "C:\\live\\out%d.log"}, "start_ts": %d}`,
		1+i%4, i, int64(1000+i)*int64(time.Second))
}

func TestHTTPIngestCommitsAndQueries(t *testing.T) {
	svc := New(newTestDB(t, 20), Config{})
	h := svc.Handler()
	var body strings.Builder
	for i := 0; i < 5; i++ {
		body.WriteString(ingestLine(i) + "\n")
	}
	rec := doJSON(t, h, http.MethodPost, "/api/v1/ingest", body.String())
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	var res IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Ingested != 5 {
		t.Errorf("ingested = %d, want 5", res.Ingested)
	}
	// the batch is visible to queries the moment the ingest returns
	qbody, _ := json.Marshal(QueryRequest{Query: demoQuery})
	q := doJSON(t, h, http.MethodPost, "/api/v1/query", string(qbody))
	if q.Code != http.StatusOK {
		t.Fatalf("post-ingest query: status %d: %s", q.Code, q.Body.String())
	}
	if out := decodeResult(t, q); out.TotalRows != 25 {
		t.Errorf("post-ingest rows = %d, want 25", out.TotalRows)
	}
	st := svc.IngestStats()
	if st.Requests != 1 || st.Events != 5 || st.Rejected != 0 {
		t.Errorf("ingest stats = %+v", st)
	}
	// stats endpoint carries the ingest section
	stats := doJSON(t, h, http.MethodGet, "/api/v1/stats", "")
	if !strings.Contains(stats.Body.String(), `"ingest"`) || !strings.Contains(stats.Body.String(), `"watch"`) {
		t.Errorf("stats body lacks ingest/watch sections: %s", stats.Body.String())
	}
}

func TestHTTPIngestValidation(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	svc.maxRecords = 4
	h := svc.Handler()
	cases := []struct {
		name, body string
		status     int
		code       string
		mention    string
	}{
		{"bad JSON", `{"agentid": `, http.StatusBadRequest, CodeBadRequest, "record 1"},
		{"unknown op", `{"op": "explode", "subject": {"exe_name": "a.exe"}, "start_ts": 1}`,
			http.StatusBadRequest, CodeBadRequest, "unknown op"},
		{"polymorphic without object_type", `{"op": "read", "subject": {"exe_name": "a.exe"}, "file": {"name": "f"}, "start_ts": 1}`,
			http.StatusBadRequest, CodeBadRequest, "object_type"},
		{"missing subject", `{"op": "write", "object_type": "file", "file": {"name": "f"}, "start_ts": 1}`,
			http.StatusBadRequest, CodeBadRequest, "exe_name"},
		{"missing object payload", `{"op": "connect", "subject": {"exe_name": "a.exe"}, "start_ts": 1}`,
			http.StatusBadRequest, CodeBadRequest, "netconn"},
		{"missing start_ts", ingestLine(0) + "\n" + `{"op": "write", "object_type": "file", "subject": {"exe_name": "a.exe"}, "file": {"name": "f"}}`,
			http.StatusBadRequest, CodeBadRequest, "record 2"},
		{"wrong object_type for op", `{"op": "start", "object_type": "file", "subject": {"exe_name": "a.exe"}, "process": {"exe_name": "b.exe"}, "start_ts": 1}`,
			http.StatusBadRequest, CodeBadRequest, "object_type"},
		{"empty body", "", http.StatusBadRequest, CodeBadRequest, "no records"},
		{"record cap", ingestLine(0) + "\n" + ingestLine(1) + "\n" + ingestLine(2) + "\n" + ingestLine(3) + "\n" + ingestLine(4),
			http.StatusRequestEntityTooLarge, CodeTooLarge, "cap"},
		// decoding stops at the record past the cap: what follows it is
		// never read, so malformed JSON there cannot turn 413 into 400
		{"record cap before bad JSON", ingestLine(0) + "\n" + ingestLine(1) + "\n" + ingestLine(2) + "\n" + ingestLine(3) + "\n" + ingestLine(4) + "\n" + `{"agentid": `,
			http.StatusRequestEntityTooLarge, CodeTooLarge, "cap"},
	}
	for _, tc := range cases {
		rec := doJSON(t, h, http.MethodPost, "/api/v1/ingest", tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body.String())
			continue
		}
		e := decodeError(t, rec)
		if e.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Code, tc.code)
		}
		if !strings.Contains(e.Error, tc.mention) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e.Error, tc.mention)
		}
	}
	// nothing committed, every batch counted as rejected
	if n := svc.DB().Len(); n != 5 {
		t.Errorf("store grew to %d events, want the seed 5 — a rejected batch committed", n)
	}
	if st := svc.IngestStats(); st.Requests != 0 || int(st.Rejected) != len(cases) {
		t.Errorf("ingest stats = %+v, want 0 accepted and one rejection per case (%d)", st, len(cases))
	}
	// method gate
	if rec := doJSON(t, h, http.MethodGet, "/api/v1/ingest", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET ingest: status %d, want 405", rec.Code)
	}
}

func TestHTTPIngestBodyTooLarge(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{IngestMaxBytes: 256})
	var body strings.Builder
	for i := 0; i < 10; i++ {
		body.WriteString(ingestLine(i) + "\n")
	}
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/ingest", body.String())
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body.String())
	}
	if e := decodeError(t, rec); e.Code != CodeTooLarge {
		t.Errorf("code %q, want %q", e.Code, CodeTooLarge)
	}
}

// TestHTTPIngestClosedStore: a batch racing a dataset teardown fails
// with 503 dataset_reloading + Retry-After, the signal that the agent
// should resend against the swapped-in store.
func TestHTTPIngestClosedStore(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	if err := svc.DB().Close(); err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/ingest", ingestLine(0))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if e := decodeError(t, rec); e.Code != CodeDatasetReloading {
		t.Errorf("code %q, want %q", e.Code, CodeDatasetReloading)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 dataset_reloading without Retry-After")
	}
}

// TestRetryAfterProportional: the Retry-After hint scales with live
// queue pressure instead of the old hardcoded "1" — a full queue tells
// shed clients to stay away for the whole queue wait.
func TestRetryAfterProportional(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{Workers: 1})
	svc.queueDepth, svc.queueWait = 4, 20*time.Second
	svc.sem <- struct{}{} // jam the only worker
	defer func() { <-svc.sem }()
	svc.queued.Add(4) // report a full queue
	defer svc.queued.Add(-4)
	for _, ep := range []struct{ path, body string }{
		{"/api/v1/query", `{"query": "proc p write file f as evt return p, f"}`},
		{"/api/v1/ingest", ingestLine(0)},
	} {
		rec := doJSON(t, svc.Handler(), http.MethodPost, ep.path, ep.body)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503: %s", ep.path, rec.Code, rec.Body.String())
		}
		secs, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil {
			t.Fatalf("%s: Retry-After %q is not an integer", ep.path, rec.Header().Get("Retry-After"))
		}
		// 4 queued x 20s / depth 4 = 20s; anything proportional (> 1s
		// floor) proves the hint is load-derived
		if secs != 20 {
			t.Errorf("%s: Retry-After = %d, want 20 (full queue x queue wait)", ep.path, secs)
		}
	}
}

// TestRetryAfterIdleQueueFloor: with no queue pressure the hint stays
// at the 1-second floor.
func TestRetryAfterIdleQueueFloor(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{Workers: 1})
	svc.queueDepth, svc.queueWait = 8, 20*time.Second
	if err := svc.acquireClient("agent"); err != nil {
		t.Fatal(err)
	}
	defer svc.releaseClient("agent")
	err := svc.acquireClient("agent")
	if err == nil {
		t.Fatal("second acquire admitted past a client cap of 1")
	}
	var hint *retryHintError
	if !errors.As(err, &hint) {
		t.Fatalf("throttle error %v carries no retry hint", err)
	}
	if hint.after != 1 {
		t.Errorf("idle-queue Retry-After = %d, want the 1s floor", hint.after)
	}
}

// registerWatch registers a standing query over the handler and returns
// its id.
func registerWatch(t *testing.T, h http.Handler, query string) string {
	t.Helper()
	body, _ := json.Marshal(WatchRequest{Query: query})
	rec := doJSON(t, h, http.MethodPost, "/api/v1/watch", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("watch registration: status %d: %s", rec.Code, rec.Body.String())
	}
	var info WatchInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.WatchID == "" {
		t.Fatal("watch registration returned no watch_id")
	}
	return info.WatchID
}

// TestWatchLifecycleHTTP drives the registry end to end over the wire:
// register, list, describe, incremental matches after ingest, delete.
func TestWatchLifecycleHTTP(t *testing.T) {
	svc := New(newTestDB(t, 20), Config{})
	h := svc.Handler()
	id := registerWatch(t, h, demoQuery)

	// the registration baseline recorded the 20 existing rows without
	// pushing them
	info, err := svc.WatchInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Matches != 20 || info.Evals != 1 {
		t.Errorf("baseline info = %+v, want 20 matches across 1 eval", info)
	}
	if st := svc.WatchStats(); st.Matches != 0 {
		t.Errorf("baseline pushed %d matches, want 0 (baselines are recorded, not pushed)", st.Matches)
	}

	// GET /api/v1/watch lists it
	list := doJSON(t, h, http.MethodGet, "/api/v1/watch", "")
	var infos []WatchInfo
	if err := json.Unmarshal(list.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].WatchID != id {
		t.Fatalf("watch list = %+v", infos)
	}

	// an ingest of 3 fresh matching rows re-evaluates the watch
	rec := doJSON(t, h, http.MethodPost, "/api/v1/ingest",
		ingestLine(0)+"\n"+ingestLine(1)+"\n"+ingestLine(2))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %s", rec.Body.String())
	}
	var res IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.WatchesEvaluated != 1 || res.NewMatches != 3 {
		t.Errorf("ingest result = %+v, want 1 watch evaluated, 3 new matches", res)
	}
	info, _ = svc.WatchInfo(id)
	if info.Matches != 23 || info.LastEval == nil || info.LastEval.FreshRows != 3 {
		t.Errorf("post-ingest info = %+v (last_eval %+v)", info, info.LastEval)
	}

	// a duplicate ingest of the same rows produces no fresh matches
	rec = doJSON(t, h, http.MethodPost, "/api/v1/ingest", ingestLine(0))
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.NewMatches != 0 {
		t.Errorf("replayed row reported %d new matches, want 0 (delta dedup)", res.NewMatches)
	}

	// GET {id} and DELETE {id}
	if rec := doJSON(t, h, http.MethodGet, "/api/v1/watch/"+id, ""); rec.Code != http.StatusOK {
		t.Errorf("GET watch: status %d", rec.Code)
	}
	if rec := doJSON(t, h, http.MethodDelete, "/api/v1/watch/"+id, ""); rec.Code != http.StatusOK {
		t.Errorf("DELETE watch: status %d: %s", rec.Code, rec.Body.String())
	}
	rec = doJSON(t, h, http.MethodGet, "/api/v1/watch/"+id, "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("deleted watch: status %d, want 404", rec.Code)
	}
	if e := decodeError(t, rec); e.Code != CodeWatchNotFound {
		t.Errorf("deleted watch code = %q, want %q", e.Code, CodeWatchNotFound)
	}
}

// TestWatchTellsApartRowsThatJoinAlike: ingest accepts control
// characters, so two rows whose cells join to the same bytes under any
// separator — ("a\x1fb", "c") and ("a", "b\x1fc") — are both fresh
// matches, and each is pushed.
func TestWatchTellsApartRowsThatJoinAlike(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	h := svc.Handler()
	registerWatch(t, h, `proc p write file f as evt return distinct p.exe_name, f.name`)
	line := func(exe, file string, sec int) string {
		e, _ := json.Marshal(exe)
		f, _ := json.Marshal(file)
		return fmt.Sprintf(`{"agentid": 1, "op": "write", "object_type": "file", "subject": {"pid": 7, "exe_name": %s}, "file": {"name": %s}, "start_ts": %d}`,
			e, f, int64(5000+sec)*int64(time.Second))
	}
	rec := doJSON(t, h, http.MethodPost, "/api/v1/ingest", line("a\x1fb", "c", 0)+"\n"+line("a", "b\x1fc", 1))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body.String())
	}
	var res IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.NewMatches != 2 {
		t.Errorf("ingest result = %+v, want 2 new matches: the rows differ, they only join alike", res)
	}
}

func TestWatchLimit(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	svc.watches.cap = 1
	h := svc.Handler()
	registerWatch(t, h, demoQuery)
	body, _ := json.Marshal(WatchRequest{Query: demoQuery})
	rec := doJSON(t, h, http.MethodPost, "/api/v1/watch", string(body))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit registration: status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if e := decodeError(t, rec); e.Code != CodeWatchLimit {
		t.Errorf("code %q, want %q", e.Code, CodeWatchLimit)
	}

	// a broken query never registers
	rec = doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/watch", `{"query": "this is not aiql"}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad query registration: status %d, want 400", rec.Code)
	}
}

// TestWatchLimitRefusesBeforeBaseline: a registration against a full
// registry is refused before its baseline evaluation, so it neither
// runs the baseline nor waits for a worker slot.
func TestWatchLimitRefusesBeforeBaseline(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{Workers: 1})
	svc.watches.cap = 1
	svc.queueWait = 20 * time.Millisecond
	h := svc.Handler()
	registerWatch(t, h, demoQuery)
	evals := svc.WatchStats().Evals
	svc.sem <- struct{}{} // jam the only worker
	defer func() { <-svc.sem }()

	body, _ := json.Marshal(WatchRequest{Query: demoQuery})
	rec := doJSON(t, h, http.MethodPost, "/api/v1/watch", string(body))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("registration at the cap: status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if e := decodeError(t, rec); e.Code != CodeWatchLimit {
		t.Errorf("code %q, want %q", e.Code, CodeWatchLimit)
	}
	if got := svc.WatchStats().Evals; got != evals {
		t.Errorf("evals %d -> %d: the refused registration ran a baseline", evals, got)
	}
	if st := svc.Stats(); st.Rejected != 0 || st.Queued != 0 {
		t.Errorf("the refused registration waited for a worker: %+v", st)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes the stream until one full event (or the comment
// preamble) arrives, a deadline guard against a silent stream.
func readSSE(t *testing.T, sc *bufio.Scanner) sseEvent {
	t.Helper()
	var ev sseEvent
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "" && (ev.name != "" || ev.data != ""):
				return
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			}
		}
		ev.name = "eof"
	}()
	select {
	case <-done:
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream produced no event within 10s")
		return ev
	}
}

// TestWatchSSEGolden is the wire-format acceptance test: a subscriber
// receives exactly the fresh post-registration matches as `match`
// events, and watch deletion ends the stream with a `close` event.
func TestWatchSSEGolden(t *testing.T) {
	svc := New(newTestDB(t, 20), Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	id := registerWatch(t, svc.Handler(), demoQuery)

	resp, err := http.Get(srv.URL + "/api/v1/watch/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)

	// wait for the subscription to attach before ingesting, otherwise
	// the match races the Subscribe call
	waitFor(t, func() bool {
		info, err := svc.WatchInfo(id)
		return err == nil && info.Subscribers == 1
	}, "subscriber attach")

	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/ingest", ingestLine(0)+"\n"+ingestLine(1))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %s", rec.Body.String())
	}

	ev := readSSE(t, sc)
	if ev.name != "match" {
		t.Fatalf("first event = %+v, want a match", ev)
	}
	var m WatchMatch
	if err := json.Unmarshal([]byte(ev.data), &m); err != nil {
		t.Fatalf("match data %q: %v", ev.data, err)
	}
	if m.WatchID != id || len(m.Rows) != 2 || m.TotalMatches != 22 {
		t.Errorf("match = %+v, want 2 fresh rows on top of the 20-row baseline", m)
	}
	if len(m.Columns) != 2 {
		t.Errorf("match columns = %v", m.Columns)
	}
	for _, row := range m.Rows {
		if !strings.Contains(strings.Join(row, " "), "worker.exe") {
			t.Errorf("match row %v does not carry the subject", row)
		}
	}

	// deleting the watch closes the stream with a close event, then EOF
	if rec := doJSON(t, svc.Handler(), http.MethodDelete, "/api/v1/watch/"+id, ""); rec.Code != http.StatusOK {
		t.Fatalf("DELETE: %s", rec.Body.String())
	}
	if ev := readSSE(t, sc); ev.name != "close" {
		t.Fatalf("post-delete event = %+v, want close", ev)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Errorf("stream did not end cleanly: %v", err)
	}
}

// TestWatchSSEDisconnectUnsubscribes: a client disconnect tears the
// subscription down server-side, so a gone consumer stops costing
// buffer space.
func TestWatchSSEDisconnectUnsubscribes(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	id := registerWatch(t, svc.Handler(), demoQuery)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/api/v1/watch/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitFor(t, func() bool {
		info, err := svc.WatchInfo(id)
		return err == nil && info.Subscribers == 1
	}, "subscriber attach")

	cancel() // client goes away
	waitFor(t, func() bool {
		info, err := svc.WatchInfo(id)
		return err == nil && info.Subscribers == 0
	}, "disconnect-driven unsubscribe")

	// the watch itself survives and keeps evaluating
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/ingest", ingestLine(0))
	var res IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.WatchesEvaluated != 1 || res.NewMatches != 1 {
		t.Errorf("post-disconnect ingest = %+v", res)
	}

	// subscribing to an unknown watch is a clean 404
	bad, err := http.Get(srv.URL + "/api/v1/watch/watch_nope/events")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusNotFound {
		t.Errorf("unknown watch SSE: status %d, want 404", bad.StatusCode)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestWatchSlowSubscriberDropsOldest: a stalled consumer loses its
// oldest matches, keeps the freshest, and never blocks the ingest path.
func TestWatchSlowSubscriberDropsOldest(t *testing.T) {
	svc := New(newTestDB(t, 0), Config{})
	svc.watches.buffer = 2
	h := svc.Handler()
	id := registerWatch(t, h, demoQuery)
	sub, err := svc.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Unsubscribe(id, sub)

	// 5 single-record ingests = 5 pushes into a 2-slot buffer nobody
	// drains; each must return promptly (drop-oldest, not block)
	for i := 0; i < 5; i++ {
		rec := doJSON(t, h, http.MethodPost, "/api/v1/ingest", ingestLine(i))
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest %d: %s", i, rec.Body.String())
		}
	}
	info, err := svc.WatchInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Dropped != 3 {
		t.Errorf("dropped = %d, want 3 (5 pushes, 2 buffered)", info.Dropped)
	}
	if st := svc.WatchStats(); st.Dropped != 3 || st.Matches != 5 {
		t.Errorf("watch stats = %+v", st)
	}
	// the two freshest matches are still deliverable, oldest first
	got := []string{}
	for i := 0; i < 2; i++ {
		select {
		case m := <-sub.Matches():
			got = append(got, strings.Join(m.Rows[0], " "))
		default:
			t.Fatalf("buffer held %d matches, want 2", i)
		}
	}
	if !strings.Contains(got[0], "out3.log") || !strings.Contains(got[1], "out4.log") {
		t.Errorf("buffered matches = %v, want the freshest two (out3, out4)", got)
	}
}

// TestFig4StandingQueryDelta is the tentpole acceptance test: over the
// paper's 50k-event Fig4 dataset, a standing query re-evaluated after a
// small ingest serves all sealed history from the segment scan cache
// and scans only the fresh delta — and still pushes the new match.
func TestFig4StandingQueryDelta(t *testing.T) {
	db := aiql.FromStore(experiments.BuildStore(experiments.Fig4Dataset(50000, 10, 42)))
	if err := db.Flush(); err != nil { // seal everything so segment reuse applies
		t.Fatal(err)
	}
	db.EnableSegmentScanCache(64 << 20)
	svc := New(db, Config{})
	h := svc.Handler()
	total := db.Len()

	id := registerWatch(t, h, `agentid = 2
proc p["%powershell.exe"] read file f as evt
return distinct p, f`)
	sub, err := svc.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Unsubscribe(id, sub)

	baseline, err := svc.WatchInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.LastEval == nil || baseline.LastEval.SegmentMisses == 0 {
		t.Fatalf("baseline eval = %+v, want cold segment misses", baseline.LastEval)
	}

	// a small live batch: one fresh matching event among the 50k. The
	// subject replays an already-interned process entity (the demo-apt
	// powershell on the DB server), so the watch's resolved entity sets
	// — part of the scan-cache fingerprint — are unchanged and sealed
	// history stays a cache hit; only the new file entity and event are
	// fresh.
	line := `{"agentid": 2, "op": "read", "object_type": "file", "subject": {"pid": 2240, "exe_name": "powershell.exe", "path": "C:\\Windows\\System32\\WindowsPowerShell\\powershell.exe", "user": "dbadmin"}, "file": {"name": "C:\\secret\\exfil-live.txt"}, "start_ts": 1525956000000000999}`
	rec := doJSON(t, h, http.MethodPost, "/api/v1/ingest", line)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %s", rec.Body.String())
	}
	var res IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.WatchesEvaluated != 1 || res.NewMatches != 1 {
		t.Fatalf("ingest result = %+v, want exactly the 1 fresh match", res)
	}

	info, err := svc.WatchInfo(id)
	if err != nil {
		t.Fatal(err)
	}
	le := info.LastEval
	if le == nil {
		t.Fatal("no last_eval recorded")
	}
	// the incremental contract: sealed history is cache hits, the scan
	// touches only the fresh tail — orders of magnitude below the store
	if le.SegmentHits == 0 {
		t.Errorf("re-evaluation had %d segment hits, want > 0 (sealed history cached)", le.SegmentHits)
	}
	if le.SegmentMisses != 0 {
		t.Errorf("re-evaluation missed %d segments, want 0 (baseline warmed the cache)", le.SegmentMisses)
	}
	if le.ScannedEvents <= 0 || le.ScannedEvents >= int64(total)/100 {
		t.Errorf("re-evaluation scanned %d of %d events, want only the fresh delta", le.ScannedEvents, total)
	}
	if le.FreshRows != 1 {
		t.Errorf("fresh rows = %d, want 1", le.FreshRows)
	}

	// the match reached the subscriber
	select {
	case m := <-sub.Matches():
		if len(m.Rows) != 1 || !strings.Contains(strings.Join(m.Rows[0], " "), "exfil-live.txt") {
			t.Errorf("pushed match = %+v", m)
		}
	default:
		t.Error("fresh match was not pushed to the subscriber")
	}

	// an ingest that cannot match pushes nothing but records the eval;
	// the cache stays warm so it is still delta-priced
	rec = doJSON(t, h, http.MethodPost, "/api/v1/ingest",
		`{"agentid": 9, "op": "write", "object_type": "file", "subject": {"exe_name": "idle.exe"}, "file": {"name": "C:\\tmp\\noise.log"}, "start_ts": 1525956000000001000}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("noise ingest: %s", rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.NewMatches != 0 {
		t.Errorf("noise ingest produced %d matches", res.NewMatches)
	}
	info, _ = svc.WatchInfo(id)
	if info.LastEval.SegmentMisses != 0 {
		t.Errorf("noise re-evaluation missed %d segments, want 0", info.LastEval.SegmentMisses)
	}
}
