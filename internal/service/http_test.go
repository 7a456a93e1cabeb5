package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func doJSON(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeResult(t *testing.T, rec *httptest.ResponseRecorder) QueryResult {
	t.Helper()
	var out QueryResult
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return out
}

func decodeError(t *testing.T, rec *httptest.ResponseRecorder) ErrorResponse {
	t.Helper()
	var out ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return out
}

func TestHTTPQuerySuccess(t *testing.T) {
	svc := New(newTestDB(t, 20), Config{})
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query",
		`{"query": "proc p write file f as evt return p, f"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	out := decodeResult(t, rec)
	if out.TotalRows != 20 || len(out.Rows) != 20 {
		t.Errorf("total_rows=%d rows=%d, want 20/20", out.TotalRows, len(out.Rows))
	}
	if len(out.Columns) != 2 {
		t.Errorf("columns = %v, want 2 columns", out.Columns)
	}
	if out.Cached {
		t.Error("first execution reported cached")
	}
	if out.Kind != "multievent" {
		t.Errorf("kind = %q, want multievent", out.Kind)
	}
	if out.ScannedEvents == 0 {
		t.Error("scanned_events = 0, want > 0")
	}
	if out.DurationMS < 0 {
		t.Errorf("duration_ms = %f", out.DurationMS)
	}
}

func TestHTTPQueryParseError(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	for name, body := range map[string]string{
		"invalid AIQL":   `{"query": "this is not aiql"}`,
		"malformed JSON": `{"query": `,
		"semantic error": `{"query": "proc p write file f as evt return q"}`,
	} {
		rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, rec.Code, rec.Body.String())
			continue
		}
		if e := decodeError(t, rec); e.Error == "" {
			t.Errorf("%s: empty error message", name)
		}
	}
}

func TestHTTPQueryBodyTooLarge(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	body := `{"query": "` + strings.Repeat("x", maxRequestBody+1024) + `"}`
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query", body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for an oversized body", rec.Code)
	}
}

func TestHTTPQueryMethodNotAllowed(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	rec := doJSON(t, svc.Handler(), http.MethodGet, "/api/v1/query", "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", rec.Code)
	}
}

func TestHTTPQueryTimeout(t *testing.T) {
	svc := New(fig4DB(), Config{})
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query",
		`{"query": "`+strings.ReplaceAll(strings.ReplaceAll(fig4Query, `"`, `\"`), "\n", " ")+`", "timeout_ms": 5}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	e := decodeError(t, rec)
	if !strings.Contains(e.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", e.Error)
	}
}

func TestHTTPQueryOverloaded(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{Workers: 1})
	svc.queueDepth, svc.queueWait = 1, 20*time.Millisecond
	svc.sem <- struct{}{} // jam the only worker
	defer func() { <-svc.sem }()
	svc.queued.Add(1) // and the only queue slot
	defer svc.queued.Add(-1)
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query",
		`{"query": "proc p write file f as evt return p, f"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("503 without Retry-After")
	}
}

func TestHTTPQueryLimitTruncation(t *testing.T) {
	svc := New(newTestDB(t, 50), Config{})
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query",
		`{"query": "proc p write file f as evt return p, f", "limit": 3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	out := decodeResult(t, rec)
	if len(out.Rows) != 3 || out.TotalRows != 50 {
		t.Errorf("rows=%d total_rows=%d, want 3/50", len(out.Rows), out.TotalRows)
	}
}

func TestHTTPQueryCachedRoundTrip(t *testing.T) {
	svc := New(newTestDB(t, 10), Config{})
	body := `{"query": "proc p write file f as evt return p, f"}`
	first := decodeResult(t, doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query", body))
	if first.Cached {
		t.Fatal("first response cached")
	}
	second := decodeResult(t, doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query", body))
	if !second.Cached {
		t.Fatal("second response not cached")
	}
	if second.TotalRows != first.TotalRows || len(second.Rows) != len(first.Rows) {
		t.Errorf("cached response differs: %d/%d vs %d/%d",
			second.TotalRows, len(second.Rows), first.TotalRows, len(first.Rows))
	}
}

func TestHTTPCheck(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/check",
		`{"query": "proc p write file f as evt return p, f"}`)
	var ok CheckResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil || !ok.OK || ok.Kind != "multievent" {
		t.Fatalf("check: %s (err %v)", rec.Body.String(), err)
	}
	rec = doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/check", `{"query": "bogus"}`)
	var bad CheckResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &bad); err != nil || bad.OK || bad.Error == "" {
		t.Fatalf("check bogus: %s (err %v)", rec.Body.String(), err)
	}
}

func TestHTTPStats(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query",
		`{"query": "proc p write file f as evt return p, f"}`)
	rec := doJSON(t, svc.Handler(), http.MethodGet, "/api/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var st DatasetStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Service.Queries != 1 || st.Service.CacheMisses != 1 {
		t.Errorf("stats = %+v, want 1 query / 1 miss", st.Service)
	}
	if st.Store.Events != 5 {
		t.Errorf("store stats report %d events, want 5", st.Store.Events)
	}
	if st.Store.SealedEvents+st.Store.MemtableEvents != st.Store.Events {
		t.Errorf("segment accounting: sealed %d + memtable %d != %d",
			st.Store.SealedEvents, st.Store.MemtableEvents, st.Store.Events)
	}
}

// TestHTTPExplain: "explain": true returns the scheduled plan instead
// of rows.
func TestHTTPExplain(t *testing.T) {
	svc := New(newTestDB(t, 20), Config{})
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query",
		`{"query": "proc p write file f as evt1\nproc p read file g as evt2\nwith evt1 before evt2\nreturn p, f, g", "explain": true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	out := decodeResult(t, rec)
	if len(out.Plan) != 2 {
		t.Fatalf("plan has %d entries, want 2: %s", len(out.Plan), rec.Body.String())
	}
	if len(out.Rows) != 0 || out.TotalRows != 0 {
		t.Errorf("explain returned rows: %+v", out)
	}
	for _, e := range out.Plan {
		if e.Alias == "" || e.Estimate < 0 {
			t.Errorf("bad plan entry %+v", e)
		}
	}
	// the write pattern is less selective than nothing, but both aliases
	// must appear in scheduled order
	if out.Plan[0].Alias == out.Plan[1].Alias {
		t.Errorf("duplicate aliases in plan: %+v", out.Plan)
	}
}

// TestHTTPUnknownDataset: naming a dataset on a single-dataset server
// is a 404, not a silent fallback.
func TestHTTPUnknownDataset(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	rec := doJSON(t, svc.Handler(), http.MethodPost, "/api/v1/query",
		`{"query": "proc p write file f as evt return p, f", "dataset": "nope"}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", rec.Code, rec.Body.String())
	}
}
