package webui

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/catalog"
)

func TestIndexServesPage(t *testing.T) {
	h := Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type %q, want text/html", ct)
	}
	if !strings.Contains(w.Body.String(), "Attack Investigation Query Language") {
		t.Error("page missing title")
	}
	// the page is the package's only route: the retired private JSON
	// endpoints and any other path 404
	for _, path := range []string{"/nope", "/api/query", "/api/check", "/api/stats", "/api/datasets"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"query": "x"}`)))
		if w.Code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, w.Code)
		}
	}
}

// fetchedPath matches the path literal of every request the page's
// script makes: through fetch itself or its call/post wrappers.
var fetchedPath = regexp.MustCompile(`\b(?:fetch|call|post)\('([^'?]*)`)

// pageAPI returns the API the page talks to in aiqlserver: the
// catalog's handler, here over one dataset holding one event.
func pageAPI(t *testing.T) http.Handler {
	t.Helper()
	db := aiql.Open()
	db.AppendAll([]aiql.Record{{
		AgentID: 7,
		Subject: aiql.Process{PID: 1, ExeName: "cmd.exe", Path: `C:\cmd.exe`, User: "u"},
		Op:      aiql.OpStart, ObjType: aiql.EntityProcess,
		ObjProc: aiql.Process{PID: 2, ExeName: "osql.exe", Path: `C:\osql.exe`, User: "u"},
		StartTS: time.Date(2018, 5, 10, 13, 0, 0, 0, time.UTC).UnixNano(),
	}})
	cat := catalog.New(catalog.Config{})
	t.Cleanup(func() { cat.Close() })
	if _, err := cat.AddDB("demo", db); err != nil {
		t.Fatal(err)
	}
	return cat.Handler()
}

// call sends one request to api and decodes the JSON object answered
// with the wanted status.
func call(t *testing.T, api http.Handler, method, path, body string, status int) map[string]any {
	t.Helper()
	w := httptest.NewRecorder()
	api.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	if w.Code != status {
		t.Fatalf("%s %s: status %d (%s), want %d", method, path, w.Code, w.Body.String(), status)
	}
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return out
}

// wantFields asserts out carries every field the page's script reads.
func wantFields(t *testing.T, what string, out map[string]any, fields ...string) {
	t.Helper()
	for _, f := range fields {
		if _, ok := out[f]; !ok {
			t.Errorf("%s: no %q field in %v", what, f, out)
		}
	}
}

// TestQueryEndpoint: the page's query request (limit 500) answers with
// every field the status line and table read.
func TestQueryEndpoint(t *testing.T) {
	api := pageAPI(t)
	out := call(t, api, http.MethodPost, "/api/v1/query",
		`{"query": "proc p start proc q as e return distinct p, q", "dataset": "", "limit": 500}`, http.StatusOK)
	wantFields(t, "query", out, "columns", "rows", "total_rows", "duration_ms", "scanned_events", "kind", "cached")
	if out["total_rows"] != 1.0 || out["kind"] != "multievent" {
		t.Errorf("query answer %v", out)
	}
}

// TestQueryEndpointReportsErrors: a failed query answers with the code,
// message and position the page's status line shows, and the endpoint
// rejects a GET.
func TestQueryEndpointReportsErrors(t *testing.T) {
	api := pageAPI(t)
	out := call(t, api, http.MethodPost, "/api/v1/query", `{"query": "proc p start", "limit": 500}`, http.StatusBadRequest)
	wantFields(t, "query error", out, "code", "error", "position")
	if out["code"] != "parse_error" {
		t.Errorf("query error %v, want parse_error", out)
	}
	out = call(t, api, http.MethodGet, "/api/v1/query", "", http.StatusMethodNotAllowed)
	wantFields(t, "GET query", out, "code", "error")
}

// TestCheckEndpoint: the page's syntax check reads ok and kind, or the
// failure's code, message and position.
func TestCheckEndpoint(t *testing.T) {
	api := pageAPI(t)
	out := call(t, api, http.MethodPost, "/api/v1/check", `{"query": "proc p start proc q as e return p"}`, http.StatusOK)
	if out["ok"] != true || out["kind"] != "multievent" {
		t.Errorf("check %v, want ok multievent", out)
	}
	out = call(t, api, http.MethodPost, "/api/v1/check", `{"query": "proc p start file f as e return p"}`, http.StatusOK)
	wantFields(t, "failed check", out, "code", "error", "position")
	if out["ok"] == true || !strings.Contains(out["error"].(string), "cannot target") {
		t.Errorf("semantic error not surfaced: %v", out)
	}
}

// TestStatsEndpoint: the page's storage footer reads these blocks of
// the dataset's stats, and the dataset selector reads each listed
// dataset's name.
func TestStatsEndpoint(t *testing.T) {
	api := pageAPI(t)
	out := call(t, api, http.MethodGet, "/api/v1/stats", "", http.StatusOK)
	wantFields(t, "stats", out, "store", "durable", "storage", "prepared", "ingest", "watch")
	if store, _ := out["store"].(map[string]any); store["events"] != 1.0 {
		t.Errorf("stats store %v, want 1 event", out["store"])
	}
	out = call(t, api, http.MethodGet, "/api/v1/datasets", "", http.StatusOK)
	list, _ := out["datasets"].([]any)
	if out["default"] != "demo" || len(list) != 1 || list[0].(map[string]any)["dataset"] != "demo" {
		t.Errorf("datasets %v, want the one dataset demo", out)
	}
}

// TestPageSpeaksOnlyAPIv1 pins the page to the versioned API: every
// path its script requests is under /api/v1/ and is routed by the
// catalog's handler, so the UI has no endpoint of its own to drift.
func TestPageSpeaksOnlyAPIv1(t *testing.T) {
	api := pageAPI(t)

	paths := map[string]bool{}
	for _, m := range fetchedPath.FindAllStringSubmatch(string(page), -1) {
		paths[m[1]] = true
	}
	for _, want := range []string{"/api/v1/query", "/api/v1/check", "/api/v1/stats", "/api/v1/datasets"} {
		if !paths[want] {
			t.Errorf("page never requests %s", want)
		}
	}
	for path := range paths {
		if !strings.HasPrefix(path, "/api/v1/") {
			t.Errorf("page requests %s, outside /api/v1/", path)
			continue
		}
		w := httptest.NewRecorder()
		api.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code == http.StatusNotFound {
			t.Errorf("%s: 404 from the catalog's API handler", path)
		}
	}
}
