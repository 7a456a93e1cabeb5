package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

const paramQuery = `proc p[$exe] write file f as evt return p, f`

func TestServicePrepareAndExecute(t *testing.T) {
	svc := New(newTestDB(t, 20), Config{})
	ctx := context.Background()

	info, err := svc.Prepare(paramQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.StmtID, "stmt_") || info.Kind != "multievent" {
		t.Fatalf("info = %+v", info)
	}
	if len(info.Params) != 1 || info.Params[0] != (ParamInfo{Name: "exe", Type: "string"}) {
		t.Fatalf("params = %+v", info.Params)
	}

	resp, err := svc.Do(ctx, Request{StmtID: info.StmtID, Params: map[string]any{"exe": "%worker.exe"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TotalRows != 20 || resp.Cached {
		t.Fatalf("resp = total %d cached %v", resp.TotalRows, resp.Cached)
	}
	if resp.Kind != "multievent" {
		t.Errorf("kind = %q", resp.Kind)
	}

	// identical bindings hit the result cache; different bindings miss
	// but share the compiled plan
	again, err := svc.Do(ctx, Request{StmtID: info.StmtID, Params: map[string]any{"exe": "%worker.exe"}})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("identical bindings not served from cache")
	}
	other, err := svc.Do(ctx, Request{StmtID: info.StmtID, Params: map[string]any{"exe": "%nosuch%"}})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached || other.TotalRows != 0 {
		t.Errorf("distinct binding: cached=%v rows=%d", other.Cached, other.TotalRows)
	}

	st := svc.PreparedStats()
	if st.Statements != 1 || st.Hits < 3 {
		t.Errorf("prepared stats = %+v", st)
	}
}

// TestInlineParamsShareCacheWithStmt: an inline query+params execution
// and a stmt_id execution of the same template and bindings are one
// cache entry (keyed on fingerprint + canonical bindings).
func TestInlineParamsShareCacheWithStmt(t *testing.T) {
	svc := New(newTestDB(t, 10), Config{})
	ctx := context.Background()

	info, err := svc.Prepare(paramQuery)
	if err != nil {
		t.Fatal(err)
	}
	first, err := svc.Do(ctx, Request{StmtID: info.StmtID, Params: map[string]any{"exe": "%worker.exe"}})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first execution cached")
	}
	// reformatted inline text, same template fingerprint, same bindings
	inline, err := svc.Do(ctx, Request{
		Query:  "proc p[$exe]   write file f as evt\nreturn p, f",
		Params: map[string]any{"exe": "%worker.exe"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inline.Cached {
		t.Error("inline execution of the same template+bindings missed the cache")
	}
}

func TestPreparedRegistryEviction(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	svc.prepared.cap = 2
	ids := make([]string, 3)
	for i := range ids {
		info, err := svc.Prepare(fmt.Sprintf(`proc p[$e%d] write file f as evt return p`, i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.StmtID
	}
	if _, err := svc.prepared.get(ids[0], time.Now()); !errors.Is(err, ErrStmtNotFound) {
		t.Errorf("oldest statement survived a full registry: %v", err)
	}
	if _, err := svc.prepared.get(ids[2], time.Now()); err != nil {
		t.Errorf("newest statement evicted: %v", err)
	}
	if st := svc.PreparedStats(); st.Evictions != 1 || st.Statements != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPreparedRegistryTTL(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	svc.prepared.ttl = time.Nanosecond
	info, err := svc.Prepare(paramQuery)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	_, err = svc.Do(context.Background(), Request{StmtID: info.StmtID, Params: map[string]any{"exe": "%"}})
	if !errors.Is(err, ErrStmtNotFound) {
		t.Fatalf("expired statement answered: %v", err)
	}
	if st := svc.PreparedStats(); st.Expired == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHTTPPrepareRoundTrip(t *testing.T) {
	svc := New(newTestDB(t, 30), Config{})
	h := svc.Handler()

	rec := doJSON(t, h, http.MethodPost, "/api/v1/prepare",
		`{"query": "proc p[$exe] write file f as evt return p, f"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("prepare status %d: %s", rec.Code, rec.Body.String())
	}
	var prep PrepareResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &prep); err != nil {
		t.Fatal(err)
	}
	if prep.StmtID == "" || prep.Kind != "multievent" {
		t.Fatalf("prepare response = %+v", prep)
	}
	if len(prep.Params) != 1 || prep.Params[0].Name != "exe" || prep.Params[0].Type != "string" {
		t.Fatalf("params = %+v", prep.Params)
	}
	if len(prep.Columns) != 2 {
		t.Errorf("columns = %v", prep.Columns)
	}

	rec = doJSON(t, h, http.MethodPost, "/api/v1/query",
		`{"stmt_id": "`+prep.StmtID+`", "params": {"exe": "%worker.exe"}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
	}
	out := decodeResult(t, rec)
	if out.TotalRows != 30 || len(out.Rows) != 30 {
		t.Errorf("total_rows=%d rows=%d, want 30/30", out.TotalRows, len(out.Rows))
	}

	// execute-by-stmt_id with explain returns the frozen plan
	rec = doJSON(t, h, http.MethodPost, "/api/v1/query",
		`{"stmt_id": "`+prep.StmtID+`", "params": {"exe": "%worker.exe"}, "explain": true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain status %d: %s", rec.Code, rec.Body.String())
	}
	if out := decodeResult(t, rec); len(out.Plan) != 1 || len(out.Rows) != 0 {
		t.Errorf("explain = %+v", out)
	}
}

// TestHTTPErrorModelGolden pins the structured error model: stable
// machine-readable codes, line/col positions for query-text errors, and
// the parameter name in detail for binding errors.
func TestHTTPErrorModelGolden(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	svc.prepared.ttl = time.Nanosecond
	h := svc.Handler()

	expired, err := svc.Prepare(paramQuery)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)

	valid := New(newTestDB(t, 5), Config{})
	prepped, err := valid.Prepare(paramQuery)
	if err != nil {
		t.Fatal(err)
	}
	vh := valid.Handler()

	cases := []struct {
		name       string
		handler    http.Handler
		path, body string
		status     int
		code       string
		line, col  int    // 0 = no position expected
		detail     string // substring; "" = don't care
	}{
		{
			name: "parse error with line and col", handler: vh, path: "/api/v1/query",
			body:   `{"query": "proc p write file f as evt\nreturn ??"}`,
			status: http.StatusBadRequest, code: CodeParseError, line: 2, col: 8,
		},
		{
			name: "lex error position", handler: vh, path: "/api/v1/query",
			body:   `{"query": "proc p[$] start proc q return p"}`,
			status: http.StatusBadRequest, code: CodeParseError, line: 1, col: 8,
		},
		{
			name: "semantic error", handler: vh, path: "/api/v1/query",
			body:   `{"query": "proc p write file f as evt return q"}`,
			status: http.StatusBadRequest, code: CodeSemanticError, line: 1, col: 35,
		},
		{
			name: "unknown param", handler: vh, path: "/api/v1/query",
			body:   `{"stmt_id": "` + prepped.StmtID + `", "params": {"exe": "%", "bogus": 1}}`,
			status: http.StatusBadRequest, code: CodeUnknownParam, detail: "$bogus",
		},
		{
			name: "missing param", handler: vh, path: "/api/v1/query",
			body:   `{"stmt_id": "` + prepped.StmtID + `"}`,
			status: http.StatusBadRequest, code: CodeMissingParam, detail: "$exe",
		},
		{
			name: "type mismatch inline", handler: vh, path: "/api/v1/query",
			body:   `{"query": "agentid = $a proc p write file f as evt return p", "params": {"a": "not-a-number"}}`,
			status: http.StatusBadRequest, code: CodeParamTypeMismatch, detail: "$a",
		},
		{
			name: "conflicting param positions", handler: vh, path: "/api/v1/prepare",
			body:   `{"query": "agentid = $x proc p[$x] write file f as evt return p"}`,
			status: http.StatusBadRequest, code: CodeParamTypeMismatch, detail: "$x",
		},
		{
			name: "expired stmt_id", handler: h, path: "/api/v1/query",
			body:   `{"stmt_id": "` + expired.StmtID + `", "params": {"exe": "%"}}`,
			status: http.StatusNotFound, code: CodeStmtNotFound,
		},
		{
			name: "unknown stmt_id", handler: vh, path: "/api/v1/query",
			body:   `{"stmt_id": "stmt_deadbeef", "params": {}}`,
			status: http.StatusNotFound, code: CodeStmtNotFound,
		},
		{
			name: "malformed JSON", handler: vh, path: "/api/v1/query",
			body:   `{"query": `,
			status: http.StatusBadRequest, code: CodeBadRequest,
		},
		{
			name: "explain on stream", handler: vh, path: "/api/v1/query/stream",
			body:   `{"query": "proc p write file f as evt return p", "explain": true}`,
			status: http.StatusBadRequest, code: CodeUnsupported,
		},
		{
			name: "unknown dataset", handler: vh, path: "/api/v1/query",
			body:   `{"query": "proc p write file f as evt return p", "dataset": "nope"}`,
			status: http.StatusNotFound, code: CodeUnknownDataset,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := doJSON(t, tc.handler, http.MethodPost, tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body.String())
			}
			e := decodeError(t, rec)
			if e.Code != tc.code {
				t.Errorf("code %q, want %q (%s)", e.Code, tc.code, rec.Body.String())
			}
			if e.Error == "" {
				t.Error("empty error message")
			}
			if tc.line != 0 {
				if e.Position == nil {
					t.Fatalf("no position: %s", rec.Body.String())
				}
				if e.Position.Line != tc.line || e.Position.Col != tc.col {
					t.Errorf("position %d:%d, want %d:%d", e.Position.Line, e.Position.Col, tc.line, tc.col)
				}
			}
			if tc.detail != "" && !strings.Contains(e.Detail, tc.detail) {
				t.Errorf("detail %q does not mention %q", e.Detail, tc.detail)
			}
		})
	}
}

func TestHTTPMethodNotAllowedCode(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	rec := doJSON(t, svc.Handler(), http.MethodGet, "/api/v1/prepare", "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d", rec.Code)
	}
	if e := decodeError(t, rec); e.Code != CodeMethodNotAllowed {
		t.Errorf("code = %q", e.Code)
	}
}

// TestHTTPStreamByStmtID: the NDJSON stream endpoint executes
// registered statements with bindings.
func TestHTTPStreamByStmtID(t *testing.T) {
	svc := New(newTestDB(t, 25), Config{})
	h := svc.Handler()

	rec := doJSON(t, h, http.MethodPost, "/api/v1/prepare",
		`{"query": "proc p[$exe] write file f as evt return p, f"}`)
	var prep PrepareResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &prep); err != nil {
		t.Fatal(err)
	}

	rec = doJSON(t, h, http.MethodPost, "/api/v1/query/stream",
		`{"stmt_id": "`+prep.StmtID+`", "params": {"exe": "%worker.exe"}}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", rec.Code, rec.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 25+2 { // header + rows + trailer
		t.Fatalf("stream has %d lines, want 27:\n%s", len(lines), rec.Body.String())
	}
	var header StreamHeader
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil || len(header.Columns) != 2 {
		t.Fatalf("header %q (%v)", lines[0], err)
	}
	var trailer StreamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil || !trailer.Done || trailer.Rows != 25 {
		t.Fatalf("trailer %q (%v)", lines[len(lines)-1], err)
	}

	// a bad binding fails before the stream starts, with the structured model
	rec = doJSON(t, h, http.MethodPost, "/api/v1/query/stream",
		`{"stmt_id": "`+prep.StmtID+`", "params": {"wrong": 1}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if e := decodeError(t, rec); e.Code != CodeUnknownParam {
		t.Errorf("code = %q", e.Code)
	}
}

// TestHTTPStatsReportPrepared: GET /api/v1/stats carries the
// prepared-registry figures.
func TestHTTPStatsReportPrepared(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	h := svc.Handler()
	rec := doJSON(t, h, http.MethodPost, "/api/v1/prepare",
		`{"query": "proc p[$exe] write file f as evt return p"}`)
	var prep PrepareResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &prep); err != nil {
		t.Fatal(err)
	}
	doJSON(t, h, http.MethodPost, "/api/v1/query",
		`{"stmt_id": "`+prep.StmtID+`", "params": {"exe": "%"}}`)

	rec = doJSON(t, h, http.MethodGet, "/api/v1/stats", "")
	var st DatasetStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Prepared.Statements != 1 || st.Prepared.Hits == 0 {
		t.Errorf("prepared stats = %+v", st.Prepared)
	}
}
