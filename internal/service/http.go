package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"
	"unicode/utf8"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/obs"
)

// QueryRequest is the wire form of one query submission: inline query
// text (optionally with params), or a prepared stmt_id with params.
type QueryRequest struct {
	// Query is the AIQL query text; it may contain `$name` parameters
	// bound by Params. Ignored when StmtID is set.
	Query string `json:"query,omitempty"`
	// StmtID executes a statement registered via POST /api/v1/prepare.
	StmtID string `json:"stmt_id,omitempty"`
	// Params binds the statement's `$name` parameters: name → value
	// (JSON strings for string/time parameters, numbers for number
	// parameters).
	Params map[string]any `json:"params,omitempty"`
	// Dataset names the catalog dataset to query; empty selects the
	// default dataset.
	Dataset string `json:"dataset,omitempty"`
	// Limit caps returned rows per page; 0 means the service maximum.
	Limit int `json:"limit,omitempty"`
	// Cursor resumes pagination with a token from a previous response's
	// next_cursor.
	Cursor string `json:"cursor,omitempty"`
	// TimeoutMS bounds execution in milliseconds; 0 means the service
	// default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Explain returns the scheduled pattern order and per-pattern
	// estimates instead of executing the query.
	Explain bool `json:"explain,omitempty"`
	// Trace returns the execution's span tree alongside the rows
	// (EXPLAIN ANALYZE style); the request bypasses the result-cache
	// lookup so the spans describe a real execution.
	Trace bool `json:"trace,omitempty"`
	// Sorted asks the stream endpoint for rows in the canonical result
	// order (full materialization first) instead of production order.
	// Shard coordinators set it when fanning out to members so the
	// merged stream is deterministic.
	Sorted bool `json:"sorted,omitempty"`
	// RequireAll fails a sharded query when any member is unreachable
	// instead of returning partial results with warnings.
	RequireAll bool `json:"require_all,omitempty"`
}

// PrepareRequest is the wire form of a statement registration.
type PrepareRequest struct {
	// Query is the AIQL template, `$name` parameters in value
	// positions.
	Query string `json:"query"`
	// Dataset names the catalog dataset the statement binds to.
	Dataset string `json:"dataset,omitempty"`
}

// PrepareResponse describes the registered statement: the handle to
// execute by, the query family, and the inferred typed parameter
// signature.
type PrepareResponse struct {
	StmtID  string      `json:"stmt_id"`
	Kind    string      `json:"kind"`
	Params  []ParamInfo `json:"params"`
	Columns []string    `json:"columns,omitempty"`
}

// PlanEntry is the wire form of one scheduled pattern in an explain
// response.
type PlanEntry struct {
	Alias    string `json:"alias"`
	Estimate int    `json:"estimate"`
}

// QueryResult is the wire form of one query outcome. Columns and Rows
// stay unconditionally present (clients index them without guards);
// only the explain/reuse extras are omitted when empty.
type QueryResult struct {
	Columns       []string    `json:"columns"`
	Rows          [][]string  `json:"rows"`
	TotalRows     int         `json:"total_rows"`
	Offset        int         `json:"offset"`
	NextCursor    string      `json:"next_cursor,omitempty"`
	DurationMS    float64     `json:"duration_ms"`
	Cached        bool        `json:"cached"`
	Kind          string      `json:"kind,omitempty"`
	ScannedEvents int64       `json:"scanned_events"`
	SegmentHits   int         `json:"segment_hits,omitempty"`
	SegmentMisses int         `json:"segment_misses,omitempty"`
	PatternOrder  []string    `json:"pattern_order,omitempty"`
	Plan          []PlanEntry `json:"plan,omitempty"`
	// Trace is the execution's span tree, present only when the request
	// set "trace": true.
	Trace *obs.SpanNode `json:"trace,omitempty"`
	// Partial marks a scatter-gathered result some shard members could
	// not contribute to; Warnings names them. Partial results do not
	// paginate (next_cursor stays empty).
	Partial  bool           `json:"partial,omitempty"`
	Warnings []ShardWarning `json:"warnings,omitempty"`
}

// StreamHeader is the first NDJSON line of a streaming response.
type StreamHeader struct {
	Columns []string `json:"columns"`
	Cached  bool     `json:"cached,omitempty"`
}

// StreamTrailer is the last NDJSON line of a streaming response. A
// mid-stream failure surfaces here (the status is already 200), with
// the same machine-readable code the buffered endpoint would return.
type StreamTrailer struct {
	Done          bool    `json:"done"`
	Rows          int     `json:"rows"`
	DurationMS    float64 `json:"duration_ms"`
	ScannedEvents int64   `json:"scanned_events"`
	Error         string  `json:"error,omitempty"`
	Code          string  `json:"code,omitempty"`
	// Partial marks a stream some shard members could not contribute
	// to; Warnings names them with the typed shard_unavailable code.
	// The rows already streamed are complete for every healthy member.
	Partial  bool           `json:"partial,omitempty"`
	Warnings []ShardWarning `json:"warnings,omitempty"`
	// Trace is the execution's span tree, present only when the request
	// set "trace": true.
	Trace *obs.SpanNode `json:"trace,omitempty"`
}

// maxRequestBody caps request bodies: queries are human-written text, so
// anything beyond this is abuse, and the cap keeps oversized bodies from
// buffering into memory before admission control can reject the query.
const maxRequestBody = 1 << 20

// CheckRequest and CheckResponse are the wire forms of syntax checking.
type CheckRequest struct {
	Query string `json:"query"`
}

// CheckResponse reports validation outcome without executing. Failures
// carry the same machine-readable code and position as query errors.
type CheckResponse struct {
	OK       bool           `json:"ok"`
	Kind     string         `json:"kind,omitempty"`
	Error    string         `json:"error,omitempty"`
	Code     string         `json:"code,omitempty"`
	Position *ErrorPosition `json:"position,omitempty"`
}

// clientKeyHeader lets API clients identify themselves for fairness
// accounting; without it the remote address is the client key.
const clientKeyHeader = "X-Client-Id"

// clientKey derives the per-client fairness key for a request.
func clientKey(r *http.Request) string {
	if k := r.Header.Get(clientKeyHeader); k != "" {
		return k
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// Resolver maps a request's dataset name to the service owning it; the
// empty name selects the default dataset. Implementations must be safe
// for concurrent use — the catalog's resolver returns the service bound
// to the dataset's current store, so a hot-swap redirects new requests
// while in-flight queries finish on the service they started with.
type Resolver interface {
	Resolve(dataset string) (*Service, error)
}

// ErrUnknownDataset reports a dataset name the resolver does not serve.
var ErrUnknownDataset = errors.New("service: unknown dataset")

// selfResolver serves every dataset name's empty value from one fixed
// service (single-dataset deployments and tests).
type selfResolver struct{ s *Service }

func (r selfResolver) Resolve(dataset string) (*Service, error) {
	if dataset != "" {
		return nil, fmt.Errorf("%w: %q (single-dataset server)", ErrUnknownDataset, dataset)
	}
	return r.s, nil
}

// Handler returns the versioned JSON API over this single service; see
// NewHandler.
func (s *Service) Handler() http.Handler {
	return NewHandler(selfResolver{s})
}

// NewHandler returns the versioned JSON API, routing each request to
// the service its `dataset` field names:
//
//	POST /api/v1/prepare       PrepareRequest → PrepareResponse
//	POST /api/v1/query         QueryRequest → QueryResult | ErrorResponse
//	POST /api/v1/query/stream  QueryRequest → NDJSON stream
//	POST /api/v1/check         CheckRequest → CheckResponse
//	GET  /api/v1/stats[?dataset=name]       → DatasetStats
//	GET  /api/v1/queries/slow               → SlowQueriesResponse
//	POST /api/v1/ingest[?dataset=name]      NDJSON IngestRecord lines → IngestResult
//	POST /api/v1/watch         WatchRequest → WatchInfo
//	GET  /api/v1/watch[?dataset=name]       → []WatchInfo
//	DELETE /api/v1/watch/{id}[?dataset=name]
//	GET  /api/v1/watch/{id}/events[?dataset=name]  → SSE match stream
//
// Prepare registers a query template (with `$name` parameters) once;
// both query endpoints then execute it by `stmt_id` + `params`, or
// accept inline `query` + `params` for one-shot parameterized runs.
// The buffered endpoint pages large results: pass `limit` as the page
// size and follow `next_cursor` until it is empty; every page of one
// cursor chain is served from the same store snapshot. Passing
// `"explain": true` returns the scheduled pattern order and estimates
// (`plan`) without executing. The stream endpoint emits NDJSON — a
// StreamHeader line, one JSON array per row as the engine produces it,
// and a StreamTrailer line — flushing as rows arrive, and aborts the
// scan when the client disconnects.
//
// Every failure is an ErrorResponse carrying a stable machine-readable
// code (parse_error, unknown_param, stmt_not_found, overloaded, …),
// the source position for query-text errors, and a status code: 400
// for malformed requests, bindings, and query errors, 404 for unknown
// datasets and unknown/expired statements, 410 for expired cursors,
// 429 for per-client throttling (with Retry-After), 504 for
// deadline-exceeded, 503 for admission rejections (with Retry-After),
// 405 for wrong methods, 500 for storage faults (storage_error).
func NewHandler(r Resolver) http.Handler {
	h := &apiHandler{resolve: r}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/prepare", h.handlePrepare)
	mux.HandleFunc("/api/v1/query", h.handleQuery)
	mux.HandleFunc("/api/v1/query/stream", h.handleQueryStream)
	mux.HandleFunc("/api/v1/check", h.handleCheck)
	mux.HandleFunc("/api/v1/healthz", h.handleHealthz)
	mux.HandleFunc("/api/v1/stats", h.handleStats)
	mux.HandleFunc("/api/v1/queries/slow", h.handleSlowQueries)
	mux.HandleFunc("/api/v1/ingest", h.handleIngest)
	mux.HandleFunc("/api/v1/watch", h.handleWatch)
	mux.HandleFunc("/api/v1/watch/", h.handleWatchSub)
	return mux
}

// apiHandler binds the wire handlers to a dataset resolver.
type apiHandler struct {
	resolve Resolver
}

// resolveService maps the request's dataset to its service, writing the
// error response on failure.
func (h *apiHandler) resolveService(w http.ResponseWriter, dataset string) (*Service, bool) {
	svc, err := h.resolve.Resolve(dataset)
	if err != nil {
		WriteError(w, err)
		return nil, false
	}
	return svc, true
}

// decodeBody parses a POST JSON body into dst, writing the structured
// error response (method_not_allowed, bad_request) on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		WriteError(w, &apiError{status: http.StatusMethodNotAllowed, code: CodeMethodNotAllowed, msg: "POST only"})
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(dst); err != nil {
		WriteError(w, &apiError{status: http.StatusBadRequest, code: CodeBadRequest, msg: "bad request: " + err.Error()})
		return false
	}
	return true
}

// decodeQuery parses the request body shared by the buffered and
// streaming endpoints, reporting (ok=false) after writing the error.
func decodeQuery(w http.ResponseWriter, r *http.Request) (QueryRequest, bool) {
	var req QueryRequest
	ok := decodeBody(w, r, &req)
	return req, ok
}

// handlePrepare registers a query template and returns its handle and
// inferred parameter signature.
func (h *apiHandler) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req PrepareRequest
	if !decodeBody(w, r, &req) {
		return
	}
	svc, ok := h.resolveService(w, req.Dataset)
	if !ok {
		return
	}
	info, err := svc.Prepare(req.Query)
	if err != nil {
		WriteError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, PrepareResponse{
		StmtID:  info.StmtID,
		Kind:    info.Kind,
		Params:  info.Params,
		Columns: info.Columns,
	})
}

func (h *apiHandler) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeQuery(w, r)
	if !ok {
		return
	}
	svc, ok := h.resolveService(w, req.Dataset)
	if !ok {
		return
	}
	resp, err := svc.Do(r.Context(), Request{
		Query:      req.Query,
		StmtID:     req.StmtID,
		Params:     req.Params,
		Limit:      req.Limit,
		Cursor:     req.Cursor,
		Client:     clientKey(r),
		Timeout:    time.Duration(req.TimeoutMS) * time.Millisecond,
		Explain:    req.Explain,
		Trace:      req.Trace,
		RequireAll: req.RequireAll,
	})
	if err != nil {
		WriteError(w, err)
		return
	}
	out := QueryResult{
		Columns:       resp.Columns,
		Rows:          resp.Rows,
		TotalRows:     resp.TotalRows,
		Offset:        resp.Offset,
		NextCursor:    resp.NextCursor,
		DurationMS:    float64(resp.Duration) / float64(time.Millisecond),
		Cached:        resp.Cached,
		Kind:          resp.Kind,
		ScannedEvents: resp.Stats.ScannedEvents,
		SegmentHits:   resp.Stats.SegmentHits,
		SegmentMisses: resp.Stats.SegmentMisses,
		PatternOrder:  resp.Stats.PatternOrder,
		Trace:         resp.Trace,
		Partial:       resp.Partial,
		Warnings:      resp.Warnings,
	}
	for _, e := range resp.Plan {
		out.Plan = append(out.Plan, PlanEntry{Alias: e.Alias, Estimate: e.Estimate})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleQueryStream serves one query as NDJSON. Rows are written and
// flushed a chunk at a time as the engine hands them over — the first
// row is a chunk of its own, so it reaches the client at once, and no
// later row waits much more than a couple of milliseconds past the end
// of its scan unit — which makes a stream cost one write per chunk of up
// to 256 rows, not one per row. The response
// is 200 once streaming starts; failures before the first byte use
// normal error statuses, failures mid-stream surface in the trailer.
func (h *apiHandler) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeQuery(w, r)
	if !ok {
		return
	}
	if req.Explain {
		// a plan has no row stream; the buffered endpoint serves explain
		WriteError(w, &apiError{status: http.StatusBadRequest, code: CodeUnsupported,
			msg: "explain is not supported on the stream endpoint; use POST /api/v1/query"})
		return
	}
	svc, ok := h.resolveService(w, req.Dataset)
	if !ok {
		return
	}
	var (
		enc     = json.NewEncoder(w)
		flush   func()
		started bool
		buf     []byte // the rows of one chunk, encoded
	)
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	} else {
		flush = func() {}
	}
	resp, err := svc.DoStreamChunks(r.Context(), Request{
		Query:      req.Query,
		StmtID:     req.StmtID,
		Params:     req.Params,
		Limit:      req.Limit,
		Client:     clientKey(r),
		Timeout:    time.Duration(req.TimeoutMS) * time.Millisecond,
		Trace:      req.Trace,
		Sorted:     req.Sorted,
		RequireAll: req.RequireAll,
	},
		func(cols []string, cached bool) error {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			started = true
			if err := enc.Encode(StreamHeader{Columns: cols, Cached: cached}); err != nil {
				return err
			}
			flush()
			return nil
		},
		func(chunk [][]string) error {
			buf = buf[:0]
			for _, row := range chunk {
				buf = append(appendJSONRow(buf, row), '\n')
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
			flush()
			return nil
		})
	if err != nil {
		if !started {
			WriteError(w, err)
			return
		}
		// the stream is already 200 + partial rows: the trailer is the
		// only place left to report the failure
		if encErr := enc.Encode(StreamTrailer{Error: err.Error(), Code: ErrorBody(err).Code}); encErr == nil {
			flush()
		}
		return
	}
	if encErr := enc.Encode(StreamTrailer{
		Done:          true,
		Rows:          resp.TotalRows,
		DurationMS:    float64(resp.Duration) / float64(time.Millisecond),
		ScannedEvents: resp.Stats.ScannedEvents,
		Partial:       resp.Partial,
		Warnings:      resp.Warnings,
		Trace:         resp.Trace,
	}); encErr == nil {
		flush()
	}
}

// jsonEscapes holds, for every ASCII byte encoding/json does not copy
// through verbatim inside a string, the escape it writes instead. It is
// filled from encoding/json itself, so appendJSONString agrees with the
// encoder of whatever toolchain built the program.
var jsonEscapes = func() (t [utf8.RuneSelf]string) {
	for b := 0; b < utf8.RuneSelf; b++ {
		enc, _ := json.Marshal(string(rune(b))) // a one-byte string cannot fail to marshal
		if esc := string(enc[1 : len(enc)-1]); esc != string(rune(b)) {
			t[b] = esc
		}
	}
	return t
}()

// appendJSONString appends s as a JSON string exactly as encoding/json
// renders it (HTML-safe escaping on, invalid UTF-8 replaced, U+2028 and
// U+2029 escaped) without the reflection and the intermediate buffer of
// an Encoder.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if esc := jsonEscapes[b]; esc != "" {
				dst = append(append(dst, s[start:i]...), esc...)
				start = i + 1
			}
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
			start = i + size
		case c == '\u2028':
			dst = append(append(dst, s[start:i]...), `\u2028`...)
			start = i + size
		case c == '\u2029':
			dst = append(append(dst, s[start:i]...), `\u2029`...)
			start = i + size
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}

// appendJSONRow appends one result row as the JSON array of strings
// encoding/json renders a []string as.
func appendJSONRow(dst []byte, row []string) []byte {
	if row == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, cell := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, cell)
	}
	return append(dst, ']')
}

func (h *apiHandler) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req CheckRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := aiql.Check(req.Query); err != nil {
		body := ErrorBody(err)
		writeJSON(w, http.StatusOK, CheckResponse{Error: err.Error(), Code: body.Code, Position: body.Position})
		return
	}
	kind, _ := aiql.QueryKind(req.Query)
	writeJSON(w, http.StatusOK, CheckResponse{OK: true, Kind: kind})
}

// handleHealthz reports readiness/liveness for load balancers, shard
// coordinators, and process supervisors: 200 with the Health body when
// the dataset (selected by the `dataset` query parameter, default
// otherwise) can serve queries, 503 when the catalog has not loaded it
// or its store is closed. The body's generation is the store epoch
// shard probes watch for remote cache invalidation.
func (h *apiHandler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, &apiError{status: http.StatusMethodNotAllowed, code: CodeMethodNotAllowed, msg: "GET only"})
		return
	}
	name := r.URL.Query().Get("dataset")
	svc, err := h.resolve.Resolve(name)
	if err != nil {
		// the catalog is up but the dataset isn't loaded (or never will
		// be): unavailable, with the structured reason inline
		writeJSON(w, http.StatusServiceUnavailable, Health{Status: "unavailable", Dataset: name})
		return
	}
	health := svc.Health()
	health.Dataset = name
	status := http.StatusOK
	if health.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, health)
}

// handleStats reports one dataset's full statistics: service counters,
// store segment layout, and segment scan-cache figures. The dataset is
// selected with the `dataset` query parameter; empty means the default.
func (h *apiHandler) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("dataset")
	svc, ok := h.resolveService(w, name)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, svc.DatasetStats(name))
}

// SlowQueriesResponse is the wire form of the slow-query log: the
// active threshold, the count of entries ever recorded (the ring keeps
// only the most recent), and the retained entries newest-first.
type SlowQueriesResponse struct {
	ThresholdMS int64           `json:"threshold_ms"`
	Total       uint64          `json:"total"`
	Entries     []obs.SlowEntry `json:"entries"`
}

// handleSlowQueries reports the slow-query log. The log is shared
// across datasets (each entry names its dataset), so the endpoint takes
// no dataset parameter; a server configured without one reports a
// negative threshold and no entries.
func (h *apiHandler) handleSlowQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, &apiError{status: http.StatusMethodNotAllowed, code: CodeMethodNotAllowed, msg: "GET only"})
		return
	}
	svc, ok := h.resolveService(w, "")
	if !ok {
		return
	}
	sl := svc.SlowLog()
	entries, total := sl.Snapshot()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, http.StatusOK, SlowQueriesResponse{
		ThresholdMS: sl.ThresholdMS(),
		Total:       total,
		Entries:     entries,
	})
}

// WatchRequest is the wire form of a standing-query registration.
type WatchRequest struct {
	// Query is the AIQL template; `$name` parameters are bound once,
	// at registration, by Params.
	Query  string         `json:"query"`
	Params map[string]any `json:"params,omitempty"`
	// Dataset names the catalog dataset the watch observes.
	Dataset string `json:"dataset,omitempty"`
}

// handleIngest commits one NDJSON batch of monitoring events. The body
// is a stream of IngestRecord JSON values (one per line by convention);
// the whole batch commits atomically — any invalid record rejects the
// request before a single append. Decoding stops at the first record
// past the record cap, which answers 413 without reading the rest.
func (h *apiHandler) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, &apiError{status: http.StatusMethodNotAllowed, code: CodeMethodNotAllowed, msg: "POST only"})
		return
	}
	svc, ok := h.resolveService(w, r.URL.Query().Get("dataset"))
	if !ok {
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, svc.cfg.IngestMaxBytes))
	var recs []aiql.Record
	for line := 1; ; line++ {
		var ir IngestRecord
		if err := dec.Decode(&ir); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				svc.ingestRejected.Add(1)
				WriteError(w, &apiError{status: http.StatusRequestEntityTooLarge, code: CodeTooLarge,
					msg: fmt.Sprintf("ingest body exceeds %d bytes, split the batch", svc.cfg.IngestMaxBytes)})
				return
			}
			svc.ingestRejected.Add(1)
			WriteError(w, &apiError{status: http.StatusBadRequest, code: CodeBadRequest,
				msg: fmt.Sprintf("ingest record %d: bad JSON: %v", line, err)})
			return
		}
		if line > svc.maxRecords {
			// the rest of an oversized batch is not worth decoding
			WriteError(w, svc.rejectRecordCap())
			return
		}
		rec, err := ir.toRecord(line)
		if err != nil {
			svc.ingestRejected.Add(1)
			WriteError(w, err)
			return
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		svc.ingestRejected.Add(1)
		WriteError(w, &apiError{status: http.StatusBadRequest, code: CodeBadRequest,
			msg: "ingest body carries no records"})
		return
	}
	res, err := svc.Ingest(r.Context(), clientKey(r), recs)
	if err != nil {
		WriteError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleWatch registers a standing query (POST) or lists the registered
// ones (GET).
func (h *apiHandler) handleWatch(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		svc, ok := h.resolveService(w, r.URL.Query().Get("dataset"))
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, svc.Watches())
		return
	}
	var req WatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	svc, ok := h.resolveService(w, req.Dataset)
	if !ok {
		return
	}
	info, err := svc.Watch(r.Context(), req.Query, req.Params)
	if err != nil {
		WriteError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleWatchSub routes the /api/v1/watch/{id}[/events] subtree:
// DELETE {id} removes the watch, GET {id} describes it, GET
// {id}/events streams its matches over SSE.
func (h *apiHandler) handleWatchSub(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/watch/")
	id, sub, _ := strings.Cut(rest, "/")
	svc, ok := h.resolveService(w, r.URL.Query().Get("dataset"))
	if !ok {
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodDelete:
		if err := svc.Unwatch(id); err != nil {
			WriteError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
	case sub == "" && r.Method == http.MethodGet:
		info, err := svc.WatchInfo(id)
		if err != nil {
			WriteError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	case sub == "events" && r.Method == http.MethodGet:
		h.serveWatchEvents(w, r, svc, id)
	default:
		WriteError(w, &apiError{status: http.StatusMethodNotAllowed, code: CodeMethodNotAllowed,
			msg: "use DELETE /api/v1/watch/{id}, GET /api/v1/watch/{id} or GET /api/v1/watch/{id}/events"})
	}
}

// serveWatchEvents streams a watch's matches as Server-Sent Events:
// one `match` event per post-ingest evaluation that produced fresh
// rows (data: WatchMatch JSON), and a final `close` event if the watch
// is deleted. A client disconnect tears the subscription down — the
// bounded buffer stops accumulating the moment the consumer is gone.
func (h *apiHandler) serveWatchEvents(w http.ResponseWriter, r *http.Request, svc *Service, id string) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, &apiError{status: http.StatusBadRequest, code: CodeUnsupported,
			msg: "response writer does not support streaming"})
		return
	}
	sub, err := svc.Subscribe(id)
	if err != nil {
		WriteError(w, err)
		return
	}
	defer svc.Unsubscribe(id, sub)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": watching %s\n\n", id)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sub.Closed():
			fmt.Fprint(w, "event: close\ndata: {}\n\n")
			fl.Flush()
			return
		case m := <-sub.Matches():
			data, err := json.Marshal(m)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: match\ndata: %s\n\n", data)
			fl.Flush()
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if (status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests) &&
		w.Header().Get("Retry-After") == "" {
		// floor for rejections raised without a load-derived hint
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Warn("service: response encode failed", "error", err)
	}
}
