package service

import (
	"context"
	"errors"
	"net/http"
	"strconv"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/aiql/lexer"
	"github.com/aiql/aiql/internal/aiql/parser"
	"github.com/aiql/aiql/internal/aiql/semantic"
	"github.com/aiql/aiql/internal/aiql/token"
	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/engine"
)

// Stable machine-readable error codes carried by every API failure.
// Clients dispatch on the code; the message is for humans and may
// change between releases.
const (
	// CodeParseError: the query text does not lex or parse; position
	// points at the offending token.
	CodeParseError = "parse_error"
	// CodeSemanticError: the query parses but fails validation
	// (unknown attribute, type conflict, bad alias); position points at
	// the offending clause.
	CodeSemanticError = "semantic_error"
	// CodeUnknownParam: a binding names a parameter the statement does
	// not declare.
	CodeUnknownParam = "unknown_param"
	// CodeMissingParam: a declared parameter has no binding.
	CodeMissingParam = "missing_param"
	// CodeParamTypeMismatch: a binding's value (or two conflicting
	// placeholder positions) does not fit the parameter's inferred type.
	CodeParamTypeMismatch = "param_type_mismatch"
	// CodeStmtNotFound: the stmt_id is unknown, expired, or evicted;
	// re-prepare and retry.
	CodeStmtNotFound = "stmt_not_found"
	// CodeBadCursor: the pagination cursor is malformed or belongs to a
	// different query.
	CodeBadCursor = "bad_cursor"
	// CodeCursorExpired: the cursor's snapshot is gone; re-issue the
	// query.
	CodeCursorExpired = "cursor_expired"
	// CodeOverloaded: the service shed the query; back off and retry.
	CodeOverloaded = "overloaded"
	// CodeThrottled: the client exceeded its concurrent-execution
	// share; back off and retry.
	CodeThrottled = "throttled"
	// CodeTimeout: the per-query deadline expired mid-execution.
	CodeTimeout = "timeout"
	// CodeCanceled: the client went away before the query finished.
	CodeCanceled = "canceled"
	// CodeUnknownDataset: the named dataset is not registered.
	CodeUnknownDataset = "unknown_dataset"
	// CodeBadRequest: the request itself is malformed (bad JSON,
	// oversized body).
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed: wrong HTTP method for the endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeUnsupported: the endpoint cannot serve this request shape
	// (e.g. explain on the stream endpoint).
	CodeUnsupported = "unsupported"
	// CodeExecError: the query failed during execution (resource
	// limits, internal errors) — the fallback code.
	CodeExecError = "exec_error"
	// CodeDatasetReloading: a write raced a catalog hot-swap and hit
	// the closed store; retry after the reload completes.
	CodeDatasetReloading = "dataset_reloading"
	// CodeTooLarge: the ingest request exceeds the record or byte cap;
	// split the batch.
	CodeTooLarge = "too_large"
	// CodeWatchNotFound: the watch id is unknown or already deleted.
	CodeWatchNotFound = "watch_not_found"
	// CodeWatchLimit: the dataset's standing-query capacity is reached;
	// delete a watch or retry later.
	CodeWatchLimit = "watch_limit"
	// CodeStorageError: the server's storage failed under the request
	// (a failed write or fsync, an unreadable or corrupt segment file).
	// The request itself may be fine: an ingest batch should be kept
	// and resent once the operator has repaired the store.
	CodeStorageError = "storage_error"
	// CodeShardUnavailable: a shard member was unreachable. As an error
	// code the whole query failed (require_all, or every member down);
	// as a warning code inside a 200 response it marks the result
	// partial — complete for every healthy member, missing the rest.
	CodeShardUnavailable = "shard_unavailable"
)

// ErrShardUnavailable reports that a required shard member could not be
// reached: the caller set require_all, or no member at all was
// reachable. Queries that can tolerate gaps should clear require_all
// and read the warnings instead.
var ErrShardUnavailable = errors.New("service: shard unavailable")

// ErrorPosition is a 1-based source position in the submitted query.
type ErrorPosition struct {
	Line int `json:"line"`
	Col  int `json:"col"`
}

// ErrorResponse is the wire form of any API failure: a stable
// machine-readable code, a human-readable message, the source position
// for query-text errors, and optional detail (the offending parameter
// name, a hint).
type ErrorResponse struct {
	Code     string         `json:"code"`
	Error    string         `json:"error"`
	Position *ErrorPosition `json:"position,omitempty"`
	Detail   string         `json:"detail,omitempty"`
}

// apiError lets handlers raise a failure with an explicit code and
// status (method checks, body decoding) through the same writer as
// service errors.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// APIError builds an error carrying an explicit HTTP status and wire
// code through WriteError/ErrorBody unchanged. The shard coordinator
// uses it to relay a member's own structured failure (a binding
// rejected by the member's store, say) without re-classifying it.
func APIError(status int, code, msg string) error {
	return &apiError{status: status, code: code, msg: msg}
}

// ErrorBody classifies err into the structured wire form.
func ErrorBody(err error) ErrorResponse {
	out := ErrorResponse{Code: CodeExecError, Error: err.Error()}
	pos := func(p token.Pos) *ErrorPosition { return &ErrorPosition{Line: p.Line, Col: p.Col} }
	var (
		lexErr   *lexer.Error
		parseErr *parser.Error
		semErr   *semantic.Error
		confErr  *semantic.ParamError
		bindErr  *engine.ParamError
		httpErr  *apiError
	)
	switch {
	case errors.As(err, &httpErr):
		out.Code = httpErr.code
	case errors.As(err, &lexErr):
		out.Code = CodeParseError
		out.Position = pos(lexErr.Pos)
		out.Detail = lexErr.Msg
	case errors.As(err, &parseErr):
		out.Code = CodeParseError
		out.Position = pos(parseErr.Pos)
		out.Detail = parseErr.Msg
	case errors.As(err, &confErr):
		out.Code = CodeParamTypeMismatch
		out.Position = pos(confErr.Pos)
		out.Detail = "parameter $" + confErr.Name
	case errors.As(err, &semErr):
		out.Code = CodeSemanticError
		out.Position = pos(semErr.Pos)
		out.Detail = semErr.Msg
	case errors.As(err, &bindErr):
		out.Code = string(bindErr.Code)
		out.Detail = "parameter $" + bindErr.Name
	case errors.Is(err, ErrStmtNotFound):
		out.Code = CodeStmtNotFound
	case errors.Is(err, ErrBadCursor):
		out.Code = CodeBadCursor
	case errors.Is(err, ErrCursorExpired):
		out.Code = CodeCursorExpired
	case errors.Is(err, ErrOverloaded):
		out.Code = CodeOverloaded
	case errors.Is(err, ErrClientThrottled):
		out.Code = CodeThrottled
	case errors.Is(err, ErrUnknownDataset):
		out.Code = CodeUnknownDataset
	case errors.Is(err, aiql.ErrClosed):
		out.Code = CodeDatasetReloading
	case errors.Is(err, ErrWatchNotFound):
		out.Code = CodeWatchNotFound
	case errors.Is(err, ErrWatchLimit):
		out.Code = CodeWatchLimit
	case errors.Is(err, ErrShardUnavailable):
		out.Code = CodeShardUnavailable
	case isStorageFault(err):
		out.Code = CodeStorageError
	case errors.Is(err, context.DeadlineExceeded):
		out.Code = CodeTimeout
	case errors.Is(err, context.Canceled):
		out.Code = CodeCanceled
	}
	return out
}

// statusFor maps service errors to HTTP status codes.
func statusFor(err error) int {
	var httpErr *apiError
	if errors.As(err, &httpErr) {
		return httpErr.status
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrClientThrottled):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrCursorExpired):
		return http.StatusGone
	case errors.Is(err, ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, ErrStmtNotFound):
		return http.StatusNotFound
	case errors.Is(err, aiql.ErrClosed):
		// the hot-swap completes momentarily; 503 + Retry-After tells
		// the writer to resend the batch rather than drop it
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrWatchNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrWatchLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShardUnavailable):
		// the member may come back momentarily; 503 + Retry-After tells
		// the client to re-issue rather than treat the data as gone
		return http.StatusServiceUnavailable
	case isStorageFault(err):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// isStorageFault reports whether err is the server's storage failing
// (a write, an fsync, an unreadable or corrupt file) rather than
// anything about the request.
func isStorageFault(err error) bool {
	return errors.Is(err, durable.ErrStorage) || errors.Is(err, durable.ErrCorrupt)
}

// retryHintError decorates a shed request with the backoff the client
// should observe, derived from live queue pressure at rejection time.
// The HTTP layer surfaces it as the Retry-After header; the wrapped
// error keeps its identity for errors.Is dispatch.
type retryHintError struct {
	err   error
	after int // whole seconds
}

func (e *retryHintError) Error() string { return e.err.Error() }
func (e *retryHintError) Unwrap() error { return e.err }

// WriteError writes err as a structured JSON error response with the
// appropriate status code. It is shared by every API endpoint
// (including the catalog's management handlers) so all failures carry
// the same machine-readable model. Rejections carrying a load-derived
// backoff hint set Retry-After from it; writeJSON fills the 1s floor
// for 429/503 failures raised without one.
func WriteError(w http.ResponseWriter, err error) {
	var hint *retryHintError
	if errors.As(err, &hint) {
		w.Header().Set("Retry-After", strconv.Itoa(hint.after))
	}
	writeJSON(w, statusFor(err), ErrorBody(err))
}
