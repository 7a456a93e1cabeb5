package service

import (
	"context"
	"errors"

	"github.com/aiql/aiql/internal/engine"
)

// ShardQuery is one query the service hands to its shard backend for
// scatter-gather execution. The query travels as template text plus raw
// bindings — prepared statements fan out by fingerprint, each member
// compiling (or reusing) the template against its own store.
type ShardQuery struct {
	// Query is the AIQL text: a template when Params is non-empty,
	// plain text otherwise.
	Query string
	// Params are the raw `$name` bindings, forwarded verbatim.
	Params map[string]any
	// Columns is the result header, known from planning before any
	// member responds; streams emit it immediately.
	Columns []string
	// Kind is the query family (multievent, dependency, anomaly).
	Kind string
	// Distinct marks a `return distinct` statement: each member
	// deduplicates only its own rows, so the merge must drop rows equal
	// to the one before them.
	Distinct bool
	// Client is the caller's fairness key, forwarded so member-side
	// admission attributes fan-out load to the real client.
	Client string
	// Limit, when positive, is pushed down to every member: each
	// member's sorted stream stops after Limit rows, and the merged
	// stream stops after Limit rows overall — member streams are
	// sorted, so the first Limit rows of each member are a superset of
	// the global first Limit.
	Limit int
	// RequireAll fails the query on any unreachable member instead of
	// degrading to partial results with warnings.
	RequireAll bool
}

// ShardWarning reports one member that could not contribute to a
// scatter-gathered result. A response carrying warnings is partial: the
// rows are complete for every healthy member and missing the rest.
type ShardWarning struct {
	Code  string `json:"code"`  // CodeShardUnavailable
	Shard string `json:"shard"` // member name from the partition map
	Error string `json:"error"`
}

// ShardMemberStats are one member's monotonic fan-out counters plus its
// probed health.
type ShardMemberStats struct {
	Shard   string `json:"shard"`
	Remote  bool   `json:"remote"`
	Healthy bool   `json:"healthy"`
	// Fanouts counts queries dispatched to the member; Pruned counts
	// queries whose time window or agent filter proved the member could
	// hold no matches, skipped without contact.
	Fanouts uint64 `json:"fanouts"`
	Pruned  uint64 `json:"pruned"`
	Retries uint64 `json:"retries"`
	Errors  uint64 `json:"errors"`
	Rows    uint64 `json:"rows"`
}

// ShardStats snapshots a shard coordinator for /api/v1/stats and the
// metrics collector.
type ShardStats struct {
	Queries    uint64             `json:"queries"`
	Partial    uint64             `json:"partial"` // queries degraded to partial results
	Generation uint64             `json:"generation"`
	Members    []ShardMemberStats `json:"members"`
}

// ShardBackend is the service's second executor: where a local service
// opens an engine cursor, a coordinator service hands the query to its
// backend, which owns fan-out, per-member transport, pruning, and the
// deterministic merge. The service stays the single admission, caching
// and pagination layer over both — a buffered query drains the merged
// stream, a stream pipes it to the client. Implementations must be safe
// for concurrent use.
type ShardBackend interface {
	// RunStream merge-streams rows in canonical order (engine.RowLess) as
	// members produce them — the drained stream is byte-identical to the
	// same query executed in one store. header is called once before any
	// row; rows receives them in chunks, the first row alone and a partly
	// filled chunk before the merge waits on a member. The rows are the
	// callee's to keep; the chunk slice is valid only during the call. A
	// positive q.Limit cancels member streams after the merged limit is
	// reached. Warnings name members that could not contribute (nil
	// error: partial result).
	RunStream(ctx context.Context, q ShardQuery, header func(cols []string) error, rows func(chunk [][]string) error) (engine.ExecStats, []ShardWarning, error)
	// Generation identifies the members' combined store version for
	// result-cache keying: it changes whenever any local member
	// commits or a remote member's probed epoch moves.
	Generation() uint64
	// Stats snapshots the coordinator's counters.
	Stats() *ShardStats
	// Close stops probes and releases member transports.
	Close() error
}

// WithRetryHint decorates err with the backoff (whole seconds) the
// client should observe before retrying; the HTTP layer surfaces it as
// the Retry-After header. The shard coordinator uses it to propagate a
// throttled member's own hint — the largest across members — instead of
// synthesizing a new one from coordinator-local queue pressure.
func WithRetryHint(err error, seconds int) error {
	if seconds < 1 {
		seconds = 1
	}
	return &retryHintError{err: err, after: seconds}
}

// RetryHintSeconds extracts a Retry-After hint attached by
// WithRetryHint or the admission layer (0, false when none is set).
func RetryHintSeconds(err error) (int, bool) {
	var hint *retryHintError
	if errors.As(err, &hint) {
		return hint.after, true
	}
	return 0, false
}
