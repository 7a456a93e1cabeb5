// Package engine implements the AIQL optimized query execution engine.
//
// The engine leverages the domain-specific characteristics of system
// monitoring data and the semantics of the query to schedule execution
// (paper §2.3): for a multievent query it synthesizes a data query per
// event pattern, prioritizes patterns with higher pruning power, and
// partitions work along the temporal and spatial dimensions for parallel
// execution; a dependency query is compiled to an equivalent multievent
// query; an anomaly query partitions events into sliding windows,
// aggregates, and filters with access to historical windows.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/workpool"
)

// Config toggles the engine's optimizations, for the scheduling ablation
// experiment (E6 in DESIGN.md).
type Config struct {
	// DisableReordering executes event patterns in syntactic order
	// instead of pruning-power order.
	DisableReordering bool
	// ScanWorkers caps one query's scan parallelism: the merging
	// goroutine itself plus up to ScanWorkers-1 helpers from a
	// dedicated pool (so 1 means fully inline scanning). Zero — the
	// default — draws helpers from the process-wide shared pool sized
	// to GOMAXPROCS; SetScanPool overrides either with an explicitly
	// shared pool so several engines are governed together.
	ScanWorkers int
}

// Engine executes AIQL queries against an event store. Every execution
// pins one lock-free store snapshot and runs against it end to end, so
// concurrent appends and seals never move data under a running query.
type Engine struct {
	store  *eventstore.Store
	cfg    Config
	scache atomic.Pointer[scanCache]
	pool   atomic.Pointer[workpool.Pool]

	// resolveMu guards resolved, the entity-resolution memo keyed by
	// attribute filter + dictionary identity + entity count (see
	// cachedEntityMatch).
	resolveMu sync.Mutex
	resolved  map[entityMatchKey]entityMatchEntry
}

// New creates an engine over store with the fully optimized configuration.
func New(store *eventstore.Store) *Engine {
	return NewWithConfig(store, Config{})
}

// NewWithConfig creates an engine with explicit optimization toggles.
func NewWithConfig(store *eventstore.Store, cfg Config) *Engine {
	e := &Engine{store: store, cfg: cfg}
	if cfg.ScanWorkers > 0 {
		// Scan helpers are CPU-bound, so a pool wider than the machine
		// only adds scheduling overhead: clamp to the cores available.
		e.pool.Store(workpool.New(min(cfg.ScanWorkers, runtime.GOMAXPROCS(0)) - 1))
	} else {
		e.pool.Store(workpool.Default())
	}
	// Re-point the scan cache when compaction retires segments: their
	// cached batches can never be requested again (new snapshots carry
	// the merged segment, which is scanned and cached under its own id).
	store.OnSegmentRetire(func(segIDs []uint64) {
		e.scache.Load().retire(segIDs)
	})
	return e
}

// Store returns the engine's event store.
func (e *Engine) Store() *eventstore.Store { return e.store }

// SetScanCache installs (or, with a non-positive budget, removes) the
// segment scan cache: per-pattern filtered scan results over sealed
// segments are cached by (filter fingerprint, segment id) and reused
// across executions, so an append only re-scans the unsealed tail and
// fresh segments. A new engine has none, so ablation runs and tests
// measure raw scans unless they opt in. Safe for concurrent use;
// in-flight executions keep the cache instance they started with.
func (e *Engine) SetScanCache(maxBytes int64) {
	e.scache.Store(newScanCache(maxBytes))
}

// ScanCacheStats reports the segment scan cache's counters; zero values
// when the cache is disabled.
func (e *Engine) ScanCacheStats() ScanCacheStats {
	return e.scache.Load().stats()
}

// SetScanPool installs the worker pool parallel scans draw helpers
// from — typically one pool shared across every engine in the process,
// so total scan CPU is capped in one place alongside the service
// admission pool. A nil pool is ignored. Safe for concurrent use;
// in-flight executions keep the pool they started with.
func (e *Engine) SetScanPool(p *workpool.Pool) {
	if p != nil {
		e.pool.Store(p)
	}
}

// ScanPool returns the worker pool parallel scans currently use.
func (e *Engine) ScanPool() *workpool.Pool { return e.pool.Load() }

// Execute compiles and runs one AIQL query — the bind-then-run form of
// a one-shot execution (Prepare + ExecutePrepared with no bindings),
// materialized in the engine's canonical sorted order. The context
// bounds execution: cancellation or an expired deadline aborts
// partition scans and binding joins mid-flight; the returned error then
// wraps ctx.Err() and the returned Result still carries the execution
// statistics accumulated up to the abort (scanned events, pattern
// order), so callers can report how much work a timed-out query did.
// Queries with `$name` parameters need Prepare + ExecutePrepared to
// supply bindings.
func (e *Engine) Execute(ctx context.Context, src string) (*Result, error) {
	start := time.Now()
	cur, err := e.ExecuteCursor(ctx, src, CursorOptions{})
	if err != nil {
		return nil, err
	}
	return materializeCursor(cur, start)
}

// ExecuteCursor prepares and starts one AIQL query, returning a cursor
// over its rows. Parse, semantic, and planning errors are returned
// immediately; execution errors surface through Cursor.Err. In a traced
// execution the parse span covers parsing and checking only; estimating
// and scheduling the patterns belongs to the plan span, like the rest
// of planning.
func (e *Engine) ExecuteCursor(ctx context.Context, src string, opts CursorOptions) (*Cursor, error) {
	psp := obs.SpanFromContext(ctx).Child("parse")
	p, err := e.compile(src)
	psp.End()
	if err != nil {
		return nil, err
	}
	return e.executePlanned(ctx, p, nil, opts)
}

// materializeCursor drains a cursor to completion and puts the rows
// into the engine's canonical sorted order. When execution is aborted
// the returned error wraps the cause and the Result still carries the
// statistics accumulated up to the abort.
func materializeCursor(cur *Cursor, start time.Time) (*Result, error) {
	res := &Result{Columns: cur.Columns()}
	for cur.Next() {
		res.Rows = append(res.Rows, cur.Row())
	}
	execErr := cur.Err()
	cur.Close()
	res.Stats = cur.Stats()
	res.Stats.Elapsed = time.Since(start)
	if execErr != nil {
		return res, execErr
	}
	res.SortRows()
	return res, nil
}

// ExplainEntry describes one scheduled pattern in an execution plan.
type ExplainEntry struct {
	Alias    string
	Estimate int
}

// Explain returns the scheduled pattern order and pruning-power
// estimates for a query without executing it. Parameterized templates
// are explained with their placeholders unconstrained.
func (e *Engine) Explain(src string) ([]ExplainEntry, error) {
	p, err := e.Prepare(src)
	if err != nil {
		return nil, err
	}
	return e.ExplainPrepared(p)
}
