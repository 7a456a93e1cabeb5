// Package aiql is the public API of the AIQL system: a query system for
// efficiently investigating complex attack behaviors over system
// monitoring data (Gao et al., VLDB 2019 / USENIX ATC 2018).
//
// The system ingests SVO events — ⟨subject process, operation, object⟩
// interactions among processes, files, and network connections observed
// on enterprise hosts — into a domain-optimized store (entity
// deduplication, attribute indexes, hypertable chunking by host and
// time), and executes queries written in the Attack Investigation Query
// Language:
//
//   - multievent queries express multi-step attack behaviors as event
//     patterns related by shared entity variables and temporal order;
//   - dependency queries chain constraints along an event path for
//     causality tracking (forward/backward), including cross-host hops;
//   - anomaly queries aggregate events over sliding windows and filter
//     groups against their own historical windows.
//
// Basic usage:
//
//	db := aiql.Open()
//	db.AppendAll([]aiql.Record{ ... })
//	db.Flush()
//	res, err := db.Query(`
//	    agentid = 2
//	    proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
//	    proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
//	    with evt1 before evt2
//	    return distinct p1, p2, f1`)
//	fmt.Print(res.Table())
package aiql

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/aiql/aiql/internal/aiql/ast"
	"github.com/aiql/aiql/internal/aiql/parser"
	"github.com/aiql/aiql/internal/aiql/semantic"
	"github.com/aiql/aiql/internal/engine"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
	"github.com/aiql/aiql/internal/workpool"
)

// Re-exported domain types. Process, File, and Netconn describe system
// entities; Record is one raw monitoring record as produced by a
// collection agent.
type (
	// Process is a system entity originating from a software application.
	Process = sysmon.Process
	// File is a filesystem entity.
	File = sysmon.File
	// Netconn is a network connection entity.
	Netconn = sysmon.Netconn
	// Record is one raw monitoring record.
	Record = eventstore.Record
	// Operation identifies the interaction an event records.
	Operation = sysmon.Operation
	// Result is a query result: columns, string-rendered rows, and
	// execution statistics.
	Result = engine.Result
	// StorageOptions configures durability and the block cache.
	StorageOptions = eventstore.Options
	// EngineConfig toggles the query engine optimizations.
	EngineConfig = engine.Config
	// Cursor is a pull-based iterator over a query's projected rows.
	Cursor = engine.Cursor
	// CursorOptions shape a streaming execution (limit pushdown).
	CursorOptions = engine.CursorOptions
	// Params carries bindings for one execution of a prepared
	// statement: placeholder name → value (strings for string/time
	// parameters, numbers for number parameters).
	Params = engine.Params
	// ParamSpec is one entry of a prepared statement's typed parameter
	// signature.
	ParamSpec = engine.ParamSpec
	// ParamType classifies what kind of value a $name placeholder
	// accepts: ParamString, ParamNumber, or ParamTime.
	ParamType = engine.ParamType
	// ParamError reports a bad binding (unknown name, missing binding,
	// wrong type) with a machine-readable code.
	ParamError = engine.ParamError
	// ExplainEntry is one scheduled pattern of an execution plan.
	ExplainEntry = engine.ExplainEntry
	// StandingState carries a standing query's evaluation watermark —
	// which commits it has seen and which rows it has reported.
	StandingState = engine.StandingState
	// DeltaResult is one standing-query evaluation's outcome: the rows
	// new since the previous evaluation against the same state.
	DeltaResult = engine.DeltaResult
)

// Parameter types (re-exported).
const (
	ParamString = engine.ParamString
	ParamNumber = engine.ParamNumber
	ParamTime   = engine.ParamTime
)

// Operations (re-exported).
const (
	OpStart   = sysmon.OpStart
	OpEnd     = sysmon.OpEnd
	OpRead    = sysmon.OpRead
	OpWrite   = sysmon.OpWrite
	OpExecute = sysmon.OpExecute
	OpDelete  = sysmon.OpDelete
	OpRename  = sysmon.OpRename
	OpChmod   = sysmon.OpChmod
	OpConnect = sysmon.OpConnect
	OpAccept  = sysmon.OpAccept
	OpSend    = sysmon.OpSend
	OpRecv    = sysmon.OpRecv
)

// Entity type discriminators for Record.ObjType.
const (
	EntityProcess = sysmon.EntityProcess
	EntityFile    = sysmon.EntityFile
	EntityNetconn = sysmon.EntityNetconn
)

// DB is an AIQL database: the optimized event store plus the query
// engine. It is safe for concurrent readers.
type DB struct {
	store *eventstore.Store
	eng   *engine.Engine
}

// Open creates an empty database with all storage and engine
// optimizations enabled.
func Open() *DB {
	return OpenWithOptions(eventstore.DefaultOptions(), engine.Config{})
}

// OpenWithOptions creates a database with explicit storage and engine
// configurations, used by benchmarks and ablation studies.
func OpenWithOptions(storage StorageOptions, cfg EngineConfig) *DB {
	store := eventstore.New(storage)
	return &DB{store: store, eng: engine.NewWithConfig(store, cfg)}
}

// OpenDir opens (creating or recovering) the durable database rooted at
// dir with default options: sealed segments live as individual files
// loaded without re-indexing, a MANIFEST names the live segment set,
// and a write-ahead log, fsynced once per AppendAll, makes acknowledged
// appends durable between seals. Close the database to release the log.
func OpenDir(dir string) (*DB, error) {
	storage := eventstore.DefaultOptions()
	storage.Dir = dir
	return OpenDirWithOptions(storage, engine.Config{})
}

// OpenDirWithOptions opens a durable database with explicit storage and
// engine configurations; storage.Dir names the directory.
func OpenDirWithOptions(storage StorageOptions, cfg EngineConfig) (*DB, error) {
	store, err := eventstore.Open(storage)
	if err != nil {
		return nil, err
	}
	return &DB{store: store, eng: engine.NewWithConfig(store, cfg)}, nil
}

// Close stops the database's background compactor and closes its
// write-ahead log. In-memory databases close trivially; in-flight
// queries on pinned snapshots are unaffected either way.
func (db *DB) Close() error { return db.store.Close() }

// Closed reports whether Close has been called. Health endpoints and
// shard probes use this to report readiness without touching store
// locks.
func (db *DB) Closed() bool { return db.store.Closed() }

// Compact merges chains of small sealed segments until none remains
// below the configured target, retiring the old segment IDs from the
// engine's scan cache. Durable databases install each merge as a new
// manifest edition. Results are unaffected: compaction moves no data in
// or out and leaves result caches valid.
func (db *DB) Compact() eventstore.CompactionResult { return db.store.Compact() }

// StartCompactor runs Compact in the background every interval; Close
// (or StopCompactor) stops it.
func (db *DB) StartCompactor(interval time.Duration) { db.store.StartCompactor(interval) }

// StopCompactor stops the background compactor, if running.
func (db *DB) StopCompactor() { db.store.StopCompactor() }

// DurableStats reports the database's on-disk footprint (segment files,
// WAL, manifest edition) and compaction activity.
func (db *DB) DurableStats() eventstore.DurableStats { return db.store.DurableStats() }

// StorageStats reports where sealed-segment bytes live: mmap'd segment
// files versus heap-resident events, plus block-cache counters.
func (db *DB) StorageStats() eventstore.StorageStats { return db.store.StorageStats() }

// ErrClosed reports a write against a closed database — reachable when
// a live writer races a catalog hot-swap that closes the store. The
// write is rejected cleanly; nothing is partially applied.
var ErrClosed = eventstore.ErrClosed

// AppendAll is the one ingest call, for one record or many: the whole
// batch is committed (visible to queries) before the call returns, and
// under durable storage the batch is group-committed with a single WAL
// fsync. Returns ErrClosed after Close, and the write-ahead log's error
// when the batch could not be made durable.
func (db *DB) AppendAll(rs []Record) error { return db.store.AppendAll(rs) }

// Flush seals every active memtable into an immutable segment (AppendAll
// has already committed every record). Returns ErrClosed after Close.
func (db *DB) Flush() error { return db.store.Flush() }

// Commits reports the store's commit counter: it advances whenever new
// events become visible, so pollers (standing-query evaluators, result
// caches) can detect fresh data without scanning.
func (db *DB) Commits() uint64 { return db.store.Commits() }

// Len returns the number of committed events.
func (db *DB) Len() int { return db.store.Len() }

// TimeRange returns the [min, max] start timestamps of committed events.
func (db *DB) TimeRange() (time.Time, time.Time) {
	lo, hi := db.store.TimeRange()
	return time.Unix(0, lo), time.Unix(0, hi)
}

// Stmt is a prepared AIQL statement: the query template is compiled
// once (parse → semantic check → dependency rewrite → pattern
// scheduling) and executed any number of times with different `$name`
// parameter bindings, each execution skipping everything but the scan.
// A Stmt is immutable and safe for concurrent use.
type Stmt struct {
	db *DB
	p  *engine.Prepared
}

// Prepare compiles one AIQL query into a reusable statement. The query
// may contain `$name` placeholders in value positions (entity patterns,
// attribute comparisons, time windows, global constraints); the
// returned statement's Params reports the inferred typed signature.
func (db *DB) Prepare(src string) (*Stmt, error) {
	p, err := db.eng.Prepare(src)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, p: p}, nil
}

// Exec binds params and runs the statement under ctx, materializing the
// result in canonical sorted order.
func (s *Stmt) Exec(ctx context.Context, params Params) (*Result, error) {
	return s.db.eng.ExecutePrepared(ctx, s.p, params)
}

// ExecCursor binds params and starts the statement as a streaming
// cursor; see DB.QueryCursor for cursor semantics.
func (s *Stmt) ExecCursor(ctx context.Context, params Params, opts CursorOptions) (*Cursor, error) {
	return s.db.eng.ExecutePreparedCursor(ctx, s.p, params, opts)
}

// NewStandingState returns an empty standing-query state; the first
// ExecDelta against it reports every current match (the baseline).
func NewStandingState() *StandingState { return engine.NewStandingState() }

// ExecDelta evaluates the statement as a standing query: a no-op when
// the store has no new commits since st's last evaluation, otherwise a
// (scan-cache-accelerated) re-execution that reports only the rows not
// seen before. st is not safe for concurrent use; callers serialize
// evaluations per state.
func (s *Stmt) ExecDelta(ctx context.Context, params Params, st *StandingState) (*DeltaResult, error) {
	return s.db.eng.ExecutePreparedDelta(ctx, s.p, params, st)
}

// Explain reports the statement's frozen pattern order with
// pruning-power estimates against the current store state.
func (s *Stmt) Explain() ([]ExplainEntry, error) {
	return s.db.eng.ExplainPrepared(s.p)
}

// Check validates params against the statement's signature without
// executing: unknown names, missing bindings, and type mismatches are
// reported as *ParamError.
func (s *Stmt) Check(params Params) error {
	return s.p.CheckParams(params)
}

// Params returns the statement's typed parameter signature in
// first-appearance order.
func (s *Stmt) Params() []ParamSpec { return s.p.Params() }

// Columns returns the result header the statement produces.
func (s *Stmt) Columns() []string { return s.p.Columns() }

// Kind returns the statement's query family.
func (s *Stmt) Kind() string { return s.p.Kind() }

// Distinct reports whether the statement drops duplicate result rows.
func (s *Stmt) Distinct() bool { return s.p.Distinct() }

// Source returns the statement's original query text.
func (s *Stmt) Source() string { return s.p.Source() }

// Fingerprint identifies the template across reformattings; result
// caches key on it together with the canonicalized bindings.
func (s *Stmt) Fingerprint() uint64 { return s.p.Fingerprint() }

// Query prepares and executes one AIQL query without a deadline — the
// one-shot form of Prepare + Exec. Use QueryContext to bound execution.
func (db *DB) Query(src string) (*Result, error) {
	return db.eng.Execute(context.Background(), src)
}

// QueryContext parses, validates, and executes one AIQL query under ctx.
// Cancellation or an expired deadline aborts partition scans mid-flight;
// the returned error then wraps ctx.Err() and the Result (non-nil for
// queries that began executing) carries the statistics accumulated up to
// the abort.
func (db *DB) QueryContext(ctx context.Context, src string) (*Result, error) {
	return db.eng.Execute(ctx, src)
}

// QueryCursor starts one AIQL query and returns a cursor that yields
// projected rows on demand: results stream with bounded memory instead
// of being materialized, and closing the cursor aborts the remaining
// scan work. With CursorOptions.Limit > 0 the engine pushes the limit
// into the final pattern scan, terminating early once the rows have
// been produced; streamed rows arrive in production order (no global
// sort). Parse, semantic, and planning errors are returned immediately;
// execution errors surface through Cursor.Err. The cursor must be
// closed.
func (db *DB) QueryCursor(ctx context.Context, src string, opts CursorOptions) (*Cursor, error) {
	return db.eng.ExecuteCursor(ctx, src, opts)
}

// Check parses and validates a query without executing it, returning the
// first syntax or semantic error. The web UI's syntax checker uses it.
func Check(src string) error {
	q, err := parser.Parse(src)
	if err != nil {
		return err
	}
	switch x := q.(type) {
	case *ast.DependencyQuery:
		if _, err := semantic.Check(x); err != nil {
			return err
		}
		mq, err := engine.RewriteDependency(x)
		if err != nil {
			return err
		}
		_, err = semantic.Check(mq)
		return err
	default:
		_, err := semantic.Check(q)
		return err
	}
}

// QueryKind reports which family a query belongs to ("multievent",
// "dependency", or "anomaly"), or an error if it does not parse.
func QueryKind(src string) (string, error) {
	q, err := parser.Parse(src)
	if err != nil {
		return "", err
	}
	return q.Kind(), nil
}

// Explain returns the engine's scheduled pattern order with pruning-power
// estimates (lower estimate = scheduled earlier).
func (db *DB) Explain(src string) (string, error) {
	entries, err := db.eng.Explain(src)
	if err != nil {
		return "", err
	}
	out := ""
	for i, e := range entries {
		out += fmt.Sprintf("%d. %s (estimated matches: %d)\n", i+1, e.Alias, e.Estimate)
	}
	return out, nil
}

// ExplainPlan returns the engine's scheduled pattern order with
// pruning-power estimates as structured entries, for API consumers.
func (db *DB) ExplainPlan(src string) ([]engine.ExplainEntry, error) {
	return db.eng.Explain(src)
}

// EnableSegmentScanCache installs the engine's segment scan cache with
// the given byte budget (non-positive removes it): per-pattern filtered
// scan results over sealed segments are cached by (filter fingerprint,
// segment id) and reused verbatim across executions, so an append only
// re-scans the unsealed tail and fresh segments. Disabled by default so
// benchmarks and ablations measure raw scans unless they opt in; the
// server enables it for every dataset it serves.
func (db *DB) EnableSegmentScanCache(maxBytes int64) {
	db.eng.SetScanCache(maxBytes)
}

// ScanCacheStats reports the segment scan cache's counters; zero values
// when the cache is disabled.
func (db *DB) ScanCacheStats() engine.ScanCacheStats {
	return db.eng.ScanCacheStats()
}

// ScanPool is a bounded pool of helper goroutines for parallel segment
// scans; see NewScanPool.
type ScanPool = workpool.Pool

// ScanPoolStats are a scan pool's gauges and counters.
type ScanPoolStats = workpool.Stats

// NewScanPool creates a scan worker pool capping total scan
// parallelism at the given worker count — the scanning query's own
// goroutine plus workers-1 helpers, clamped to the machine's cores
// (scan helpers are CPU-bound, so a wider pool only adds scheduling
// overhead). Share one pool across several databases (SetScanPool) to
// govern their combined scan CPU in one place; a non-positive count
// yields fully sequential scanning.
func NewScanPool(workers int) *ScanPool {
	return workpool.New(min(workers, runtime.GOMAXPROCS(0)) - 1)
}

// SetScanPool installs the worker pool parallel scans draw helpers
// from. Without an explicit pool the engine shares the process-wide
// default, sized to GOMAXPROCS. A nil pool is ignored.
func (db *DB) SetScanPool(p *ScanPool) { db.eng.SetScanPool(p) }

// ScanPoolStats reports the scan worker pool's counters.
func (db *DB) ScanPoolStats() ScanPoolStats { return db.eng.ScanPool().Stats() }

// SegmentStats reports the store's LSM layout: sealed segments versus
// active memtables.
func (db *DB) SegmentStats() eventstore.SegmentStats {
	return db.store.SegmentStats()
}

// Stats summarizes the database contents.
type Stats struct {
	Events     int
	Partitions int
	Processes  int
	Files      int
	Netconns   int
	Bytes      uint64
}

// Stats returns database statistics.
func (db *DB) Stats() Stats {
	s := db.store.Stats()
	return Stats{
		Events:     s.Events,
		Partitions: s.Partitions,
		Processes:  s.Processes,
		Files:      s.Files,
		Netconns:   s.Netconns,
		Bytes:      s.ApproxBytes,
	}
}

// Store exposes the underlying event store for advanced integrations
// (baseline loaders, experiment harnesses).
func (db *DB) Store() *eventstore.Store { return db.store }

// FromStore wraps an existing event store in a DB, for integrations that
// build stores directly (generators, experiment harnesses).
func FromStore(store *eventstore.Store) *DB {
	return &DB{store: store, eng: engine.New(store)}
}

// DefaultStorage returns the storage configuration: in memory; with Dir
// set, appends acknowledged only after their WAL fsync.
func DefaultStorage() StorageOptions { return eventstore.DefaultOptions() }
