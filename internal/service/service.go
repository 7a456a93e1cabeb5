// Package service is the concurrent query service layer: it wraps an
// AIQL database so many simultaneous clients share one execution path
// with admission control, per-query deadlines, and result caching.
//
// Attack investigation is interactive (paper §1): analysts iterate on
// queries, so the same query text recurs against an unchanged store —
// the LRU result cache serves those repeats from memory, keyed on the
// normalized query text plus the store's commit counter so any append
// invalidates by construction. Under overload a bounded worker pool plus
// a bounded admission queue sheds load explicitly (ErrOverloaded)
// instead of letting unbounded goroutine fan-out thrash the partition
// scanners; a per-client in-flight cap (ErrClientThrottled) keeps one
// noisy client from monopolizing the pool; and every execution runs
// under a context deadline so a runaway query cannot pin a worker
// forever.
//
// Every query that misses the cache takes one admitted run: admission,
// the deadline, the execution trace and the accounting of how it ended
// happen in one place, in front of one of two executors — the local
// engine's cursor, or a shard backend's merge stream when the service
// coordinates a sharded dataset. Both yield the rows in chunks, and the
// three response forms are ways of consuming that run:
//
//   - buffered (Do): the run drained into a cache entry in canonical
//     order, sliced into cursor-token pages. Identical concurrent misses
//     are collapsed into one run (singleflight); a follower whose leader
//     died of the leader's own context, while its own is still live,
//     retries rather than inheriting that failure.
//   - sorted stream (DoStream with Sorted): the buffered execution,
//     singleflight and retry included, walked in chunks.
//   - stream (DoStream, DoStreamChunks): the run piped straight to the
//     client in production order with the limit pushed down, bounded
//     memory, not cached.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/engine"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/workpool"
)

// ErrOverloaded reports that the service shed the query: every worker is
// busy and the admission queue is full (or the query timed out waiting in
// it). Clients should back off and retry.
var ErrOverloaded = errors.New("service: overloaded, try again later")

// ErrClientThrottled reports that one client has reached its share of
// concurrent executions; other clients' queries are still admitted. The
// client should back off and retry.
var ErrClientThrottled = errors.New("service: client exceeded its concurrent query share, try again later")

// maxTimeout clamps client-requested timeouts.
const maxTimeout = 2 * time.Minute

// maxRows caps rows returned per buffered response; the full row count
// is still reported and pagination reaches the rest. Streams are
// bounded only by their own limit.
const maxRows = 5000

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// Workers caps concurrent query executions. Default: GOMAXPROCS.
	Workers int
	// QueueDepth caps queries waiting for a worker beyond Workers.
	// Default: 4×Workers.
	QueueDepth int
	// QueueWait bounds how long an admitted query may wait for a worker
	// before being shed with ErrOverloaded. Default: 2s.
	QueueWait time.Duration
	// DefaultTimeout bounds execution when the request names none.
	// Default: 30s.
	DefaultTimeout time.Duration
	// CacheEntries is the LRU result-cache entry capacity. Negative
	// disables caching. Default: 256.
	CacheEntries int
	// MaxCacheBytes bounds the approximate memory footprint of cached
	// rows; the LRU evicts past whichever of the entry and byte bounds
	// is hit first. Negative removes the byte bound. Default: 64 MiB.
	MaxCacheBytes int64
	// ClientInflight caps concurrent executions per client key
	// (Request.Client); requests beyond the cap are rejected with
	// ErrClientThrottled so one noisy client cannot monopolize the
	// worker pool. Requests with an empty client key are exempt.
	// Negative disables the cap. Default: half the workers (at least 1).
	ClientInflight int
	// PreparedEntries caps the prepared-statement registry (LRU).
	// Negative disables prepared statements. Default: 256.
	PreparedEntries int
	// PreparedTTL expires statements idle longer than this; each
	// lookup refreshes the clock. Negative disables expiry.
	// Default: 15m.
	PreparedTTL time.Duration
	// IngestMaxRecords caps events per ingest request; oversized
	// batches are rejected before any append. Negative disables the
	// cap. Default: 10000.
	IngestMaxRecords int
	// IngestMaxBytes caps an ingest request body. Default: 8 MiB.
	IngestMaxBytes int64
	// MaxWatches caps registered standing queries per dataset.
	// Negative disables standing queries entirely. Default: 64.
	MaxWatches int
	// WatchBuffer is each SSE subscriber's buffered match capacity;
	// a full buffer drops its oldest match (drop-oldest backpressure)
	// so a slow consumer sees the freshest matches, never a stalled
	// ingest path. Default: 256.
	WatchBuffer int
	// Dataset names the dataset this service fronts; it labels the
	// service's metric series and slow-query entries. Empty emits
	// unlabeled series.
	Dataset string
	// Metrics, when set, receives the service's per-query instruments
	// (latency histogram, scanned-events counter). Nil disables them.
	Metrics *obs.Registry
	// SlowLog, when set, records every execution at or above its
	// threshold. Nil disables slow-query logging.
	SlowLog *obs.SlowLog
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxCacheBytes == 0 {
		c.MaxCacheBytes = 64 << 20
	}
	if c.ClientInflight == 0 {
		c.ClientInflight = (c.Workers + 1) / 2
		if c.ClientInflight < 1 {
			c.ClientInflight = 1
		}
	}
	if c.PreparedEntries == 0 {
		c.PreparedEntries = 256
	}
	if c.PreparedTTL == 0 {
		c.PreparedTTL = 15 * time.Minute
	}
	if c.IngestMaxRecords == 0 {
		c.IngestMaxRecords = 10000
	}
	if c.IngestMaxBytes <= 0 {
		c.IngestMaxBytes = 8 << 20
	}
	if c.MaxWatches == 0 {
		c.MaxWatches = 64
	}
	if c.WatchBuffer <= 0 {
		c.WatchBuffer = 256
	}
	return c
}

// Request is one query submission.
type Request struct {
	// Query is the AIQL query text. It may contain `$name` parameters
	// when Params supplies their bindings; the template is compiled
	// once per submission (use StmtID to compile once per session).
	Query string
	// StmtID executes a statement registered via Prepare instead of
	// inline query text; Params supplies the bindings.
	StmtID string
	// Params binds the statement's `$name` parameters for this
	// execution.
	Params map[string]any
	// Limit caps returned rows (the page size under pagination); 0 means
	// the service maximum. The limit shapes the response only —
	// TotalRows always reports the full count.
	Limit int
	// Cursor resumes pagination: an opaque token from a previous
	// response's NextCursor. The page is served from the same store
	// generation the first page was computed over.
	Cursor string
	// Client identifies the caller for per-client fairness accounting
	// (an API key header, a remote address). Empty skips the accounting.
	Client string
	// Timeout bounds execution; 0 means the service default. Values
	// above the service maximum are clamped.
	Timeout time.Duration
	// Explain requests the scheduled execution plan (pattern order and
	// pruning-power estimates) instead of executing the query: the
	// response carries Plan and no rows.
	Explain bool
	// Trace requests the execution's span tree (EXPLAIN ANALYZE style):
	// the response carries Trace alongside the rows. A traced request
	// bypasses the result-cache lookup so the spans describe a real
	// execution, though its result still fills the cache.
	Trace bool
	// Sorted asks DoStream for rows in the canonical result order
	// (engine.RowLess) instead of production order. A sorted stream is
	// served from the buffered execution path — the full result
	// materializes (and fills the result cache) before the first row —
	// so it trades first-row latency for a deterministic order. This is
	// the wire contract shard coordinators rely on: sorted member
	// streams merge into a result byte-identical to unsharded
	// execution. A coordinator's own stream is already in that order,
	// so there Sorted changes nothing.
	Sorted bool
	// RequireAll fails a query over a sharded dataset when any member
	// is unreachable, instead of degrading to partial results with
	// shard_unavailable warnings. Ignored on unsharded datasets.
	RequireAll bool
}

// Response is one query outcome.
type Response struct {
	Columns   []string
	Rows      [][]string // one page; do not mutate (shared with the cache)
	TotalRows int
	// Offset is the index of the first returned row within the full
	// result.
	Offset int
	// NextCursor pages to the rows after this response; empty when the
	// result is exhausted.
	NextCursor string
	Duration   time.Duration // service-observed latency, including queue wait
	Cached     bool
	Kind       string // query family: multievent, dependency, anomaly
	Stats      engine.ExecStats
	// Plan is the scheduled pattern order with estimates, set only for
	// explain requests (which carry no rows).
	Plan []engine.ExplainEntry
	// Trace is the execution's span tree, set only when the request
	// asked for it (Request.Trace).
	Trace *obs.SpanNode
	// Partial marks a scatter-gathered result some members could not
	// contribute to; Warnings names them. Partial results are never
	// cached and never paginate (NextCursor stays empty) — a later page
	// could silently mix member availability.
	Partial  bool
	Warnings []ShardWarning
}

// Stats are the service's monotonic counters plus instantaneous gauges.
type Stats struct {
	Queries      uint64 `json:"queries"`
	Executions   uint64 `json:"executions"` // engine executions actually started
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	Coalesced    uint64 `json:"coalesced"` // misses served by an identical in-flight execution
	Rejected     uint64 `json:"rejected"`
	Throttled    uint64 `json:"throttled"` // per-client fairness rejections
	Timeouts     uint64 `json:"timeouts"`
	Canceled     uint64 `json:"canceled"`
	Errors       uint64 `json:"errors"`
	RowsStreamed uint64 `json:"rows_streamed"` // rows delivered through DoStream
	// ScannedEvents sums events touched by pattern scans across fresh
	// executions (cache hits and coalesced followers re-report the
	// leader's work and are not re-counted).
	ScannedEvents uint64 `json:"scanned_events"`
	Active        int64  `json:"active"`
	Queued        int64  `json:"queued"`
	CacheEntries  int    `json:"cache_entries"`
	CacheBytes    int64  `json:"cache_bytes"`
}

// StoreStats is the wire form of one dataset's storage figures,
// including the LSM segment layout.
type StoreStats struct {
	Events         int    `json:"events"`
	Partitions     int    `json:"partitions"`
	Segments       int    `json:"segments"`
	SealedEvents   int    `json:"sealed_events"`
	SealedBytes    uint64 `json:"sealed_bytes"`
	MemtableEvents int    `json:"memtable_events"`
	MemtableBytes  uint64 `json:"memtable_bytes"`
	Processes      int    `json:"processes"`
	Files          int    `json:"files"`
	Netconns       int    `json:"netconns"`
	ApproxBytes    uint64 `json:"approx_bytes"`
}

// DatasetStats is one dataset's full statistics blob: the service's
// counters plus the store's segment layout, the engine's segment
// scan-cache figures, and the durable subsystem's disk/WAL/compaction
// figures. Every dataset served by a catalog has its own independent
// instance of all of them.
type DatasetStats struct {
	Dataset   string                `json:"dataset,omitempty"`
	Default   bool                  `json:"default,omitempty"`
	Service   Stats                 `json:"service"`
	Store     StoreStats            `json:"store"`
	ScanCache engine.ScanCacheStats `json:"scan_cache"`
	// Scan reports the parallel-scan worker pool. The pool is normally
	// shared process-wide (one cap across all datasets), so the figures
	// are global, repeated per dataset for convenience.
	Scan     workpool.Stats          `json:"scan"`
	Durable  eventstore.DurableStats `json:"durable"`
	Storage  eventstore.StorageStats `json:"storage"`
	Prepared PreparedStats           `json:"prepared"`
	Ingest   IngestStats             `json:"ingest"`
	Watch    WatchStats              `json:"watch"`
	Build    obs.BuildInfo           `json:"build"`
	// Shards reports the coordinator's fan-out counters; nil on
	// unsharded datasets.
	Shards *ShardStats `json:"shards,omitempty"`
}

// DatasetStats snapshots the service's counters together with its
// dataset's storage and reuse figures.
func (s *Service) DatasetStats(name string) DatasetStats {
	dbStats := s.db.Stats()
	seg := s.db.SegmentStats()
	return DatasetStats{
		Dataset: name,
		Service: s.Stats(),
		Store: StoreStats{
			Events:         dbStats.Events,
			Partitions:     dbStats.Partitions,
			Segments:       seg.Segments,
			SealedEvents:   seg.SealedEvents,
			SealedBytes:    seg.SealedBytes,
			MemtableEvents: seg.MemtableEvents,
			MemtableBytes:  seg.MemtableBytes,
			Processes:      dbStats.Processes,
			Files:          dbStats.Files,
			Netconns:       dbStats.Netconns,
			ApproxBytes:    dbStats.Bytes,
		},
		ScanCache: s.db.ScanCacheStats(),
		Scan:      s.db.ScanPoolStats(),
		Durable:   s.db.DurableStats(),
		Storage:   s.db.StorageStats(),
		Prepared:  s.PreparedStats(),
		Ingest:    s.IngestStats(),
		Watch:     s.WatchStats(),
		Build:     obs.Build(),
		Shards:    s.ShardStats(),
	}
}

// flight is one in-flight execution that identical concurrent requests
// latch onto instead of executing again.
type flight struct {
	done  chan struct{}
	entry *cacheEntry
	err   error
}

// Service executes queries for many concurrent clients over one database.
type Service struct {
	db *aiql.DB
	// shards, when set, makes this a coordinator: executions
	// scatter-gather across the backend's members and db serves
	// planning only (compile, validate, explain). Nil on ordinary
	// single-store services.
	shards   ShardBackend
	cfg      Config
	sem      chan struct{} // worker slots
	cache    *resultCache
	prepared *preparedRegistry
	watches  *watchRegistry

	flightMu sync.Mutex
	flights  map[cacheKey]*flight

	clientMu sync.Mutex
	clients  map[string]int // in-flight executions per client key

	queries       atomic.Uint64
	executions    atomic.Uint64
	cacheHits     atomic.Uint64
	cacheMisses   atomic.Uint64
	coalesced     atomic.Uint64
	rejected      atomic.Uint64
	throttled     atomic.Uint64
	timeouts      atomic.Uint64
	canceled      atomic.Uint64
	errors        atomic.Uint64
	rowsStreamed  atomic.Uint64
	scannedEvents atomic.Uint64
	active        atomic.Int64
	queued        atomic.Int64

	ingests        atomic.Uint64
	ingestEvents   atomic.Uint64
	ingestRejected atomic.Uint64

	// mDuration and mScanned are nil-safe obs instruments (no-ops when
	// Config.Metrics is unset); slow is the shared slow-query log.
	mDuration *obs.Histogram
	mScanned  *obs.Counter
	slow      *obs.SlowLog
}

// New creates a service over db.
func New(db *aiql.DB, cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		db:       db,
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.Workers),
		cache:    newResultCache(cfg.CacheEntries, cfg.MaxCacheBytes),
		prepared: newPreparedRegistry(cfg.PreparedEntries, cfg.PreparedTTL),
		watches:  newWatchRegistry(cfg.MaxWatches, cfg.WatchBuffer),
		flights:  map[cacheKey]*flight{},
		clients:  map[string]int{},
		slow:     cfg.SlowLog,
	}
	if cfg.Metrics != nil {
		var lbls []obs.Label
		if cfg.Dataset != "" {
			lbls = []obs.Label{{Name: "dataset", Value: cfg.Dataset}}
		}
		// Registration is get-or-create, so a dataset hot-swap building a
		// fresh service over the same registry reuses the live series and
		// the counters stay monotonic across swaps.
		s.mDuration = cfg.Metrics.MustHistogram("aiql_query_duration_seconds",
			"Query latency through the service layer, queue wait included.",
			obs.DefBuckets, lbls...)
		s.mScanned = cfg.Metrics.MustCounter("aiql_query_scanned_events_total",
			"Events touched by pattern scans across fresh executions.", lbls...)
	}
	return s
}

// NewSharded creates a coordinator service over a shard backend. The
// planning database (typically empty and in-memory) serves compilation
// only — statement preparation, binding validation, column/kind
// inference, explain plans — while every execution scatter-gathers
// across the backend's members. The result cache keys on the backend's
// Generation instead of a local commit counter; ingest and standing
// queries are rejected (writes belong to the members).
func NewSharded(planning *aiql.DB, shards ShardBackend, cfg Config) *Service {
	s := New(planning, cfg)
	s.shards = shards
	return s
}

// Close releases what the service fronts: the shard backend (the
// coordinator and its members) when sharded, then the database —
// compactor, WAL and directory lock. Queries in flight finish on the
// snapshots they pinned; later writes fail with aiql.ErrClosed.
func (s *Service) Close() error {
	var err error
	if s.shards != nil {
		err = s.shards.Close()
	}
	if derr := s.db.Close(); err == nil {
		err = derr
	}
	return err
}

// Sharded reports whether this service coordinates a sharded dataset.
func (s *Service) Sharded() bool { return s.shards != nil }

// ShardStats snapshots the shard coordinator's counters (nil when the
// service is not sharded).
func (s *Service) ShardStats() *ShardStats {
	if s.shards == nil {
		return nil
	}
	return s.shards.Stats()
}

// generation identifies the store version results are computed over —
// the unit of result-cache keying and cursor-chain pinning. Local
// services read the store's commit counter; coordinators ask the shard
// backend for the members' combined generation.
func (s *Service) generation() uint64 {
	if s.shards != nil {
		return s.shards.Generation()
	}
	return s.db.Store().Commits()
}

// SlowLog returns the slow-query log this service records into (nil
// when none is configured).
func (s *Service) SlowLog() *obs.SlowLog { return s.slow }

// DB returns the wrapped database.
func (s *Service) DB() *aiql.DB { return s.db }

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	return Stats{
		Queries:       s.queries.Load(),
		Executions:    s.executions.Load(),
		CacheHits:     s.cacheHits.Load(),
		CacheMisses:   s.cacheMisses.Load(),
		Coalesced:     s.coalesced.Load(),
		Rejected:      s.rejected.Load(),
		Throttled:     s.throttled.Load(),
		Timeouts:      s.timeouts.Load(),
		Canceled:      s.canceled.Load(),
		Errors:        s.errors.Load(),
		RowsStreamed:  s.rowsStreamed.Load(),
		ScannedEvents: s.scannedEvents.Load(),
		Active:        s.active.Load(),
		Queued:        s.queued.Load(),
		CacheEntries:  s.cache.len(),
		CacheBytes:    s.cache.sizeBytes(),
	}
}

// execTarget is one request resolved to its executable form: either a
// prepared statement with bindings or inline query text, plus the
// canonical cache-key text. Prepared executions key on (template
// fingerprint, canonicalized bindings), so distinct bindings of one
// template share the compiled plan while caching results
// independently; inline text keys on its normalized form.
type execTarget struct {
	stmt     *aiql.Stmt
	params   aiql.Params
	query    string // inline text; empty when stmt is set
	keyQuery string
	kind     string
}

// resolveTarget maps a request to its executable: a registered
// statement (StmtID), an ad-hoc prepared template (inline text with
// Params), or plain query text. Bindings are validated here so
// unknown/missing/mistyped parameters fail before admission.
func (s *Service) resolveTarget(req Request) (*execTarget, error) {
	switch {
	case req.StmtID != "":
		stmt, err := s.prepared.get(req.StmtID, time.Now())
		if err != nil {
			return nil, err
		}
		params := aiql.Params(req.Params)
		if err := stmt.Check(params); err != nil {
			return nil, err
		}
		return &execTarget{stmt: stmt, params: params,
			keyQuery: stmtCacheKey(stmt, params), kind: stmt.Kind()}, nil
	case len(req.Params) > 0:
		stmt, err := s.db.Prepare(req.Query)
		if err != nil {
			return nil, err
		}
		params := aiql.Params(req.Params)
		if err := stmt.Check(params); err != nil {
			return nil, err
		}
		return &execTarget{stmt: stmt, params: params,
			keyQuery: stmtCacheKey(stmt, params), kind: stmt.Kind()}, nil
	default:
		return &execTarget{query: req.Query, keyQuery: normalizeQuery(req.Query)}, nil
	}
}

// Do executes one query request as a buffered response: statement/
// binding resolution, cursor resolution, cache lookup, per-client
// fairness, singleflight collapsing, admission, bounded execution, cache
// fill, page shaping. It is safe for arbitrary concurrent use.
func (s *Service) Do(ctx context.Context, req Request) (*Response, error) {
	return s.serve(req, func(t *execTarget, start time.Time) (*Response, error) {
		if req.Explain {
			return s.explain(req, t, start)
		}
		return s.buffered(ctx, req, t, start)
	})
}

// serve is the front end every query shares: count it, resolve its
// target, hand it to do, observe the outcome (metrics, slow log), and
// strip the span tree unless the request asked for it.
func (s *Service) serve(req Request, do func(t *execTarget, start time.Time) (*Response, error)) (*Response, error) {
	start := time.Now()
	s.queries.Add(1)
	t, err := s.resolveTarget(req)
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	resp, err := do(t, start)
	if !req.Explain {
		s.observe(req, t, start, resp, err)
	}
	if resp != nil && !req.Trace {
		resp.Trace = nil
	}
	return resp, err
}

// explain answers from planning alone: estimates come from the store's
// indexes, no pattern scan runs, so explain bypasses admission and
// caching.
func (s *Service) explain(req Request, t *execTarget, start time.Time) (*Response, error) {
	var (
		plan []engine.ExplainEntry
		err  error
	)
	kind := t.kind
	if t.stmt != nil {
		plan, err = t.stmt.Explain()
	} else {
		kind, _ = aiql.QueryKind(req.Query)
		plan, err = s.db.ExplainPlan(req.Query)
	}
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	return &Response{Plan: plan, Kind: kind, Duration: time.Since(start)}, nil
}

// buffered is Do past target resolution: cursor resolution, cache
// lookup, the shared execution, page shaping.
func (s *Service) buffered(ctx context.Context, req Request, t *execTarget, start time.Time) (*Response, error) {
	// The generation is read before execution; the entry is only stored
	// if it is unchanged afterwards, so a cached result always reflects
	// exactly the store version its key names.
	key := cacheKey{query: t.keyQuery, commits: s.generation()}
	offset := 0
	if req.Cursor != "" {
		qhash, tokCommits, tokOffset, err := decodeCursorToken(req.Cursor)
		if err != nil {
			return nil, err
		}
		if qhash != hashQuery(key.query) {
			return nil, fmt.Errorf("%w: token belongs to a different query", ErrBadCursor)
		}
		offset = tokOffset
		// Pages are pinned to the generation named by the token: as long
		// as its entry is cached, every page of the chain is a slice of
		// one consistent snapshot, regardless of concurrent appends.
		if entry, ok := s.cache.get(cacheKey{query: key.query, commits: tokCommits}); ok {
			s.cacheHits.Add(1)
			return s.shape(entry, req, start, true, offset), nil
		}
		if tokCommits != key.commits {
			// the snapshot is both evicted and superseded — recomputing
			// would silently page across generations
			return nil, ErrCursorExpired
		}
		// evicted but not superseded: re-execute at the same generation
	}
	if entry := s.lookup(req, key); entry != nil {
		return s.shape(entry, req, start, true, offset), nil
	}
	entry, coalesced, err := s.shared(ctx, req, t, key)
	if err != nil {
		return nil, err
	}
	// A cursor chain must never mix store generations. Execution is only
	// reached for a chain when the snapshot was evicted while the store
	// still matched the token; if an append landed during re-execution
	// the result may reflect the newer generation, so the chain expires
	// rather than serving it.
	if req.Cursor != "" && s.generation() != key.commits {
		return nil, ErrCursorExpired
	}
	return s.shape(entry, req, start, coalesced, offset), nil
}

// lookup serves key from the result cache, counting the hit or miss. A
// traced request skips the lookup (not the fill): the spans must
// describe a real execution, EXPLAIN ANALYZE style.
func (s *Service) lookup(req Request, key cacheKey) *cacheEntry {
	if req.Trace {
		return nil
	}
	if entry, ok := s.cache.get(key); ok {
		s.cacheHits.Add(1)
		return entry
	}
	if s.cache != nil {
		s.cacheMisses.Add(1)
	}
	return nil
}

// shared runs one buffered execution per distinct cache key at a time,
// under the client's fairness slot: the first request becomes the
// leader and executes; identical concurrent requests — buffered queries
// and sorted streams alike — wait for the leader's entry instead of
// executing again (singleflight). The reported bool is true for
// followers.
//
// A follower inherits the leader's outcome, with one exception: if the
// leader died of its own context (client disconnect, shorter deadline)
// while the follower's is still live, the failure says nothing about
// the follower, so it retries. The flight is gone by then, so a retry
// elects a new leader — possibly the follower itself — executing under
// its own deadline.
func (s *Service) shared(ctx context.Context, req Request, t *execTarget, key cacheKey) (*cacheEntry, bool, error) {
	if err := s.acquireClient(req.Client); err != nil {
		return nil, false, err
	}
	defer s.releaseClient(req.Client)
	for attempt := 0; ; attempt++ {
		s.flightMu.Lock()
		f, ok := s.flights[key]
		if !ok {
			f = &flight{done: make(chan struct{})}
			s.flights[key] = f
			s.flightMu.Unlock()
			f.entry, f.err = s.execute(ctx, req, t, key)
			// Order matters for the at-most-one-execution guarantee: the
			// entry is cached before the flight is removed, so a request
			// arriving after the flight is gone finds the cache filled.
			// Partial results (some shard member missing) are never
			// cached — the member may be back for the very next request.
			if f.err == nil && len(f.entry.warnings) == 0 && s.generation() == key.commits {
				s.cache.put(f.entry)
			}
			s.flightMu.Lock()
			delete(s.flights, key)
			s.flightMu.Unlock()
			close(f.done)
			return f.entry, false, f.err
		}
		s.flightMu.Unlock()
		s.coalesced.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, true, s.abort(ctx.Err(), "cancelled while awaiting identical in-flight query")
		}
		if f.err != nil && ctx.Err() == nil && attempt < 3 &&
			(errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
			continue
		}
		return f.entry, true, f.err
	}
}

// execute drains one run into a cache entry. Local rows arrive in
// production order and are put into the canonical order
// (engine.RowLess); the shard merge already yields it.
func (s *Service) execute(ctx context.Context, req Request, t *execTarget, key cacheKey) (*cacheEntry, error) {
	rows := [][]string{} // an empty result still renders as "rows": []
	out, err := s.run(ctx, req, t, 0,
		func([]string) error { return nil },
		func(chunk [][]string) error {
			rows = append(rows, chunk...)
			return nil
		})
	if err != nil {
		return nil, err
	}
	res := &engine.Result{Columns: out.columns, Rows: rows, Stats: out.stats}
	if s.shards == nil {
		res.SortRows()
	}
	return &cacheEntry{key: key, result: res, kind: out.kind, bytes: approxResultBytes(res), trace: out.trace, warnings: out.warns}, nil
}

// runOutcome is what one run reports besides its rows.
type runOutcome struct {
	columns []string
	kind    string
	stats   engine.ExecStats
	warns   []ShardWarning
	trace   *obs.SpanNode
}

// run is the one admitted execution behind every response form:
// admission, the active gauge, the deadline, the execution count, the
// query trace, and the accounting of how the execution ended all happen
// here. The executor — the local engine, or the shard backend on a
// coordinator — calls header once with the result header, then rows with
// each chunk it produces; a positive limit is pushed down into it. An error from either callback stops the execution and is
// returned as is: a sink failure means the client went away. The
// outcome is returned alongside any error once execution has begun, so
// an aborted run still reports the work it did.
func (s *Service) run(ctx context.Context, req Request, t *execTarget, limit int, header func([]string) error, rows func([][]string) error) (*runOutcome, error) {
	start := time.Now()
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	defer func() { <-s.sem }()
	s.active.Add(1)
	defer s.active.Add(-1)

	execCtx, cancel := context.WithTimeout(ctx, s.timeout(req))
	defer cancel()

	s.executions.Add(1)
	// Every execution is traced — spans are a handful of timed nodes, so
	// the slow-query log always has the breakdown, not just when a
	// client thought to ask for one.
	tr := obs.NewTrace("query")
	out := &runOutcome{}
	sinkFailed := false
	exec := s.execLocal
	if s.shards != nil {
		exec = s.execSharded
	}
	err := exec(obs.WithSpan(execCtx, tr.Root()), req, t, limit, out,
		func(cols []string) error {
			out.columns = cols
			err := header(cols)
			sinkFailed = err != nil
			return err
		},
		func(chunk [][]string) error {
			err := rows(chunk)
			sinkFailed = err != nil
			return err
		})
	tr.Root().End()
	out.trace = tr.Tree()
	switch {
	case err == nil:
	case sinkFailed:
		s.canceled.Add(1)
	case execCtx.Err() != nil:
		err = s.abort(execCtx.Err(), fmt.Sprintf("query aborted after %s", time.Since(start).Round(time.Millisecond)))
	default:
		s.errors.Add(1)
	}
	return out, err
}

// execLocal is the local executor: the engine cursor, limit pushed down,
// handing over its chunks — the first row alone, then whatever
// accumulated up to a scan-unit boundary or a full chunk.
func (s *Service) execLocal(ctx context.Context, req Request, t *execTarget, limit int, out *runOutcome, header func([]string) error, rows func([][]string) error) error {
	var (
		cur *aiql.Cursor
		err error
	)
	if t.stmt != nil {
		cur, err = t.stmt.ExecCursor(ctx, t.params, aiql.CursorOptions{Limit: limit})
	} else {
		cur, err = s.db.QueryCursor(ctx, t.query, aiql.CursorOptions{Limit: limit})
	}
	if err != nil {
		return err
	}
	out.kind = cur.Kind()
	err = header(cur.Columns())
	for err == nil {
		chunk := cur.NextChunk()
		if chunk == nil {
			err = cur.Err()
			break
		}
		err = rows(chunk)
	}
	// Close blocks until in-flight scans observe the abort, so the
	// statistics are final whether the run completed, failed, or was
	// abandoned by its sink.
	cur.Close()
	out.stats = cur.Stats()
	return err
}

// execSharded is the coordinator's executor: the shard backend's merge
// stream, limit pushed down to every member.
func (s *Service) execSharded(ctx context.Context, req Request, t *execTarget, limit int, out *runOutcome, header func([]string) error, rows func([][]string) error) error {
	sq, err := s.shardQuery(req, t)
	if err != nil {
		return err
	}
	sq.Limit = limit
	out.kind = sq.Kind
	out.stats, out.warns, err = s.shards.RunStream(ctx, sq, header, rows)
	return err
}

// shardQuery resolves a request to the form the shard backend fans
// out: template text plus raw bindings (members compile against their
// own stores), with the header and kind known from planning. Inline
// text without bindings is compiled here against the planning database
// so query errors surface as parse/semantic failures at the
// coordinator, never as member execution errors.
func (s *Service) shardQuery(req Request, t *execTarget) (ShardQuery, error) {
	stmt := t.stmt
	if stmt == nil {
		var err error
		if stmt, err = s.db.Prepare(t.query); err != nil {
			return ShardQuery{}, err
		}
	}
	return ShardQuery{
		Query:      stmt.Source(),
		Params:     t.params,
		Columns:    stmt.Columns(),
		Kind:       stmt.Kind(),
		Distinct:   stmt.Distinct(),
		Client:     req.Client,
		RequireAll: req.RequireAll,
	}, nil
}

func (s *Service) timeout(req Request) time.Duration {
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	} else if timeout > maxTimeout {
		timeout = maxTimeout
	}
	return timeout
}

// retryAfter derives the Retry-After hint (whole seconds) from live
// queue pressure: an idle queue suggests an immediate 1s retry, a full
// queue the whole QueueWait, scaling linearly between — so a fleet of
// shed clients spreads its retries proportionally to how far behind the
// service actually is instead of stampeding back after a fixed second.
func (s *Service) retryAfter() int {
	depth := s.queued.Load()
	if depth < 0 {
		depth = 0
	}
	secs := int((time.Duration(depth)*s.cfg.QueueWait/time.Duration(s.cfg.QueueDepth) + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// shed wraps a rejection with the queue-derived backoff hint the HTTP
// layer turns into the Retry-After header.
func (s *Service) shed(err error) error {
	return &retryHintError{err: err, after: s.retryAfter()}
}

// acquireClient reserves one of the client's concurrent execution slots.
func (s *Service) acquireClient(client string) error {
	if client == "" || s.cfg.ClientInflight < 0 {
		return nil
	}
	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	if s.clients[client] >= s.cfg.ClientInflight {
		s.throttled.Add(1)
		return s.shed(ErrClientThrottled)
	}
	s.clients[client]++
	return nil
}

func (s *Service) releaseClient(client string) {
	if client == "" || s.cfg.ClientInflight < 0 {
		return
	}
	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	if s.clients[client]--; s.clients[client] <= 0 {
		delete(s.clients, client)
	}
}

// admit acquires a worker slot, queueing up to cfg.QueueDepth waiters for
// at most cfg.QueueWait.
func (s *Service) admit(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	// all workers busy: join the bounded queue
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.rejected.Add(1)
		return s.shed(ErrOverloaded)
	}
	defer s.queued.Add(-1)
	wait := time.NewTimer(s.cfg.QueueWait)
	defer wait.Stop()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		// the client's own deadline or disconnect ended the wait —
		// the service did not shed it, so it is not a rejection
		return s.abort(ctx.Err(), "cancelled while queued")
	case <-wait.C:
		s.rejected.Add(1)
		return s.shed(ErrOverloaded)
	}
}

// abort accounts for a query its context ended and wraps the cause. An
// expired deadline is a timeout; a cancelled parent means the client
// went away — they are counted apart so stats don't suggest tuning
// timeouts against disconnects.
func (s *Service) abort(ctxErr error, what string) error {
	if errors.Is(ctxErr, context.Canceled) {
		s.canceled.Add(1)
	} else {
		s.timeouts.Add(1)
	}
	return fmt.Errorf("service: %s: %w", what, ctxErr)
}

// shape builds the per-request response view over a (possibly shared)
// cache entry, slicing the requested page without mutating the entry.
func (s *Service) shape(entry *cacheEntry, req Request, start time.Time, cached bool, offset int) *Response {
	limit := req.Limit
	if limit <= 0 || limit > maxRows {
		limit = maxRows
	}
	rows := entry.result.Rows
	total := len(rows)
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total {
		end = total
	}
	next := ""
	// Partial results never paginate: the entry is not cached, so a
	// follow-up page would re-execute under different member
	// availability and silently splice two different results.
	if end < total && len(entry.warnings) == 0 {
		next = encodeCursorToken(hashQuery(entry.key.query), entry.key.commits, end)
	}
	return &Response{
		Columns:    entry.result.Columns,
		Rows:       rows[offset:end],
		TotalRows:  total,
		Offset:     offset,
		NextCursor: next,
		Duration:   time.Since(start),
		Cached:     cached,
		Kind:       entry.kind,
		Stats:      entry.result.Stats,
		Trace:      entry.trace,
		Partial:    len(entry.warnings) > 0,
		Warnings:   entry.warnings,
	}
}

// observe feeds the per-query instruments with one request's outcome:
// the latency histogram (every request), the scanned-events counter
// (fresh executions only — cache hits and coalesced followers re-report
// the leader's work and must not re-count it), and the slow-query log.
func (s *Service) observe(req Request, target *execTarget, start time.Time, resp *Response, err error) {
	dur := time.Since(start)
	s.mDuration.Observe(dur.Seconds())

	var scanned int64
	rows, cached := 0, false
	var spans []obs.SpanSummary
	kind := target.kind
	if resp != nil {
		scanned, rows, cached = resp.Stats.ScannedEvents, resp.TotalRows, resp.Cached
		if !cached && scanned > 0 {
			s.mScanned.Add(uint64(scanned))
			s.scannedEvents.Add(uint64(scanned))
		}
		spans = obs.TopSpans(resp.Trace, 5)
		if resp.Kind != "" {
			kind = resp.Kind
		}
	}
	if s.slow == nil {
		return
	}
	qtxt := target.query
	if target.stmt != nil {
		qtxt = target.stmt.Source()
	}
	e := obs.SlowEntry{
		Time:          start,
		Dataset:       s.cfg.Dataset,
		Kind:          kind,
		Query:         normalizeQuery(qtxt),
		DurationMS:    float64(dur) / float64(time.Millisecond),
		Rows:          rows,
		ScannedEvents: scanned,
		Cached:        cached,
		Spans:         spans,
	}
	if len(target.params) > 0 {
		// fingerprint, not values: binding values may be sensitive
		e.Bindings = fmt.Sprintf("%016x", hashQuery(target.keyQuery))
	}
	if err != nil {
		e.Error = err.Error()
	}
	s.slow.Record(e)
}

// DoStream executes one query as a row stream: header receives the
// column header (with a flag for cache service) before any row, then
// row receives each projected row as the execution produces it — first
// rows arrive while later partitions are still being scanned. A
// positive limit is pushed down into the execution, so a small-limit
// stream terminates the scan early instead of draining the store; a
// zero limit streams the entire result with parallel partition scans —
// memory stays bounded either way, so maxRows does not apply to
// streams. Cancelling ctx (a client disconnect) aborts the scan
// mid-flight, as does an error from either callback. Rows arrive in
// production order (canonical order with Request.Sorted, or from a
// coordinator's merge) and an unsorted stream is neither cached nor
// coalesced — interactive repeats belong on Do. Explain does not apply.
// The returned Response reports the rows actually streamed in
// TotalRows; an execution cut short by its sink still returns it,
// alongside the error, with the statistics of the work done.
func (s *Service) DoStream(ctx context.Context, req Request, header func(cols []string, cached bool) error, row func([]string) error) (*Response, error) {
	// delivered corrects TotalRows when the sink fails mid-chunk: the
	// chunked path counts whole chunks only.
	delivered := 0
	resp, err := s.DoStreamChunks(ctx, req, header, func(chunk [][]string) error {
		for _, r := range chunk {
			if err := row(r); err != nil {
				return err
			}
			delivered++
		}
		return nil
	})
	if resp != nil {
		resp.TotalRows = delivered
	}
	return resp, err
}

// DoStreamChunks is DoStream handing rows over in the chunks the
// execution produced them in: the first row on its own, so it is never
// held back, then whatever accumulated up to a scan-unit boundary, a
// full chunk, or a merge waiting on a shard member. A sink that writes
// to a connection does one write and one flush per chunk instead of per
// row. The rows are the callback's to keep; the chunk slice holding them
// is valid only during the call.
func (s *Service) DoStreamChunks(ctx context.Context, req Request, header func(cols []string, cached bool) error, rows func(chunk [][]string) error) (*Response, error) {
	req.Explain = false
	return s.serve(req, func(t *execTarget, start time.Time) (*Response, error) {
		key := cacheKey{query: t.keyQuery, commits: s.generation()}
		if entry := s.lookup(req, key); entry != nil {
			return s.walk(entry, true, req.Limit, start, header, rows)
		}
		// A sorted stream is the buffered execution walked in order; the
		// limit truncates the walk, not the execution, so a repeat with a
		// larger limit is a cache hit. A coordinator's merge stream is
		// already in that order.
		if req.Sorted && s.shards == nil {
			entry, coalesced, err := s.shared(ctx, req, t, key)
			if err != nil {
				return nil, err
			}
			return s.walk(entry, coalesced, req.Limit, start, header, rows)
		}
		if err := s.acquireClient(req.Client); err != nil {
			return nil, err
		}
		defer s.releaseClient(req.Client)
		sent := 0
		out, err := s.run(ctx, req, t, max(req.Limit, 0),
			func(cols []string) error { return header(cols, false) },
			s.deliver(rows, &sent))
		if out == nil {
			return nil, err
		}
		return &Response{
			Columns:   out.columns,
			TotalRows: sent,
			Duration:  time.Since(start),
			Kind:      out.kind,
			Stats:     out.stats,
			Trace:     out.trace,
			Partial:   len(out.warns) > 0,
			Warnings:  out.warns,
		}, err
	})
}

// streamChunkRows is how many rows of an already materialized result (a
// cache hit, a sorted stream) go to the sink at a time; it matches the
// engine cursor's chunk size so a sink sees the same shape either way.
const streamChunkRows = 256

// walk streams a materialized entry — a cache hit, or the buffered
// execution behind a sorted stream — to a stream's sink: the header,
// then the rows up to a positive limit, the first alone and then
// streamChunkRows at a time.
func (s *Service) walk(entry *cacheEntry, cached bool, limit int, start time.Time, header func([]string, bool) error, rows func([][]string) error) (*Response, error) {
	resp := &Response{
		Columns:  entry.result.Columns,
		Cached:   cached,
		Kind:     entry.kind,
		Stats:    entry.result.Stats,
		Trace:    entry.trace,
		Partial:  len(entry.warnings) > 0,
		Warnings: entry.warnings,
	}
	all := entry.result.Rows
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	err := header(resp.Columns, cached)
	sink := s.deliver(rows, &resp.TotalRows)
	for n := 1; err == nil && resp.TotalRows < len(all); n = streamChunkRows {
		err = sink(all[resp.TotalRows:min(resp.TotalRows+n, len(all))])
	}
	if err != nil {
		s.canceled.Add(1) // a sink failure means the client went away
	}
	resp.Duration = time.Since(start)
	return resp, err
}

// deliver wraps a stream's chunk sink to count the rows it accepts, in
// sent and in the service's RowsStreamed.
func (s *Service) deliver(rows func([][]string) error, sent *int) func([][]string) error {
	return func(chunk [][]string) error {
		if err := rows(chunk); err != nil {
			return err
		}
		*sent += len(chunk)
		s.rowsStreamed.Add(uint64(len(chunk)))
		return nil
	}
}
