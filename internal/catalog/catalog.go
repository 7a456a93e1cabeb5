// Package catalog maps dataset names to independent AIQL databases so
// one server process serves many investigations concurrently. Every
// dataset owns its own store, engine, segment scan cache, and service
// layer (worker pool, result cache, statistics) — noisy traffic against
// one investigation never evicts another's caches or skews its
// counters.
//
// Datasets hot-swap atomically: loading a store directory builds a
// completely new store + service off to the side and then swaps the
// catalog entry under the lock. In-flight queries keep the service (and
// therefore the store snapshot) they started with and finish normally;
// only new requests resolve to the swapped-in dataset.
package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/service"
	"github.com/aiql/aiql/internal/workpool"
)

// DefaultScanCacheBytes is the per-dataset segment scan cache budget
// when the catalog config leaves it zero.
const DefaultScanCacheBytes = 64 << 20

// Config shapes every dataset the catalog creates.
type Config struct {
	// Service sizes each dataset's service layer (workers, result
	// cache, timeouts). Zero values select the service defaults. Its
	// Workers also sizes the parallel-scan worker pool shared by every
	// dataset the catalog creates (a query's merging goroutine plus
	// Workers-1 pooled helpers, clamped to GOMAXPROCS), so total scan
	// CPU is governed in one place alongside the admission pool.
	Service service.Config
	// ScanCacheBytes budgets each dataset's segment scan cache; 0
	// selects DefaultScanCacheBytes, negative disables the cache.
	ScanCacheBytes int64
	// CompactInterval, when positive, runs each dataset's background
	// segment compactor at this period, merging chains of small sealed
	// segments (and re-pointing the scan cache) while the dataset
	// serves queries. Zero disables background compaction.
	CompactInterval time.Duration
	// BlockCacheBytes budgets each dataset's decompressed-block cache;
	// 0 selects the store default, negative disables it.
	BlockCacheBytes int64
	// Metrics, when set, receives every dataset's counters as one
	// scrape-time collector plus each service's per-query instruments.
	Metrics *obs.Registry
	// SlowLog, when set, is shared by every dataset's service; entries
	// carry the dataset name.
	SlowLog *obs.SlowLog
}

// Dataset is one named database with its service layer.
type Dataset struct {
	name string
	path string // store directory backing the dataset; empty for in-memory
	svc  *service.Service
}

// Name returns the dataset's catalog name.
func (d *Dataset) Name() string { return d.name }

// Path returns the store directory backing the dataset, if any.
func (d *Dataset) Path() string { return d.path }

// Service returns the dataset's service layer.
func (d *Dataset) Service() *service.Service { return d.svc }

// Catalog is a concurrency-safe registry of named datasets with atomic
// hot-swap. It implements service.Resolver.
type Catalog struct {
	cfg Config

	// scanPool is shared by every dataset (and survives hot-swaps), so
	// the process-wide scan-parallelism cap holds no matter how many
	// datasets are served.
	scanPool *workpool.Pool

	// loadMu serializes hot-swaps: two concurrent Loads of one dataset
	// would otherwise both close the old database and race two writers
	// (and two recoveries) onto the same durable directory.
	loadMu sync.Mutex

	mu          sync.RWMutex
	sets        map[string]*Dataset
	order       []string // registration order
	defaultName string
	closed      bool
}

// errClosed answers lookups on a closed catalog. It wraps aiql.ErrClosed,
// so the API reports it like a write racing a hot-swap: 503
// dataset_reloading.
var errClosed = fmt.Errorf("catalog: closed: %w", aiql.ErrClosed)

// New creates an empty catalog.
func New(cfg Config) *Catalog {
	if cfg.ScanCacheBytes == 0 {
		cfg.ScanCacheBytes = DefaultScanCacheBytes
	}
	// Scan helpers are CPU-bound, so a pool wider than the machine only
	// adds scheduling overhead: clamp to the cores available.
	workers := runtime.GOMAXPROCS(0)
	if w := cfg.Service.Workers; w > 0 {
		workers = min(w, workers)
	}
	c := &Catalog{
		cfg:      cfg,
		scanPool: workpool.New(workers - 1),
		sets:     make(map[string]*Dataset),
	}
	c.registerCollector(cfg.Metrics)
	return c
}

// openDir opens (creating if needed) a durable store directory with the
// catalog's block-cache budget applied.
func (c *Catalog) openDir(dir string) (*aiql.DB, error) {
	storage := aiql.DefaultStorage()
	storage.BlockCacheBytes = c.cfg.BlockCacheBytes
	storage.Dir = dir
	return aiql.OpenDirWithOptions(storage, aiql.EngineConfig{})
}

// requireStore refuses a path that holds no durable store (neither a
// manifest nor a write-ahead log), so a hot-swap to a mistyped path
// fails instead of opening — and serving — a new empty store there.
func requireStore(path string) error {
	for _, name := range []string{durable.ManifestName, durable.WALName} {
		if _, err := os.Stat(filepath.Join(path, name)); err == nil {
			return nil
		}
	}
	return fmt.Errorf("catalog: %s is not a durable store directory", path)
}

// newDataset wraps a database in a fresh service layer with the
// catalog's configuration, starting its background compactor when one
// is configured.
func (c *Catalog) newDataset(name, path string, db *aiql.DB) *Dataset {
	if c.cfg.ScanCacheBytes > 0 {
		db.EnableSegmentScanCache(c.cfg.ScanCacheBytes)
	}
	db.SetScanPool(c.scanPool)
	if c.cfg.CompactInterval > 0 {
		db.StartCompactor(c.cfg.CompactInterval)
	}
	svcCfg := c.cfg.Service
	svcCfg.Dataset = name
	svcCfg.Metrics = c.cfg.Metrics
	svcCfg.SlowLog = c.cfg.SlowLog
	return &Dataset{name: name, path: path, svc: service.New(db, svcCfg)}
}

// AddDB registers an in-memory database under name. The first dataset
// registered becomes the default.
func (c *Catalog) AddDB(name string, db *aiql.DB) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: dataset name must not be empty")
	}
	d := c.newDataset(name, "", db)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sets[name]; ok {
		return nil, fmt.Errorf("catalog: dataset %q already registered", name)
	}
	c.install(d)
	return d, nil
}

// AddDir opens (creating or crash-recovering if needed) a durable
// store directory and registers it under name. The first dataset
// registered becomes the default.
func (c *Catalog) AddDir(name, dir string) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: dataset name must not be empty")
	}
	db, err := c.openDir(dir)
	if err != nil {
		return nil, fmt.Errorf("catalog: open %q: %w", name, err)
	}
	d := c.newDataset(name, dir, db)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sets[name]; ok {
		return nil, fmt.Errorf("catalog: dataset %q already registered", name)
	}
	c.install(d)
	return d, nil
}

// install registers d; the caller holds the lock.
func (c *Catalog) install(d *Dataset) {
	if _, ok := c.sets[d.name]; !ok {
		c.order = append(c.order, d.name)
	}
	c.sets[d.name] = d
	if c.defaultName == "" {
		c.defaultName = d.name
	}
}

// SetDefault names the dataset the empty request selects.
func (c *Catalog) SetDefault(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sets[name]; !ok {
		return fmt.Errorf("%w: %q", service.ErrUnknownDataset, name)
	}
	c.defaultName = name
	return nil
}

// DefaultName returns the default dataset's name.
func (c *Catalog) DefaultName() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.defaultName
}

// Resolve implements service.Resolver: the empty name selects the
// default dataset. The returned service stays valid (and keeps serving
// its in-flight queries) even if the dataset is hot-swapped afterwards.
func (c *Catalog) Resolve(dataset string) (*service.Service, error) {
	d, err := c.Get(dataset)
	if err != nil {
		return nil, err
	}
	return d.svc, nil
}

// Get returns the dataset registered under name ("" = default).
func (c *Catalog) Get(name string) (*Dataset, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, errClosed
	}
	if name == "" {
		name = c.defaultName
	}
	d, ok := c.sets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", service.ErrUnknownDataset, name)
	}
	return d, nil
}

// Names returns the registered dataset names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, len(c.order))
	copy(out, c.order)
	sort.Strings(out)
	return out
}

// Load hot-swaps (or registers) the dataset name from an existing
// durable store directory: a brand-new store, engine, scan cache, and
// service are built from path with no catalog lock held, then the entry
// is swapped atomically. A path holding no store is refused and the
// dataset left untouched. In-flight queries on the
// old dataset finish on the snapshot they started with — including
// while the old dataset's compactor is mid-pass: the replaced database
// is closed first (in-flight compaction drained, further disk writes
// fenced, WAL released), so the directory has one writer at a time, and
// its in-memory snapshots stay readable until those queries finish. An
// empty path reloads the dataset's backing directory.
//
// Outstanding pagination cursors are deliberately not carried over: a
// cursor names a result generation of the replaced store, and serving
// its remaining pages would hand out rows from a dataset the operator
// just swapped away. Such requests answer 410 Gone (the cursor-expired
// contract) and the client re-issues the query against the new data.
//
// Prepared statements DO survive the swap: the new service re-prepares
// every statement the old registry held against the swapped-in
// database under its original stmt_id, so clients keep executing their
// handles across the reload (results now reflect the new data, exactly
// as an inline query would).
func (c *Catalog) Load(name, path string) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: dataset name must not be empty")
	}
	if path == "" {
		c.mu.RLock()
		d, registered := c.sets[name]
		if registered {
			path = d.path
		}
		c.mu.RUnlock()
		if !registered {
			return nil, fmt.Errorf("%w: %q (a path is required to register a new dataset)", service.ErrUnknownDataset, name)
		}
		if path == "" {
			return nil, fmt.Errorf("catalog: dataset %q has no backing directory; a path is required", name)
		}
	}
	if err := requireStore(path); err != nil {
		return nil, fmt.Errorf("catalog: load %q: %w", name, err)
	}
	c.loadMu.Lock()
	defer c.loadMu.Unlock()
	c.mu.RLock()
	old, closed := c.sets[name], c.closed
	c.mu.RUnlock()
	if closed {
		return nil, errClosed
	}
	if old != nil && old.svc.Sharded() {
		// A sharded dataset is a coordinator over member stores, not a
		// store directory; hot-swapping it under live fan-outs would strand the
		// members. Restart with a new partition map instead.
		return nil, fmt.Errorf("catalog: dataset %q is sharded and cannot be hot-swapped", name)
	}

	// When the reload targets the directory the old database is itself
	// writing, close the old one BEFORE opening the new: Close drains
	// any in-flight compaction pass, fences further disk writes, and
	// releases the directory flock, so the new store's recovery (orphan
	// cleanup included) sees a quiescent single-writer state. The old
	// dataset keeps serving queries from memory throughout. For any
	// other path the old database stays fully alive until the swap
	// lands, so a failed load leaves the dataset untouched.
	conflict := old != nil && old.svc.DB().DurableStats().Dir == path && path != ""
	if conflict {
		old.svc.DB().Close()
	}
	db, err := c.openDir(path)
	if err != nil {
		if conflict {
			// The old database's durability was already torn down; try
			// to reopen its directory so the dataset stays durable.
			if rdb, rerr := c.openDir(old.path); rerr == nil {
				d := c.newDataset(name, old.path, rdb)
				d.svc.AdoptPrepared(old.svc.PreparedSeeds())
				d.svc.AdoptWatches(old.svc.WatchSeeds())
				c.mu.Lock()
				c.install(d)
				c.mu.Unlock()
				return nil, fmt.Errorf("catalog: load %q: %w (previous dataset reopened)", name, err)
			}
			return nil, fmt.Errorf("catalog: load %q: %w (previous dataset now serves from memory only)", name, err)
		}
		return nil, fmt.Errorf("catalog: load %q: %w", name, err)
	}
	d := c.newDataset(name, path, db)
	if old != nil {
		d.svc.AdoptPrepared(old.svc.PreparedSeeds())
		d.svc.AdoptWatches(old.svc.WatchSeeds())
	}
	c.mu.Lock()
	c.install(d)
	c.mu.Unlock()
	if old != nil && !conflict {
		old.svc.DB().Close()
	}
	return d, nil
}

// Close shuts the catalog down: every dataset's service is closed — its
// database with compactor, WAL and directory lock, and for a sharded
// dataset the coordinator with its local members — so another process
// (or a later Open) can take the store directories over. Queries in
// flight finish on their pinned snapshots; afterwards Resolve and Load
// fail with aiql.ErrClosed. Close is idempotent and returns the first
// error met.
func (c *Catalog) Close() error {
	// Hold loadMu so no hot-swap reopens a directory mid-shutdown.
	c.loadMu.Lock()
	defer c.loadMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	sets := make([]*Dataset, 0, len(c.order))
	for _, name := range c.order {
		sets = append(sets, c.sets[name])
	}
	c.mu.Unlock()
	var first error
	for _, d := range sets {
		if err := d.svc.Close(); err != nil && first == nil {
			first = fmt.Errorf("catalog: close %q: %w", d.name, err)
		}
	}
	return first
}

// Stats returns every dataset's statistics blob, in sorted name order,
// with the default dataset marked.
func (c *Catalog) Stats() []service.DatasetStats {
	c.mu.RLock()
	names := make([]string, len(c.order))
	copy(names, c.order)
	def := c.defaultName
	sets := make([]*Dataset, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		sets = append(sets, c.sets[n])
	}
	c.mu.RUnlock()
	out := make([]service.DatasetStats, 0, len(sets))
	for _, d := range sets {
		st := d.svc.DatasetStats(d.name)
		st.Default = d.name == def
		out = append(out, st)
	}
	return out
}
