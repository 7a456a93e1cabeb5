package catalog

import (
	"fmt"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/service"
	"github.com/aiql/aiql/internal/shard"
	"github.com/aiql/aiql/internal/shard/client"
)

// ShardOptions tune every sharded dataset the catalog creates.
type ShardOptions struct {
	// ShardTimeout bounds each member's execution of one query.
	// Default: 30s.
	ShardTimeout time.Duration
	// Retries is the per-member transport retry budget (connect/5xx,
	// before any row). Default: 2. Negative disables retries.
	Retries int
	// ProbeInterval is how often remote members are health-probed for
	// liveness and epoch changes — the bound on how stale a
	// coordinator's result cache can be against remote writes. 0
	// disables background probes.
	ProbeInterval time.Duration
}

// AddSharded registers a sharded dataset from its partition map: local
// members open from their directories with the catalog's storage
// configuration (shared scan pool, scan/block cache budgets), remote
// members are reached through NDJSON stream clients, and a coordinator
// plus sharded service front the set. The first dataset registered
// becomes the default. The planning database behind the service is an
// empty in-memory store — it compiles and validates; members execute.
func (c *Catalog) AddSharded(spec shard.DatasetSpec, opts ShardOptions) (*Dataset, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if opts.ShardTimeout <= 0 {
		opts.ShardTimeout = 30 * time.Second
	}
	var members []shard.Member
	fail := func(err error) (*Dataset, error) {
		for _, m := range members {
			m.Source.Close()
		}
		return nil, err
	}
	for _, m := range spec.Members {
		b, err := m.Bounds()
		if err != nil {
			return fail(fmt.Errorf("catalog: %w", err))
		}
		var src shard.Source
		if m.Dir != "" {
			db, err := c.openDir(m.Dir)
			if err != nil {
				return fail(fmt.Errorf("catalog: shard member %q: %w", m.Name, err))
			}
			if c.cfg.ScanCacheBytes > 0 {
				db.EnableSegmentScanCache(c.cfg.ScanCacheBytes)
			}
			db.SetScanPool(c.scanPool)
			if c.cfg.CompactInterval > 0 {
				db.StartCompactor(c.cfg.CompactInterval)
			}
			src = shard.NewLocalSource(db)
		} else {
			cl, err := client.New(m.URL, client.Options{
				Dataset:  m.Dataset,
				Timeout:  opts.ShardTimeout,
				Retries:  opts.Retries,
				ClientID: "aiql-shard-coordinator",
			})
			if err != nil {
				return fail(fmt.Errorf("catalog: shard member %q: %w", m.Name, err))
			}
			src = cl
		}
		members = append(members, shard.Member{Name: m.Name, Source: src, Remote: m.URL != "", Bounds: b})
	}
	coord := shard.NewCoordinator(spec.Dataset, members, shard.Options{
		ShardTimeout:  opts.ShardTimeout,
		ProbeInterval: opts.ProbeInterval,
	})
	svcCfg := c.cfg.Service
	svcCfg.Dataset = spec.Dataset
	svcCfg.Metrics = c.cfg.Metrics
	svcCfg.SlowLog = c.cfg.SlowLog
	d := &Dataset{name: spec.Dataset, svc: service.NewSharded(aiql.Open(), coord, svcCfg)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sets[spec.Dataset]; ok {
		coord.Close()
		return nil, fmt.Errorf("catalog: dataset %q already registered", spec.Dataset)
	}
	c.install(d)
	return d, nil
}
