// Command aiqlserver serves the versioned JSON query API over a catalog
// of datasets, and at / the AIQL web UI (paper §3, Figure 3), a static
// page whose script is a client of that same API. Every dataset
// owns its own store (LSM-style memtable + sealed segments), engine,
// segment scan cache, and service layer (bounded worker pool with
// admission control and per-client fairness, per-query deadlines,
// singleflight collapsing, byte-bounded result cache), so one process
// serves many independent investigations concurrently. Datasets
// hot-swap atomically without failing in-flight queries.
//
// Usage:
//
//	aiqlserver -data ./store -addr :8080 -compact 30s
//	aiqlserver -datasets "prod=./prod,staging=./staging" -default prod
//	aiqlserver -shards shards.json -shard-timeout 10s
//
// Every dataset path names a durable store directory (segment files +
// MANIFEST + WAL, crash-recovered on open; aiqlgen writes one), created
// if absent. -data serves one as the dataset "default", and -compact
// runs each dataset's background segment compactor.
//
// -shards declares sharded datasets from a partition-map JSON file:
// each member is a local store directory or a remote aiqlserver peer
// reached over the NDJSON stream API; this process becomes the
// coordinator that scatters queries to the members the partition map
// admits and merge-sorts their row streams (see the README's "Sharded
// deployment" section for the format and the partial-results contract).
//
// API:
//
//	POST /api/v1/prepare               {"query": "proc p[$exe] ... return p", "dataset": "..."} → {stmt_id, params}
//	POST /api/v1/query                 {"query" | "stmt_id", "params": {...}, "dataset": "...", "limit": 100, "cursor": "...", "timeout_ms": 5000, "explain": false}
//	POST /api/v1/query/stream          {"query" | "stmt_id", "params": {...}, "dataset": "...", "limit": 100, "timeout_ms": 5000}  (NDJSON)
//	POST /api/v1/check                 {"query": "..."}
//	GET  /api/v1/stats?dataset=name
//	GET  /api/v1/datasets
//	POST /api/v1/datasets/{name}/load  {"path": "optional/store/dir"}
//	POST /api/v1/ingest?dataset=name   NDJSON event records → {ingested, new_matches, ...}
//	POST /api/v1/watch                 {"query": "...", "params": {...}, "dataset": "..."} → {watch_id, ...}
//	GET  /api/v1/watch?dataset=name    registered standing queries
//	DELETE /api/v1/watch/{id}?dataset=name
//	GET  /api/v1/watch/{id}/events?dataset=name   SSE stream of fresh matches
//	GET  /api/v1/healthz?dataset=name  readiness/liveness (store open, WAL lock held, store generation)
//	GET  /api/v1/queries/slow          slow-query log (threshold via -slow-query-ms)
//	GET  /metrics                      Prometheus text exposition
//
// -ops-addr adds a second listener with /metrics and /debug/pprof, and
// "trace": true on a query request returns the execution's span tree.
//
// Every failure carries a stable machine-readable code (parse_error,
// unknown_param, stmt_not_found, overloaded, ...) plus line/col for
// query-text errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/aiql/aiql/internal/catalog"
	"github.com/aiql/aiql/internal/experiments"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/service"
	"github.com/aiql/aiql/internal/shard"
	"github.com/aiql/aiql/internal/webui"

	aiql "github.com/aiql/aiql"
)

// shutdownGrace is how long in-flight requests get to finish after a
// termination signal before their connections are closed.
const shutdownGrace = 10 * time.Second

// fatal logs the error through the structured logger and exits.
func fatal(args ...any) {
	slog.Error(fmt.Sprint(args...))
	os.Exit(1)
}

func fatalf(format string, args ...any) {
	slog.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

func main() {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	var (
		data       = flag.String("data", "", "durable store directory served as dataset \"default\" (crash-recovered via MANIFEST + WAL; created if absent); empty = built-in demo dataset (unless -datasets is given)")
		datasets   = flag.String("datasets", "", "comma-separated name=dir dataset list of durable store directories (created if absent), e.g. \"prod=./prod,staging=./staging\"")
		defName    = flag.String("default", "", "default dataset name (default: first registered)")
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "max concurrent query executions per dataset (0 = GOMAXPROCS)")
		cacheBytes = flag.Int64("cache-bytes", 0, "result cache byte budget per dataset (0 = 64 MiB)")
		scanCache  = flag.Int64("scan-cache-bytes", 0, "segment scan cache byte budget per dataset (0 = 64 MiB, negative disables)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-query execution timeout")
		compact    = flag.Duration("compact", 0, "background segment-compaction interval per dataset (0 disables), e.g. 30s")
		ingestMax  = flag.Int64("ingest-max-bytes", 0, "max ingest request body bytes (0 = 8 MiB)")
		blockCache = flag.Int64("block-cache-bytes", 0, "decompressed-block cache byte budget per dataset (0 = 32 MiB, negative disables)")
		shards     = flag.String("shards", "", "partition-map JSON declaring sharded datasets; each member is a local store dir or a remote peer URL (see README \"Sharded deployment\")")
		shardTO    = flag.Duration("shard-timeout", 30*time.Second, "per-member execution timeout for sharded queries")
		shardRetry = flag.Int("shard-retries", 2, "transport retries per remote member before it counts as unavailable (negative disables)")
		shardProbe = flag.Duration("shard-probe", 15*time.Second, "remote member health/epoch probe interval (0 disables background probes)")
		opsAddr    = flag.String("ops-addr", "", "optional separate listen address for the ops surface (/metrics + /debug/pprof); empty serves /metrics on -addr only")
		slowMS     = flag.Int64("slow-query-ms", 500, "slow-query log threshold in milliseconds (0 logs every query, negative disables the log)")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		b := obs.Build()
		fmt.Printf("aiqlserver %s (%s)\n", b.Version, b.GoVersion)
		return
	}

	metrics := obs.NewRegistry()
	obs.RegisterRuntimeCollector(metrics)
	slowLog := obs.NewSlowLog(*slowMS)

	cat := catalog.New(catalog.Config{
		Service: service.Config{
			Workers:        *workers,
			MaxCacheBytes:  *cacheBytes,
			DefaultTimeout: *timeout,
			IngestMaxBytes: *ingestMax,
		},
		ScanCacheBytes:  *scanCache,
		CompactInterval: *compact,
		BlockCacheBytes: *blockCache,
		Metrics:         metrics,
		SlowLog:         slowLog,
	})

	if *datasets != "" {
		for _, pair := range strings.Split(*datasets, ",") {
			name, path, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || name == "" || path == "" {
				fatalf("bad -datasets entry %q, want name=dir", pair)
			}
			if _, err := cat.AddDir(name, path); err != nil {
				fatal(err)
			}
		}
	}
	if *shards != "" {
		cfg, err := shard.LoadConfig(*shards)
		if err != nil {
			fatal(err)
		}
		for _, spec := range cfg.Datasets {
			if _, err := cat.AddSharded(spec, catalog.ShardOptions{
				ShardTimeout:  *shardTO,
				Retries:       *shardRetry,
				ProbeInterval: *shardProbe,
			}); err != nil {
				fatal(err)
			}
			slog.Info("sharded dataset registered", "dataset", spec.Dataset, "members", len(spec.Members))
		}
	}
	if *data != "" {
		if _, err := cat.AddDir("default", *data); err != nil {
			fatal(err)
		}
	}
	if len(cat.Names()) == 0 {
		fmt.Fprintln(os.Stderr, "no -data or -datasets given; generating the built-in demo dataset (50k events, demo-apt scenario)")
		db := aiql.FromStore(experiments.BuildStore(experiments.Fig4Dataset(50000, 10, 42)))
		db.Flush() // seal the generated data so segment reuse applies immediately
		if _, err := cat.AddDB("demo", db); err != nil {
			fatal(err)
		}
	}
	if *defName != "" {
		if err := cat.SetDefault(*defName); err != nil {
			fatal(err)
		}
	}

	mux := http.NewServeMux()
	mux.Handle("/api/v1/", cat.Handler())
	mux.Handle("/metrics", metrics.Handler())
	mux.Handle("/", webui.Handler())

	if *opsAddr != "" {
		// The ops surface gets its own listener so profiling and
		// scraping stay reachable (and access-controllable) apart from
		// the query API, and pprof is never exposed on the public port.
		ops := http.NewServeMux()
		ops.Handle("/metrics", metrics.Handler())
		ops.HandleFunc("/debug/pprof/", pprof.Index)
		ops.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		ops.HandleFunc("/debug/pprof/profile", pprof.Profile)
		ops.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		ops.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			slog.Info("ops listener up", "addr", *opsAddr)
			if err := http.ListenAndServe(*opsAddr, ops); err != nil {
				fatal(err)
			}
		}()
	}

	for _, name := range cat.Names() {
		d, err := cat.Get(name)
		if err != nil {
			fatal(err)
		}
		st := d.Service().DatasetStats(name)
		slog.Info("dataset loaded", "dataset", name,
			"events", st.Store.Events, "chunks", st.Store.Partitions,
			"sealed_segments", st.Store.Segments,
			"default", name == cat.DefaultName())
	}
	slog.Info("serving", "datasets", len(cat.Names()), "addr", *addr,
		"version", obs.Build().Version, "slow_query_ms", slowLog.ThresholdMS())

	// SIGINT/SIGTERM: stop accepting, give in-flight requests a grace
	// period (open SSE streams are cut when it expires), then close the
	// catalog so every store flushes its WAL state and releases its
	// directory lock before the process exits.
	srv := &http.Server{Addr: *addr, Handler: obs.AccessLog(logger, mux)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		cat.Close()
		fatal(err)
	case <-ctx.Done():
	}
	slog.Info("shutting down")
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(grace); err != nil {
		srv.Close()
	}
	if err := cat.Close(); err != nil {
		fatal(err)
	}
}
