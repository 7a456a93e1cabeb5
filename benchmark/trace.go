package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/service"
)

// The traced pass. It records the benchmark's own spans around the
// public entry points of each layer and reads the program's counters;
// nothing inside the program is instrumented by it.
//
// Query ops and ingest batches go round-robin to three depths:
//
//	depth 0  the HTTP handler            (catalog → service → engine)
//	depth 1  service.Do/DoStream/Ingest  (service → engine)
//	depth 2  aiql.DB.Prepare + Exec / AppendAll, or the shard
//	         coordinator's Run on the sharded dataset (engine only)
//
// A layer's self time is the median at its depth minus the median one
// depth down. Depth-0 and depth-1 queries also ask for the program's
// own span tree (the public "trace" request flag), which splits the
// engine's time into parse, plan, scan, join and aggregate and, on the
// sharded dataset, into its members.

// span is one timed region. Spans of one op share Op; Parent is the ID
// of the enclosing span, 0 at the top.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxSpanOps bounds the span file: spans are kept for the first this
// many ops; the timings of every op still enter the metrics.
const maxSpanOps = 1500

// depthCycle is how many consecutive ops of one client share a depth.
// It is a multiple of both template counts (45 and 6), so each depth
// sees every template equally often.
const depthCycle = 90

type tracer struct {
	srv     *server
	sharded bool
	epoch   time.Time
	cycle   int

	mu     sync.Mutex
	spans  []span
	nextID int
	ops    int
	// stmts holds the depth-2 statements of prepared-statement ops, the
	// engine-level counterpart of the service's statement registry.
	stmts map[*template]*aiql.Stmt

	queryUS   [3]sample // per-op latency by depth
	prepareUS sample    // depth 2
	execUS    sample    // depth 2
	ingestUS  [3]sample // per-batch latency by depth

	// from the program's span trees (depth 0 and 1)
	parseUS, planUS, scanUS, joinUS, aggUS, poolWaitUS sample
	memberMaxUS, memberSumUS, coordSelfUS              sample
	treeRows, treeBindings                             float64
}

func (t *tracer) depthOf(seq int) int { return (seq / t.cycle) % 3 }

// record stores a benchmark span and returns its ID (0 once the span
// budget is used up).
func (t *tracer) record(parent, op int, name string, start, end time.Time) int {
	if op > maxSpanOps {
		return 0
	}
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Op: op, Name: name,
		StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch))})
	return t.nextID
}

// fold hangs the program's span tree under the benchmark span parent.
// The tree's offsets are relative to its own root, whose position
// inside the enclosing span is unknown, so the root is anchored at the
// enclosing span's start: durations are exact, offsets approximate.
func (t *tracer) fold(parent, op int, anchor time.Time, n *obs.SpanNode) {
	if n == nil || op > maxSpanOps {
		return
	}
	start := anchor.Add(time.Duration(n.StartUS) * time.Microsecond)
	id := t.record(parent, op, layerName(n.Name), start, start.Add(time.Duration(n.DurationUS)*time.Microsecond))
	for _, c := range n.Children {
		t.fold(id, op, anchor, c)
	}
}

// layerName prefixes a program span with the layer it belongs to.
func layerName(name string) string {
	switch {
	case name == "query":
		return "service.do"
	case name == "parse":
		return "aiql.parse"
	case strings.HasPrefix(name, "shard:"):
		return "shard.member " + strings.TrimPrefix(name, "shard:")
	default:
		return "engine." + name
	}
}

// digest adds one program span tree to the per-layer samples.
func (t *tracer) digest(root *obs.SpanNode, rows int) {
	if root == nil {
		return
	}
	var parse, plan, scan, join, agg, wait, memberMax, memberSum int64
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		switch {
		case n.Name == "parse":
			parse += n.DurationUS
		case n.Name == "plan":
			plan += n.DurationUS
		case n.Name == "aggregate":
			agg += n.DurationUS
		case strings.HasPrefix(n.Name, "scan "):
			scan += n.DurationUS
			wait += n.Attrs["pool_wait_us"]
			t.treeBindings += float64(n.Attrs["bindings"] + n.Attrs["events_matched"])
		case strings.HasPrefix(n.Name, "join "):
			join += n.DurationUS
		case strings.HasPrefix(n.Name, "shard:"):
			memberSum += n.DurationUS
			memberMax = max(memberMax, n.DurationUS)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	t.treeRows += float64(rows)
	t.parseUS = append(t.parseUS, float64(parse))
	t.planUS = append(t.planUS, float64(plan))
	t.scanUS = append(t.scanUS, float64(scan))
	t.joinUS = append(t.joinUS, float64(join))
	t.aggUS = append(t.aggUS, float64(agg))
	t.poolWaitUS = append(t.poolWaitUS, float64(wait))
	if t.sharded {
		t.memberMaxUS = append(t.memberMaxUS, float64(memberMax))
		t.memberSumUS = append(t.memberSumUS, float64(memberSum))
		t.coordSelfUS = append(t.coordSelfUS, float64(root.DurationUS-memberMax))
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// exec runs o at the depth its sequence number selects.
func (t *tracer) exec(ctx context.Context, c *client, o *op, seq int, dataset string) outcome {
	depth := t.depthOf(seq)
	var out outcome
	var prepared time.Time
	switch depth {
	case 0:
		out = c.query(ctx, o, t.sharded)
	case 1:
		out = t.viaService(ctx, c, o, dataset)
	default:
		out, prepared = t.viaEngine(ctx, o, dataset)
	}
	if out.err != nil {
		return out
	}
	end := out.start.Add(out.total)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.queryUS[depth] = append(t.queryUS[depth], us(out.total))
	switch depth {
	case 0:
		id := t.record(0, t.ops, "catalog.serve_http", out.start, end)
		t.fold(id, t.ops, out.start, out.trace)
		t.digest(out.trace, out.rows)
	case 1:
		t.fold(0, t.ops, out.start, out.trace)
		t.digest(out.trace, out.rows)
	default:
		if o.inline {
			t.prepareUS = append(t.prepareUS, us(prepared.Sub(out.start)))
		}
		t.execUS = append(t.execUS, us(end.Sub(prepared)))
		id := t.record(0, t.ops, "aiql.db", out.start, end)
		t.record(id, t.ops, "engine.prepare", out.start, prepared)
		t.record(id, t.ops, "engine.exec", prepared, end)
	}
	return out
}

// countCheck is the deeper depths' correctness check: the row count
// against the reference (depth 0 compares every row).
func countCheck(o *op, rows, total int) error {
	if !o.verify {
		return nil
	}
	want := len(o.ref)
	if total >= 0 && total != want {
		return fmt.Errorf("%s: %d rows in total, reference has %d", o.tmpl.label, total, want)
	}
	if o.tmpl.limit > 0 {
		want = min(want, o.tmpl.limit)
	}
	if !o.tmpl.stream {
		want = min(want, bufferedMaxRows)
	}
	if rows != want {
		return fmt.Errorf("%s: %d rows, reference has %d", o.tmpl.label, rows, want)
	}
	return nil
}

func (t *tracer) viaService(ctx context.Context, c *client, o *op, dataset string) outcome {
	svc, err := t.srv.Resolve(dataset)
	if err != nil {
		return outcome{err: err}
	}
	req := service.Request{Limit: o.tmpl.limit, Client: c.id, Trace: true}
	if o.inline {
		req.Query = o.text()
	} else {
		req.StmtID, req.Params = o.stmtID, o.params
	}
	out := outcome{start: time.Now()}
	var resp *service.Response
	total := -1
	if o.tmpl.stream {
		resp, err = svc.DoStream(ctx, req,
			func([]string, bool) error { return nil },
			func([]string) error { out.rows++; return nil })
	} else if resp, err = svc.Do(ctx, req); err == nil {
		out.rows, total = len(resp.Rows), resp.TotalRows
	}
	out.total = time.Since(out.start)
	out.firstRow = out.total
	if err != nil {
		out.err = fmt.Errorf("%s: %w", o.tmpl.label, err)
		return out
	}
	out.trace = resp.Trace
	out.err = countCheck(o, out.rows, total)
	return out
}

func (t *tracer) viaEngine(ctx context.Context, o *op, dataset string) (outcome, time.Time) {
	svc, err := t.srv.Resolve(dataset)
	if err != nil {
		return outcome{err: err}, time.Time{}
	}
	text, params := o.tmpl.text, aiql.Params(o.params)
	if o.inline {
		text, params = o.text(), nil
	}
	out := outcome{start: time.Now()}
	stmt, err := t.prepare(svc.DB(), o, text)
	prepared := time.Now()
	total := -1
	switch {
	case err != nil:
	case t.sharded:
		var res *aiql.Result
		var warns []service.ShardWarning
		res, warns, err = t.srv.coord.Run(ctx, service.ShardQuery{Query: text, Params: params,
			Columns: stmt.Columns(), Kind: stmt.Kind(), Limit: o.tmpl.limit})
		if err == nil && len(warns) > 0 {
			err = fmt.Errorf("partial result: %v", warns)
		}
		if err == nil {
			out.rows = len(res.Rows)
		}
	case o.tmpl.stream:
		var cur *aiql.Cursor
		if cur, err = stmt.ExecCursor(ctx, params, aiql.CursorOptions{Limit: o.tmpl.limit}); err == nil {
			for cur.Next() {
				out.rows++
			}
			err = cur.Err()
			cur.Close()
		}
	default:
		var res *aiql.Result
		if res, err = stmt.Exec(ctx, params); err == nil {
			total = len(res.Rows)
			out.rows = min(total, bufferedMaxRows)
		}
	}
	out.total = time.Since(out.start)
	out.firstRow = out.total
	if err != nil {
		out.err = fmt.Errorf("%s: %w", o.tmpl.label, err)
		return out, prepared
	}
	out.err = countCheck(o, out.rows, total)
	return out, prepared
}

// prepare compiles text, once per template for prepared-statement ops
// (as a client holding a statement handle would) and every time for
// literal-text ops.
func (t *tracer) prepare(db *aiql.DB, o *op, text string) (*aiql.Stmt, error) {
	if o.inline {
		return db.Prepare(text)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.stmts[o.tmpl]; ok {
		return st, nil
	}
	st, err := db.Prepare(text)
	if err == nil {
		if t.stmts == nil {
			t.stmts = map[*template]*aiql.Stmt{}
		}
		t.stmts[o.tmpl] = st
	}
	return st, err
}

// ingestRun is collector.run for the traced pass: the same schedule,
// batch i at depth i mod 3, the last batch through the handler so that every
// standing query has evaluated every commit when it returns.
func (t *tracer) ingestRun(ctx context.Context, col *collector, start time.Time, from, to int) {
	svc, err := t.srv.Resolve(col.dataset)
	if err != nil {
		return
	}
	var cp capture
	interval := time.Duration(0)
	if col.feed.col.rate > 0 {
		interval = time.Second / time.Duration(col.feed.col.rate)
	}
	for i := from; i < to && ctx.Err() == nil; i++ {
		if due := start.Add(time.Duration(i-from) * interval); interval > 0 {
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
		}
		depth := i % 3
		if i == to-1 {
			depth = 0
		}
		t0 := time.Now()
		col.due[i] = int64(t0.Sub(col.epoch))
		col.sent[i] = col.due[i]
		switch depth {
		case 0:
			col.errs[i] = col.ingest(ctx, &cp, i)
		case 1:
			_, col.errs[i] = svc.Ingest(ctx, "bench-collector", col.feed.records[i])
		default:
			col.errs[i] = svc.DB().AppendAll(col.feed.records[i])
		}
		t1 := time.Now()
		col.acked[i] = int64(t1.Sub(col.epoch))
		if col.errs[i] != nil {
			continue
		}
		t.mu.Lock()
		t.ops++
		t.ingestUS[depth] = append(t.ingestUS[depth], us(t1.Sub(t0)))
		t.record(0, t.ops, [...]string{"catalog.serve_http ingest", "service.ingest", "aiql.append_all"}[depth], t0, t1)
		t.mu.Unlock()
	}
}

// counters is one reading of the program's own statistics for the
// queried dataset (q) and the collection dataset (e).
type counters struct {
	q, e service.DatasetStats
	mem  runtime.MemStats
}

// read takes GET /api/v1/stats for both datasets. The members of the
// sharded dataset sit behind the coordinator, whose stats blob reports
// an empty planning store, so their storage and cache figures are read
// from the member databases and summed into it.
func (s *server) read(ctx context.Context, queried string) (counters, error) {
	var c counters
	var err error
	if c.q, err = s.stats(ctx, queried); err != nil {
		return c, err
	}
	if c.e, err = s.stats(ctx, dsEdge); err != nil {
		return c, err
	}
	if queried == dsSharded {
		for _, db := range s.memberDBs {
			sc, st, seg, du, all := db.ScanCacheStats(), db.StorageStats(), db.SegmentStats(), db.DurableStats(), db.Stats()
			c.q.ScanCache.Hits += sc.Hits
			c.q.ScanCache.Misses += sc.Misses
			c.q.ScanCache.Bytes += sc.Bytes
			c.q.Storage.MappedBytes += st.MappedBytes
			c.q.Storage.HeapBytes += st.HeapBytes
			c.q.Storage.BlockCache.Hits += st.BlockCache.Hits
			c.q.Storage.BlockCache.Misses += st.BlockCache.Misses
			c.q.Storage.BlockCache.Evictions += st.BlockCache.Evictions
			c.q.Store.Segments += seg.Segments
			c.q.Store.MemtableEvents += seg.MemtableEvents
			c.q.Store.Events += all.Events
			c.q.Durable.SegmentFiles += du.SegmentFiles
			c.q.Durable.SegmentFileBytes += du.SegmentFileBytes
			c.q.Durable.ManifestEdition += du.ManifestEdition
		}
		c.q.Scan = s.memberDBs[0].ScanPoolStats()
	}
	runtime.ReadMemStats(&c.mem)
	return c, nil
}

// layers is everything the traced pass measured, ready to be named.
type layers struct {
	tr            *tracer
	before, after counters  // around the untraced window
	untraced      observed  // the untraced window's queries
	batches       int       // ingest batches in the untraced window
	batchEvents   float64   // events per ingest batch
	feedA         collected // the feed over the untraced window
	flush         time.Duration
	compact       time.Duration
	merged        int
	open          time.Duration
	peakHeap      uint64
}

func dU(a, b uint64) float64 { return float64(b - a) }

// metrics names every per-layer metric BENCHMARK.json declares. A layer
// the workload does not touch reads 0.
func (l *layers) metrics() map[string]float64 {
	t, b, a := l.tr, l.before, l.after
	queries := float64(len(l.untraced.totalMS))
	rows := float64(l.untraced.rows)
	med := func(s sample) float64 {
		if len(s) == 0 {
			return 0
		}
		return s.median()
	}
	diff := func(hi, lo sample) float64 {
		if len(hi) == 0 || len(lo) == 0 {
			return 0
		}
		return hi.median() - lo.median()
	}
	perBatch := l.batchEvents
	m := map[string]float64{
		"aiql.parse_us": med(t.parseUS),

		"engine.prepare_us":             med(t.prepareUS),
		"engine.plan_us":                med(t.planUS),
		"engine.exec_us":                med(t.execUS),
		"engine.scan_us":                med(t.scanUS),
		"engine.join_us":                med(t.joinUS),
		"engine.aggregate_us":           med(t.aggUS),
		"engine.pool_wait_us":           med(t.poolWaitUS),
		"engine.scanned_events_per_row": ratio(dU(b.q.Service.ScannedEvents, a.q.Service.ScannedEvents), rows),
		"engine.bindings_per_row":       ratio(t.treeBindings, t.treeRows),
		"engine.scan_cache_hit_ratio": ratio(dU(b.q.ScanCache.Hits, a.q.ScanCache.Hits),
			dU(b.q.ScanCache.Hits, a.q.ScanCache.Hits)+dU(b.q.ScanCache.Misses, a.q.ScanCache.Misses)),
		"engine.scan_cache_bytes": float64(a.q.ScanCache.Bytes),

		"eventstore.append_us_per_event": med(t.ingestUS[2]) / perBatch,
		"eventstore.block_cache_hit_ratio": ratio(dU(b.q.Storage.BlockCache.Hits, a.q.Storage.BlockCache.Hits),
			dU(b.q.Storage.BlockCache.Hits, a.q.Storage.BlockCache.Hits)+dU(b.q.Storage.BlockCache.Misses, a.q.Storage.BlockCache.Misses)),
		"eventstore.block_cache_evictions":         dU(b.q.Storage.BlockCache.Evictions, a.q.Storage.BlockCache.Evictions),
		"eventstore.blocks_decompressed_per_query": ratio(dU(b.q.Storage.BlockCache.Misses, a.q.Storage.BlockCache.Misses), queries),
		"eventstore.segments":                      float64(a.q.Store.Segments),
		"eventstore.memtable_events":               float64(a.q.Store.MemtableEvents),
		"eventstore.heap_bytes":                    float64(a.q.Storage.HeapBytes),
		"eventstore.mapped_bytes":                  float64(a.q.Storage.MappedBytes),
		"eventstore.compact_ms":                    ms(l.compact),
		"eventstore.compact_events_merged":         float64(l.merged),
		"eventstore.open_ms":                       ms(l.open),

		"durable.wal_syncs_per_batch":          ratio(dU(b.e.Durable.WALSyncs, a.e.Durable.WALSyncs), dU(b.e.Ingest.Requests, a.e.Ingest.Requests)),
		"durable.flush_ms":                     ms(l.flush),
		"durable.segment_file_bytes_per_event": ratio(float64(a.q.Durable.SegmentFileBytes), float64(a.q.Store.Events)),
		"durable.segment_files":                float64(a.q.Durable.SegmentFiles),
		"durable.manifest_edition":             float64(a.q.Durable.ManifestEdition),

		"service.query_self_us": diff(t.queryUS[1], t.queryUS[2]),
		"service.result_cache_hit_ratio": ratio(dU(b.q.Service.CacheHits, a.q.Service.CacheHits),
			dU(b.q.Service.CacheHits, a.q.Service.CacheHits)+dU(b.q.Service.CacheMisses, a.q.Service.CacheMisses)),
		"service.prepared_hit_ratio": ratio(dU(b.q.Prepared.Hits, a.q.Prepared.Hits),
			dU(b.q.Prepared.Hits, a.q.Prepared.Hits)+dU(b.q.Prepared.Misses, a.q.Prepared.Misses)),
		"service.coalesced":                  dU(b.q.Service.Coalesced, a.q.Service.Coalesced),
		"service.rejected":                   dU(b.q.Service.Rejected, a.q.Service.Rejected) + dU(b.e.Ingest.Rejected, a.e.Ingest.Rejected),
		"service.throttled":                  dU(b.q.Service.Throttled, a.q.Service.Throttled),
		"service.timeouts":                   dU(b.q.Service.Timeouts, a.q.Service.Timeouts),
		"service.ingest_self_us_per_batch":   diff(t.ingestUS[1], t.ingestUS[2]),
		"service.ingest_ack_p95_ms":          l.feedA.ackMS.p95(),
		"service.watch_lag_p95_ms":           l.feedA.lagMS.p95(),
		"service.watch_evals":                dU(b.e.Watch.Evals, a.e.Watch.Evals),
		"service.watch_matches":              dU(b.e.Watch.Matches, a.e.Watch.Matches),
		"service.watch_dropped":              dU(b.e.Watch.Dropped, a.e.Watch.Dropped),
		"catalog.http_self_us":               diff(t.queryUS[0], t.queryUS[1]),
		"catalog.response_bytes_per_row":     ratio(float64(l.untraced.bytes), rows),
		"catalog.ingest_decode_us_per_event": diff(t.ingestUS[0], t.ingestUS[1]) / perBatch,

		"shard.coord_self_us": med(t.coordSelfUS),
		"shard.member_us_max": med(t.memberMaxUS),
		"shard.member_us_sum": med(t.memberSumUS),

		"workpool.tasks_per_query": ratio(dU(b.q.Scan.Tasks, a.q.Scan.Tasks), queries),
		"workpool.saturated_ratio": ratio(dU(b.q.Scan.Saturated, a.q.Scan.Saturated),
			dU(b.q.Scan.Saturated, a.q.Scan.Saturated)+dU(b.q.Scan.Tasks, a.q.Scan.Tasks)),

		"obs.trace_overhead_ratio": ratio(med(t.queryUS[0]), 1000*med(l.untraced.totalMS)),

		"process.alloc_bytes_per_op": ratio(dU(b.mem.TotalAlloc, a.mem.TotalAlloc), queries+float64(l.batches)),
		"process.gc_pause_ms":        dU(b.mem.PauseTotalNs, a.mem.PauseTotalNs) / 1e6,
		"process.peak_heap_mb":       float64(l.peakHeap) / (1 << 20),
	}
	var fan, pruned, shipped, errs, retries float64
	if a.q.Shards != nil && b.q.Shards != nil {
		for i, am := range a.q.Shards.Members {
			bm := b.q.Shards.Members[i]
			fan += dU(bm.Fanouts, am.Fanouts)
			pruned += dU(bm.Pruned, am.Pruned)
			shipped += dU(bm.Rows, am.Rows)
			errs += dU(bm.Errors, am.Errors)
			retries += dU(bm.Retries, am.Retries)
		}
		m["shard.partial"] = dU(b.q.Shards.Partial, a.q.Shards.Partial)
		m["shard.fanouts_per_query"] = ratio(fan, dU(b.q.Shards.Queries, a.q.Shards.Queries))
	} else {
		m["shard.partial"], m["shard.fanouts_per_query"] = 0, 0
	}
	m["shard.pruned_ratio"] = ratio(pruned, pruned+fan)
	m["shard.rows_shipped_per_row_returned"] = ratio(shipped, rows)
	m["shard.errors"], m["shard.retries"] = errs, retries
	return m
}

// writeSpans writes the span file of one workload.
func (t *tracer) writeSpans(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+workload+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced is the second pass over a serving workload: an untraced window
// for the counters (the result cache, which a traced request bypasses,
// among them), then a traced window at the three depths.
func (r *run) traced(ctx context.Context, p plan, spanDir string) (map[string]float64, error) {
	untracedFor := r.window * 2 / 5
	tracedFor := r.window - untracedFor
	warm := p.col.batches(r.sz.warmup)
	phaseA := warm + p.col.batches(untracedFor)
	total := phaseA + p.col.batches(tracedFor)
	fd, err := newFeed(r.seed+2, r.sz.hosts, p.col, total, false)
	if err != nil {
		return nil, err
	}
	in, err := r.prepare(ctx, p, 1)
	if err != nil {
		return nil, err
	}
	st, pool := in.st, in.pool

	l := &layers{compact: st.compact, merged: st.merged, batchEvents: float64(fd.events) / float64(total)}
	t0 := time.Now()
	srv, err := r.serve(st)
	if err != nil {
		return nil, err
	}
	l.open = time.Since(t0)
	defer func() { srv.close() }()
	if err := srv.bind(ctx, pool, p.queried, false); err != nil {
		return nil, err
	}
	col, err := newCollector(ctx, srv, dsEdge, fd, r.sz.hosts)
	if err != nil {
		return nil, err
	}
	defer col.stop()

	// Untraced window: the same traffic as the first pass.
	scheds := r.schedules(p, pool)
	start := time.Now()
	from := start.Add(r.sz.warmup)
	alongside(func() { col.run(ctx, start, 0, warm) }, func() {
		r.queryWindow(ctx, srv, p, scheds, from, from, nil) // warm-up only
	})
	if l.before, err = srv.read(ctx, p.queried); err != nil {
		return nil, err
	}
	alongside(func() { col.run(ctx, from, warm, phaseA) }, func() {
		l.untraced = r.queryWindow(ctx, srv, p, scheds, from, from.Add(untracedFor), nil)
	})
	if l.after, err = srv.read(ctx, p.queried); err != nil {
		return nil, err
	}
	l.batches = phaseA - warm
	l.peakHeap = max(l.before.mem.HeapInuse, l.after.mem.HeapInuse)

	// Traced window.
	tr := &tracer{srv: srv, sharded: p.queried == dsSharded, epoch: time.Now(), cycle: depthCycle}
	l.tr = tr
	if err := srv.bind(ctx, pool, p.queried, true); err != nil {
		return nil, err
	}
	tstart := time.Now()
	alongside(func() { tr.ingestRun(ctx, col, tstart, phaseA, total) }, func() {
		r.queryWindow(ctx, srv, p, scheds, tstart, tstart.Add(tracedFor),
			func(c *client, o *op, seq int) outcome { return tr.exec(ctx, c, o, seq, p.queried) })
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.finishFeed(ctx, col, 0, total)
	l.feedA = col.measure(warm, phaseA)

	edge, err := srv.cat.Get(dsEdge)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	if err := edge.Service().DB().Flush(); err != nil {
		return nil, err
	}
	l.flush = time.Since(t0)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	l.peakHeap = max(l.peakHeap, mem.HeapInuse)

	if err := tr.writeSpans(spanDir, r.workload); err != nil {
		return nil, err
	}
	return l.metrics(), nil
}

// tracedBulk is the second pass over bulk_load: one ordinary round
// with the counters read around it, then one round with ingest batches
// and cold queries at the three depths.
func (r *run) tracedBulk(ctx context.Context, spanDir string) (map[string]float64, error) {
	fd, err := r.bulkFeed()
	if err != nil {
		return nil, err
	}
	pool, err := r.bulkPool(ctx, fd)
	if err != nil {
		return nil, err
	}
	l := &layers{batchEvents: float64(fd.events) / float64(len(fd.bodies))}
	br, err := r.bulkRound(ctx, fd, pool, 0, nil, l)
	if err != nil {
		return nil, err
	}
	l.flush, l.compact, l.merged = br.flush, br.compact, br.merged
	l.untraced, l.batches, l.feedA = br.cold, br.got.batches, br.got
	// a third of the cold queries at each depth
	l.tr = &tracer{epoch: time.Now(), cycle: max(len(pool)/3, 1)}
	if _, err := r.bulkRound(ctx, fd, pool, 1, l.tr, nil); err != nil {
		return nil, err
	}
	if err := l.tr.writeSpans(spanDir, r.workload); err != nil {
		return nil, err
	}
	return l.metrics(), nil
}
