package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	aiql "github.com/aiql/aiql"
)

// bulkWatches is how many standing queries watch a backfill.
const bulkWatches = 4

// bulkRound is what one load → seal → compact → query → reopen cycle measured.
type bulkRound struct {
	got            collected
	eventsPerS     float64
	bytesPerEvent  float64
	flush, compact time.Duration
	merged         int
	cold           observed
	coldElapsed    time.Duration
	reopenMS       sample
}

// bulkLoad runs the bulk_load workload: rounds of loading one
// enterprise day back to back into an empty durable dataset, until the
// window is used up and at least sz.bulkRounds times (the final seal's
// time varies from round to round; throughput is the rounds' median).
func (r *run) bulkLoad(ctx context.Context) (map[string]float64, error) {
	// All the set-up this workload has is producing its input.
	var setupS sample
	var fd *feed
	for i := 0; i < r.sz.setups; i++ {
		t0 := time.Now()
		var err error
		if fd, err = r.bulkFeed(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	pool, err := r.bulkPool(ctx, fd)
	if err != nil {
		return nil, err
	}

	var rounds []bulkRound
	for start := time.Now(); len(rounds) < r.sz.bulkRounds || time.Since(start) < r.window; {
		br, err := r.bulkRound(ctx, fd, pool, len(rounds), nil, nil)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, br)
	}

	var (
		ack, lag, late, total, first, reopenMS sample
		perS, bytesPer                         sample
		queries                                int
		coldTime                               time.Duration
	)
	for _, br := range rounds {
		ack = append(ack, br.got.ackMS...)
		lag = append(lag, br.got.lagMS...)
		late = append(late, br.got.lateMS...)
		total = append(total, br.cold.totalMS...)
		first = append(first, br.cold.firstRowMS...)
		reopenMS = append(reopenMS, br.reopenMS...)
		perS = append(perS, br.eventsPerS)
		bytesPer = append(bytesPer, br.bytesPerEvent)
		queries += len(br.cold.totalMS)
		coldTime += br.coldElapsed
	}
	fmt.Fprintf(r.log, "validity: bulk_load seed %d: %d rounds of %d events, %d acks (supports %s), %d cold queries (supports %s), %d reopens\n",
		r.seed, len(rounds), fd.events, len(ack), highestSupported(len(ack)), len(total), highestSupported(len(total)), len(reopenMS))
	return map[string]float64{
		"setup_s":              setupS.median(),
		"query_p50_ms":         r.pct(total, 0.50, "query"),
		"query_p90_ms":         r.pct(total, 0.90, "query"),
		"queries_per_s":        float64(queries) / coldTime.Seconds(),
		"first_row_p50_ms":     r.pct(first, 0.50, "first row"),
		"ingest_events_per_s":  perS.median(),
		"ingest_ack_p50_ms":    r.pct(ack, 0.50, "ingest ack"),
		"watch_lag_p50_ms":     r.pct(lag, 0.50, "watch lag"),
		"reopen_p50_ms":        r.pct(reopenMS, 0.50, "reopen"),
		"disk_bytes_per_event": bytesPer.median(),
	}, nil
}

// bulkRound loads the feed into a new empty dataset and takes it
// through seal, compaction, the crash-copy check, one pass of cold
// queries and the reopen cycle. The traced pass sets one of tr, which
// routes ops by depth, and l, which receives the program's counters
// from before the load and after the queries.
func (r *run) bulkRound(ctx context.Context, fd *feed, pool []*op, round int, tr *tracer, l *layers) (bulkRound, error) {
	var br bulkRound
	dir := filepath.Join(r.root, fmt.Sprintf("bulk-%d", round))
	defer os.RemoveAll(dir)
	dirs := map[string]string{dsEdge: dir}
	srv, err := r.sz.serve(dirs, nil)
	if err != nil {
		return br, err
	}
	defer func() { srv.close() }()
	if tr != nil {
		tr.srv = srv
	}
	if l != nil {
		if l.before, err = srv.read(ctx, dsEdge); err != nil {
			return br, err
		}
	}
	col, err := newCollector(ctx, srv, dsEdge, fd, r.sz.hosts)
	if err != nil {
		return br, err
	}
	defer col.stop()

	n := len(fd.bodies)
	t0 := time.Now()
	if tr != nil {
		tr.ingestRun(ctx, col, t0, 0, n)
	} else {
		col.run(ctx, t0, 0, n)
	}
	if err := ctx.Err(); err != nil {
		return br, err
	}
	loaded := time.Since(t0)

	// What a crash right after the last acknowledgement leaves on disk
	// must reopen with every acknowledged event.
	crash := dir + "-crash"
	defer os.RemoveAll(crash)
	r.attempted++
	if err := copyDir(dir, crash); err != nil {
		return br, err
	}
	if n, err := r.eventsIn(crash); err != nil {
		r.fail(fmt.Errorf("crash copy: %w", err))
	} else if n != fd.events {
		r.fail(fmt.Errorf("crash copy holds %d events, %d were acknowledged", n, fd.events))
	}

	db := srv.dbs[0]
	t1 := time.Now()
	if err := db.Flush(); err != nil {
		return br, fmt.Errorf("flush: %w", err)
	}
	br.flush = time.Since(t1)
	t1 = time.Now()
	cr := db.Compact()
	br.compact, br.merged = time.Since(t1), cr.EventsMerged
	br.eventsPerS = float64(fd.events) / (loaded + br.flush).Seconds()
	size, err := dirBytes(dir)
	if err != nil {
		return br, err
	}
	br.bytesPerEvent = float64(size) / float64(fd.events)

	br.got = r.finishFeed(ctx, col, 0, n)

	// One pass of investigation queries over the store just loaded:
	// every cache cold, every op new.
	if err := srv.bind(ctx, pool, dsEdge, tr != nil); err != nil {
		return br, err
	}
	c := &client{id: "bench-client-0", srv: srv}
	t1 = time.Now()
	for seq, o := range pool {
		var out outcome
		if tr != nil {
			out = tr.exec(ctx, c, o, seq, dsEdge)
		} else {
			out = c.query(ctx, o, false)
		}
		r.attempted++
		if out.err != nil {
			r.fail(out.err)
			continue
		}
		br.cold.totalMS = append(br.cold.totalMS, ms(out.total))
		br.cold.firstRowMS = append(br.cold.firstRowMS, ms(out.firstRow))
		br.cold.rows += out.rows
		br.cold.bytes += out.bytes
	}
	br.coldElapsed = time.Since(t1)
	if l != nil {
		if l.after, err = srv.read(ctx, dsEdge); err != nil {
			return br, err
		}
		l.peakHeap = max(l.before.mem.HeapInuse, l.after.mem.HeapInuse)
	}

	srv, br.reopenMS, err = r.reopen(ctx, srv, func() (*server, error) { return r.sz.serve(dirs, nil) }, dsEdge, pool[0]) // pool[0] is a1-1 with the paper's bindings, literal text
	if err != nil {
		return br, err
	}
	r.attempted++
	if n, err := srv.stats(ctx, dsEdge); err != nil {
		r.fail(err)
	} else if n.Store.Events != fd.events {
		r.fail(fmt.Errorf("reopened store holds %d events, %d were loaded", n.Store.Events, fd.events))
	}
	if l != nil {
		if err := srv.close(); err != nil {
			return br, err
		}
		t1 = time.Now()
		if srv, err = r.sz.serve(dirs, nil); err != nil {
			return br, err
		}
		l.open = time.Since(t1)
	}
	return br, nil
}

// eventsIn opens the store directory dir and counts its events.
func (r *run) eventsIn(dir string) (int, error) {
	db, err := r.sz.openStore(dir)
	if err != nil {
		return 0, err
	}
	n := db.Len()
	return n, db.Close()
}

// bulkFeed generates the day bulk_load loads, as back-to-back batches.
func (r *run) bulkFeed() (*feed, error) {
	col := collection{rate: 0, batchEvents: r.sz.bulkBatch, watches: bulkWatches}
	return newFeed(r.seed, r.sz.hosts, col, r.sz.bulkEvents/r.sz.bulkBatch, true)
}

// bulkPool returns the cold queries with their references over the
// events of fd.
func (r *run) bulkPool(ctx context.Context, fd *feed) ([]*op, error) {
	var all []aiql.Record
	for _, b := range fd.records {
		all = append(all, b...)
	}
	pool := investigatePool(rand.New(rand.NewSource(r.seed)), investigateTemplates(), r.sz.coldOps, r.sz.hosts)
	ref, err := newReference(all)
	if err != nil {
		return nil, err
	}
	return pool, ref.fill(ctx, pool)
}
