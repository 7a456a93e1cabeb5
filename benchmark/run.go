package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/datagen"
)

// workloads in the order `-workload all` runs them.
var workloadNames = []string{"investigate", "hunt", "live", "scatter", "bulk_load"}

// maxClients caps the load goroutines of any workload.
func maxClients() int { return min(runtime.NumCPU(), 4) }

// queryClients is how many closed-loop query clients the busiest
// workloads run: the load goroutines less one, which the feed's
// open-loop generator needs to stay on schedule.
func queryClients() int { return max(maxClients()-1, 1) }

// plan is what distinguishes one serving workload from another.
type plan struct {
	queried string     // dataset the query clients use
	clients int        // closed-loop query clients
	col     collection // the monitoring feed beside them
	repeats bool       // every fourth op repeats a recent one
	pool    func(r *run, rng *rand.Rand) []*op
}

func plans() map[string]plan {
	inv := func(r *run, rng *rand.Rand) []*op {
		return investigatePool(rng, investigateTemplates(), r.sz.pool, r.sz.hosts)
	}
	hunt := func(r *run, rng *rand.Rand) []*op {
		return huntPool(rng, huntTemplates(), r.sz.huntPool, r.sz.hosts, r.sz.huntVerify)
	}
	return map[string]plan{
		"investigate": {queried: dsCorp, clients: queryClients(), col: trickle, repeats: true, pool: inv},
		"hunt":        {queried: dsCorp, clients: 1, col: trickle, pool: hunt},
		"live":        {queried: dsEdge, clients: 1, col: firehose, repeats: true, pool: inv},
		"scatter": {queried: dsSharded, clients: min(queryClients(), 2), col: trickle, repeats: true,
			// seven investigation ops to three hunts
			pool: func(r *run, rng *rand.Rand) []*op {
				var hostLocal []*template
				for _, t := range investigateTemplates() {
					if !t.crossHost {
						hostLocal = append(hostLocal, t)
					}
				}
				a, b := investigatePool(rng, hostLocal, r.sz.pool, r.sz.hosts), hunt(r, rng)
				var out []*op
				for len(a) > 0 && len(b) > 0 {
					n := min(7, len(a))
					out = append(out, a[:n]...)
					a = a[n:]
					n = min(3, len(b))
					out = append(out, b[:n]...)
					b = b[n:]
				}
				return out
			}},
	}
}

// run is one invocation: one workload, one seed, one pass.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	sz       sizing
	root     string // scratch directory, removed on exit
	log      io.Writer
	began    time.Time

	attempted int
	failed    int
	firstErr  error
}

// fail counts one failed, refused, timed-out or wrong operation.
func (r *run) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
		fmt.Fprintf(r.log, "first failure: %v\n", err)
	}
}

// stage is one completed set-up: the store directories on disk and the
// events of the dataset the clients will query.
type stage struct {
	dirs    map[string]string // dataset name → directory, unsharded
	members []string          // member directories of dsSharded
	queried []aiql.Record
	compact time.Duration
	merged  int
}

func (s *stage) queriedDirs(p plan) []string {
	if p.queried == dsSharded {
		return s.members
	}
	return []string{s.dirs[p.queried]}
}

// setUp generates the workload's datasets and loads, seals and compacts
// them into new store directories under dir.
func (r *run) setUp(p plan, dir string) (*stage, error) {
	st := &stage{dirs: map[string]string{}}
	build := func(name string, recs []aiql.Record) (string, error) {
		d := filepath.Join(dir, name)
		c, m, err := r.sz.buildStore(d, recs)
		st.compact += c
		st.merged += m
		return d, err
	}
	implants := seedImplants(p.col.watches, r.sz.hosts)
	var err error
	if p.queried == dsEdge {
		st.queried = append(dayOne(r.seed, r.sz.hosts, r.sz.liveSeed), implants...)
		st.dirs[dsEdge], err = build(dsEdge, st.queried)
		return st, err
	}
	st.queried = dayOne(r.seed, r.sz.hosts, r.sz.corpEvents)
	// What collection has gathered so far today: two hours of
	// background, nobody queries it.
	edge := append(datagen.Generate(datagen.Config{Seed: r.seed + 1, Hosts: r.sz.hosts, Events: r.sz.edgeSeed,
		Duration: 2 * time.Hour}), implants...)
	if st.dirs[dsEdge], err = build(dsEdge, edge); err != nil {
		return nil, err
	}
	if p.queried == dsCorp {
		st.dirs[dsCorp], err = build(dsCorp, st.queried)
		return st, err
	}
	parts := make([][]aiql.Record, shardMembers)
	for _, rec := range st.queried {
		i := shardOf(rec.AgentID, shardMembers)
		parts[i] = append(parts[i], rec)
	}
	for i, part := range parts {
		d, err := build(fmt.Sprintf("%s-m%d", dsSharded, i), part)
		if err != nil {
			return nil, err
		}
		st.members = append(st.members, d)
	}
	return st, nil
}

// serve opens a stage's directories as a serving process would.
func (r *run) serve(st *stage) (*server, error) {
	return r.sz.serve(st.dirs, st.members)
}

// observed is what the query clients of one window measured.
type observed struct {
	totalMS, firstRowMS sample
	rows, bytes, cached int
}

// schedules gives each of p's clients its own stride of the pool. A
// schedule outlives one window, so a later window continues where the
// earlier one stopped instead of replaying ops the caches just saw.
func (r *run) schedules(p plan, pool []*op) []*schedule {
	out := make([]*schedule, p.clients)
	for ci := range out {
		out[ci] = &schedule{pool: pool, next: ci, stride: p.clients, repeats: p.repeats,
			rng: rand.New(rand.NewSource(r.seed*31 + int64(ci)))}
	}
	return out
}

// queryWindow runs one closed-loop client per schedule until end,
// keeping the ops that started at or after from. exec, when set, runs
// an op in place of the HTTP client (the traced pass).
func (r *run) queryWindow(ctx context.Context, srv *server, p plan, scheds []*schedule, from, end time.Time,
	exec func(c *client, o *op, seq int) outcome) observed {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all observed
	)
	for ci, sch := range scheds {
		wg.Add(1)
		go func(ci int, sch *schedule) {
			defer wg.Done()
			c := &client{id: fmt.Sprintf("bench-client-%d", ci), srv: srv}
			var mine observed
			var errs []error
			ops := 0
			for ctx.Err() == nil && time.Now().Before(end) {
				o := sch.take()
				seq := sch.issued
				var out outcome
				if exec != nil {
					out = exec(c, o, seq)
				} else {
					out = c.query(ctx, o, p.queried == dsSharded)
				}
				// A remote client is off the machine while it reads the
				// response; this one shares the server's cores, so it
				// yields between requests. Without the yield the feed's
				// generator waits for a preemption tick to get a core.
				runtime.Gosched()
				if out.start.Before(from) {
					continue
				}
				ops++
				if out.err != nil {
					errs = append(errs, out.err)
					continue
				}
				mine.totalMS = append(mine.totalMS, ms(out.total))
				mine.firstRowMS = append(mine.firstRowMS, ms(out.firstRow))
				mine.rows += out.rows
				mine.bytes += out.bytes
				if out.cached {
					mine.cached++
				}
			}
			mu.Lock()
			defer mu.Unlock()
			all.totalMS = append(all.totalMS, mine.totalMS...)
			all.firstRowMS = append(all.firstRowMS, mine.firstRowMS...)
			all.rows += mine.rows
			all.bytes += mine.bytes
			all.cached += mine.cached
			r.attempted += ops
			for _, err := range errs {
				r.fail(err)
			}
		}(ci, sch)
	}
	wg.Wait()
	return all
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reopen times close → open → first investigation query answered,
// r.sz.reopens times, leaving the last server open.
func (r *run) reopen(ctx context.Context, srv *server, open func() (*server, error), dataset string, probe *op) (*server, sample, error) {
	var times sample
	for i := 0; i < r.sz.reopens; i++ {
		if err := srv.close(); err != nil {
			return nil, nil, fmt.Errorf("close before reopen: %w", err)
		}
		// A restarted server begins with an empty heap; collect what the
		// previous repetition left so that no repetition pays for it.
		runtime.GC()
		t0 := time.Now()
		var err error
		if srv, err = open(); err != nil {
			return nil, nil, fmt.Errorf("reopen: %w", err)
		}
		if err := srv.bind(ctx, []*op{probe}, dataset, false); err != nil {
			return srv, nil, err
		}
		c := &client{id: "bench-reopen", srv: srv}
		out := c.query(ctx, probe, dataset == dsSharded)
		r.attempted++
		if out.err != nil {
			r.fail(fmt.Errorf("first query after reopen: %w", out.err))
			continue
		}
		times = append(times, ms(time.Since(t0)))
	}
	return srv, times, nil
}

// batches is how many batches the feed sends in d at its rate.
func (c collection) batches(d time.Duration) int {
	return int(d * time.Duration(c.rate) / time.Second)
}

// inputs is what a serving pass has in hand before it opens the server.
type inputs struct {
	st        *stage
	pool      []*op
	probe     *op    // the first query after every reopen
	setupS    sample // seconds per set-up
	events    int    // events in the queried dataset
	diskBytes int64  // bytes of its directories
}

// prepare sets the workload's datasets up (setups times, keeping the
// last) and computes the reference of every op that carries one.
func (r *run) prepare(ctx context.Context, p plan, setups int) (*inputs, error) {
	in := &inputs{probe: firstQuery()}
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		st, err := r.setUp(p, filepath.Join(r.root, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, err
		}
		in.setupS = append(in.setupS, time.Since(t0).Seconds())
		if i > 0 {
			// keep only the newest stage on disk
			if err := os.RemoveAll(filepath.Join(r.root, fmt.Sprintf("setup-%d", i-1))); err != nil {
				return nil, err
			}
		}
		in.st = st
	}
	for _, d := range in.st.queriedDirs(p) {
		n, err := dirBytes(d)
		if err != nil {
			return nil, err
		}
		in.diskBytes += n
	}
	in.pool = p.pool(r, rand.New(rand.NewSource(r.seed)))
	ref, err := newReference(in.st.queried)
	if err != nil {
		return nil, err
	}
	if err := ref.fill(ctx, append([]*op{in.probe}, in.pool...)); err != nil {
		return nil, err
	}
	// Only the reference hashes are needed from here on. Dropping the
	// reference engine and the generated events keeps the harness's
	// own heap, and with it the garbage collector's work, out of the
	// measured window.
	in.events = len(in.st.queried)
	ref, in.st.queried = nil, nil
	runtime.GC()
	return in, nil
}

// finishFeed closes a feed's books: it waits for outstanding matches,
// counts batches [from, to) and the end-state audit as operations, and
// disconnects the subscribers.
func (r *run) finishFeed(ctx context.Context, col *collector, from, to int) collected {
	col.settle(ctx)
	got := col.measure(from, to)
	r.attempted += got.batches + 1
	for i := 0; i < got.failed; i++ {
		r.fail(got.firstErr)
	}
	if err := col.audit(ctx); err != nil {
		r.fail(err)
	}
	col.stop()
	return got
}

// alongside runs the feed in the background while the query clients run
// and returns when both have finished.
func alongside(feed, queries func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		feed()
	}()
	queries()
	<-done
}

// serving runs one of the four workloads that query a served dataset
// while collection continues, and returns the end-to-end metrics.
func (r *run) serving(ctx context.Context, p plan) (map[string]float64, error) {
	warm := p.col.batches(r.sz.warmup)
	total := warm + p.col.batches(r.window)
	fd, err := newFeed(r.seed+2, r.sz.hosts, p.col, total, false)
	if err != nil {
		return nil, err
	}
	// Set up several times; the median is setup_s, the last one is used.
	in, err := r.prepare(ctx, p, r.sz.setups)
	if err != nil {
		return nil, err
	}
	prepared := time.Now()

	srv, err := r.serve(in.st)
	if err != nil {
		return nil, err
	}
	defer func() { srv.close() }()
	if err := srv.bind(ctx, in.pool, p.queried, false); err != nil {
		return nil, err
	}
	col, err := newCollector(ctx, srv, dsEdge, fd, r.sz.hosts)
	if err != nil {
		return nil, err
	}
	defer col.stop()

	start := time.Now()
	fmt.Fprintf(r.log, "timing: %d set-ups and references %.1f s, open %.2f s\n",
		r.sz.setups, prepared.Sub(r.began).Seconds(), start.Sub(prepared).Seconds())
	from := start.Add(r.sz.warmup)
	var obs observed
	alongside(func() { col.run(ctx, start, 0, total) }, func() {
		obs = r.queryWindow(ctx, srv, p, r.schedules(p, in.pool), from, from.Add(r.window), nil)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	got := r.finishFeed(ctx, col, warm, total)
	fd.bodies, fd.records = nil, nil

	srv, reopenMS, err := r.reopen(ctx, srv, func() (*server, error) { return r.serve(in.st) }, p.queried, in.probe)
	if err != nil {
		return nil, err
	}

	r.validity(obs, got, reopenMS)
	return map[string]float64{
		"setup_s":              in.setupS.median(),
		"query_p50_ms":         r.pct(obs.totalMS, 0.50, "query"),
		"query_p90_ms":         r.pct(obs.totalMS, 0.90, "query"),
		"queries_per_s":        float64(len(obs.totalMS)) / r.window.Seconds(),
		"first_row_p50_ms":     r.pct(obs.firstRowMS, 0.50, "first row"),
		"ingest_events_per_s":  float64(got.events) / got.elapsed.Seconds(),
		"ingest_ack_p50_ms":    r.pct(got.ackMS, 0.50, "ingest ack"),
		"watch_lag_p50_ms":     r.pct(got.lagMS, 0.50, "watch lag"),
		"reopen_p50_ms":        r.pct(reopenMS, 0.50, "reopen"),
		"disk_bytes_per_event": float64(in.diskBytes) / float64(in.events),
	}, nil
}

// pct returns the q-quantile of s. When the sample cannot support the
// percentile (fewer than ten samples beyond it) the value is still
// reported, since the driver needs a number, and the validity block
// says so.
func (r *run) pct(s sample, q float64, what string) float64 {
	if len(s) == 0 {
		fmt.Fprintf(r.log, "validity: %s: no samples\n", what)
		return 0
	}
	if q > 0.5 && !supports(len(s), q) {
		fmt.Fprintf(r.log, "validity: %s: %d samples do not support p%g (highest supported: %s)\n",
			what, len(s), q*100, highestSupported(len(s)))
	}
	return quantile(s.sorted(), q)
}

// validity prints what a reader needs to judge the numbers: sample
// counts, the percentiles they support, and how late the open-loop
// generator ran.
func (r *run) validity(obs observed, got collected, reopenMS sample) {
	fmt.Fprintf(r.log, "validity: %s seed %d: %d queries (supports %s), %d cached, %d rows, %d ingest batches (supports %s), %d reopens\n",
		r.workload, r.seed, len(obs.totalMS), highestSupported(len(obs.totalMS)), obs.cached, obs.rows,
		len(got.ackMS), highestSupported(len(got.ackMS)), len(reopenMS))
	if len(got.lateMS) > 0 {
		fmt.Fprintf(r.log, "validity: generator lateness p50 %.3f ms, p95 %.3f ms (time from a batch's due time to its send)\n",
			quantile(got.lateMS.sorted(), 0.5), quantile(got.lateMS.sorted(), 0.95))
	}
}
