package shard

import (
	"container/heap"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/engine"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/service"
	"github.com/aiql/aiql/internal/shard/client"
)

// Member pairs a partition-map entry with its executable source.
type Member struct {
	Name   string
	Source Source
	Remote bool
	Bounds Bounds
}

// Options tune a coordinator.
type Options struct {
	// ShardTimeout bounds each member's execution of one query; a
	// member exceeding it is treated as unavailable for that query.
	// Default: 30s.
	ShardTimeout time.Duration
	// ProbeInterval is how often remote members' healthz is probed for
	// liveness and epoch changes (bounded cache staleness). 0 disables
	// the background prober — tests drive Probe explicitly.
	ProbeInterval time.Duration
}

// member is a Member plus its live state and counters.
type member struct {
	name    string
	src     Source
	remote  bool
	bounds  Bounds
	healthy atomic.Bool
	epoch   atomic.Uint64 // remote store epoch from the last probe
	fanouts atomic.Uint64
	pruned  atomic.Uint64
	errs    atomic.Uint64
	rows    atomic.Uint64
}

// epochNow is the member's contribution to the dataset generation:
// live commits for local members, the last probed epoch for remote
// ones (staleness bounded by the probe interval).
func (m *member) epochNow() uint64 {
	if m.remote {
		return m.epoch.Load()
	}
	e, err := m.src.Ping(context.Background())
	if err != nil {
		return ^uint64(0)
	}
	return e
}

// Coordinator fans queries out across a sharded dataset's members and
// merge-sorts their row streams. It implements service.ShardBackend.
type Coordinator struct {
	dataset string
	members []*member
	opts    Options

	queries atomic.Uint64
	partial atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator builds a coordinator over the members. Members start
// optimistically healthy; probes and query outcomes adjust.
func NewCoordinator(dataset string, members []Member, opts Options) *Coordinator {
	if opts.ShardTimeout <= 0 {
		opts.ShardTimeout = 30 * time.Second
	}
	c := &Coordinator{dataset: dataset, opts: opts, stop: make(chan struct{})}
	for _, m := range members {
		mm := &member{name: m.Name, src: m.Source, remote: m.Remote, bounds: m.Bounds}
		mm.healthy.Store(true)
		c.members = append(c.members, mm)
	}
	if opts.ProbeInterval > 0 {
		c.wg.Add(1)
		go c.probeLoop()
	}
	return c
}

// probeLoop refreshes member health and remote epochs until Close.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.opts.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeInterval)
			c.Probe(ctx)
			cancel()
		}
	}
}

// Probe runs one health/epoch round across all members concurrently.
func (c *Coordinator) Probe(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range c.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			e, err := m.src.Ping(ctx)
			if err != nil {
				m.healthy.Store(false)
				return
			}
			m.healthy.Store(true)
			m.epoch.Store(e)
		}(m)
	}
	wg.Wait()
}

// Generation implements service.ShardBackend: a hash over every
// member's name and epoch, so any member committing data (or a probe
// observing a remote epoch change) moves the coordinator's result-cache
// generation.
func (c *Coordinator) Generation() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, m := range c.members {
		io.WriteString(h, m.name)
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:], m.epochNow())
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Stats implements service.ShardBackend.
func (c *Coordinator) Stats() *service.ShardStats {
	st := &service.ShardStats{
		Queries:    c.queries.Load(),
		Partial:    c.partial.Load(),
		Generation: c.Generation(),
	}
	for _, m := range c.members {
		ms := service.ShardMemberStats{
			Shard:   m.name,
			Remote:  m.remote,
			Healthy: m.healthy.Load(),
			Fanouts: m.fanouts.Load(),
			Pruned:  m.pruned.Load(),
			Errors:  m.errs.Load(),
			Rows:    m.rows.Load(),
		}
		if r, ok := m.src.(interface{ Retries() uint64 }); ok {
			ms.Retries = r.Retries()
		}
		st.Members = append(st.Members, ms)
	}
	return st
}

// Close implements service.ShardBackend: stops the prober and closes
// every member source.
func (c *Coordinator) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	var first error
	for _, m := range c.members {
		if err := m.src.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Run drains RunStream into one buffered result: the merged sorted
// streams of every admitted member — byte-identical to the unsharded
// execution of the same data.
func (c *Coordinator) Run(ctx context.Context, q service.ShardQuery) (*engine.Result, []service.ShardWarning, error) {
	start := time.Now()
	res := &engine.Result{Columns: q.Columns, Rows: [][]string{}}
	stats, warns, err := c.RunStream(ctx, q,
		func([]string) error { return nil },
		func(chunk [][]string) error {
			res.Rows = append(res.Rows, chunk...)
			return nil
		})
	if err != nil {
		return nil, warns, err
	}
	res.Stats = stats
	res.Stats.Elapsed = time.Since(start)
	return res, warns, nil
}

// mergeChunkRows caps the rows the merge hands over at once. It matches
// the engine cursor's chunk, so a stream's sink sees the same shape from
// a coordinator as from a single store.
const mergeChunkRows = 256

// RunStream implements service.ShardBackend: scatter to every member
// the partition map admits, k-way merge-sort the sorted member streams,
// and hand rows over in chunks as they win the merge, dropping
// cross-member duplicates of a distinct statement. The first row goes
// out alone, later ones up to mergeChunkRows at a time, and a partly
// filled chunk goes out before the merge waits on a member, so rows are
// never held back behind a slow one. A positive q.Limit stops the merge
// (and cancels members) after that many emitted rows. Member failures
// degrade to warnings unless q.RequireAll, the failure is the query's
// own fault (4xx), or every member failed.
func (c *Coordinator) RunStream(ctx context.Context, q service.ShardQuery, header func(cols []string) error, rows func(chunk [][]string) error) (engine.ExecStats, []service.ShardWarning, error) {
	c.queries.Add(1)
	sc := scopeOf(q)

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type mstate struct {
		m     *member
		ch    chan []string
		stats engine.ExecStats
		err   error // valid only after ch closes
	}
	parent := obs.SpanFromContext(ctx)
	var live []*mstate
	for _, m := range c.members {
		if !m.bounds.admits(sc) {
			m.pruned.Add(1)
			continue
		}
		m.fanouts.Add(1)
		live = append(live, &mstate{m: m, ch: make(chan []string, 64)})
	}
	var wg sync.WaitGroup
	defer wg.Wait() // no goroutine outlives the call (cancel unblocks sends)
	for _, st := range live {
		wg.Add(1)
		go func(st *mstate) {
			defer wg.Done()
			defer close(st.ch) // after st.err is set: close publishes it
			span := parent.Child("shard:" + st.m.name)
			defer span.End()
			mctx, mcancel := context.WithTimeout(sctx, c.opts.ShardTimeout)
			defer mcancel()
			sent := int64(0)
			st.stats, st.err = st.m.src.Stream(mctx, q, func(r []string) error {
				select {
				case st.ch <- r:
					sent++
					return nil
				case <-sctx.Done():
					return sctx.Err()
				}
			})
			span.SetInt("rows", sent)
			span.SetInt("scanned_events", st.stats.ScannedEvents)
		}(st)
	}

	if err := header(q.Columns); err != nil {
		cancel()
		return engine.ExecStats{}, nil, err
	}

	var (
		h             rowHeap
		warnings      []service.ShardWarning
		stats         engine.ExecStats
		fatal         error
		throttled     error
		throttleAfter int
		emitted       int
	)
	// finishMember folds a completed member into the outcome: stats
	// always, then the error classified as fatal (the query's own
	// fault), throttled (propagate the member's 429 hint), or
	// unavailable (warning, or fatal under RequireAll).
	finishMember := func(st *mstate) {
		stats.Accumulate(st.stats)
		err := st.err
		if err == nil {
			st.m.healthy.Store(true)
			return
		}
		if sctx.Err() != nil {
			// the scatter is already being torn down (limit reached,
			// earlier fatal, or the caller's own deadline): member
			// errors here are echoes of the cancellation
			if fatal == nil && throttled == nil && ctx.Err() != nil {
				fatal = ctx.Err()
			}
			return
		}
		var (
			thr *client.ThrottledError
			qe  *client.QueryError
			te  *client.TransportError
		)
		switch {
		case errors.As(err, &thr):
			st.m.errs.Add(1)
			if thr.After > throttleAfter {
				throttleAfter = thr.After
			}
			if throttled == nil {
				throttled = fmt.Errorf("shard %s: %w", st.m.name, service.ErrClientThrottled)
			}
		case errors.As(err, &qe):
			st.m.errs.Add(1)
			if fatal == nil {
				fatal = service.APIError(qe.Status, qe.Code, fmt.Sprintf("shard %s: %s", st.m.name, qe.Msg))
			}
		case errors.As(err, &te), errors.Is(err, aiql.ErrClosed),
			errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			// unreachable, mid-stream death, closed store, or the
			// per-shard timeout: the member is unavailable
			st.m.errs.Add(1)
			st.m.healthy.Store(false)
			if q.RequireAll && fatal == nil {
				fatal = fmt.Errorf("shard %s: %v: %w", st.m.name, err, service.ErrShardUnavailable)
			} else {
				warnings = append(warnings, service.ShardWarning{
					Code: service.CodeShardUnavailable, Shard: st.m.name, Error: err.Error()})
			}
		default:
			// the member executed and rejected the query (local member
			// bind/semantic failure): the query is the problem
			st.m.errs.Add(1)
			if fatal == nil {
				fatal = fmt.Errorf("shard %s: %w", st.m.name, err)
			}
		}
	}
	// pull advances one member: its next row joins the heap, or its
	// completion is folded into the outcome.
	pull := func(i int) {
		st := live[i]
		r, ok := <-st.ch
		if !ok {
			finishMember(st)
			return
		}
		st.m.rows.Add(1)
		heap.Push(&h, heapItem{row: r, member: i})
	}

	// Seed every member's head row. A throttled member does not stop the
	// seeding: other members may carry larger Retry-After hints, and the
	// propagated hint is the maximum across members.
	for i := range live {
		pull(i)
		if fatal != nil {
			break
		}
	}
	if fatal == nil && throttled == nil {
		var (
			last    []string // the row emitted before this one
			pending [][]string
			sinkErr error
		)
		// flush hands the pending rows over; the chunk slice is reused,
		// the rows in it are the sink's to keep.
		flush := func() {
			if len(pending) > 0 && sinkErr == nil {
				sinkErr = rows(pending)
				pending = pending[:0]
			}
		}
		for h.Len() > 0 {
			it := heap.Pop(&h).(heapItem)
			// Members deduplicate only their own rows; the merge is
			// sorted, so a cross-member duplicate of a distinct
			// statement is always adjacent to its twin.
			if !q.Distinct || emitted == 0 || !slices.Equal(it.row, last) {
				pending = append(pending, it.row)
				last = it.row
				emitted++
				if q.Limit > 0 && emitted >= q.Limit {
					break
				}
				if emitted == 1 || len(pending) >= mergeChunkRows {
					flush()
				}
			}
			if len(live[it.member].ch) == 0 {
				flush() // the pull below may wait on this member
			}
			if sinkErr != nil {
				break
			}
			pull(it.member)
			if fatal != nil || throttled != nil {
				break
			}
		}
		flush()
		if sinkErr != nil {
			cancel()
			return stats, warnings, sinkErr
		}
	}
	cancel()
	if fatal != nil {
		return stats, warnings, fatal
	}
	if throttled != nil {
		return stats, warnings, service.WithRetryHint(throttled, throttleAfter)
	}
	if len(warnings) > 0 {
		c.partial.Add(1)
		if len(warnings) == len(live) && emitted == 0 {
			// not partial — nothing: every member is gone
			return stats, warnings, fmt.Errorf("all %d shard members unavailable: %w", len(live), service.ErrShardUnavailable)
		}
	}
	return stats, warnings, nil
}
