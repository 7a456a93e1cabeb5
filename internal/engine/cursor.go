package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/aiql/aiql/internal/obs"
)

// CursorOptions shape a streaming execution.
type CursorOptions struct {
	// Limit > 0 enables limit pushdown: the cursor yields at most Limit
	// rows, and the final pattern scan runs sequentially and terminates
	// as soon as they have been produced, so a small-limit query over a
	// huge store does not pay for a full scan. Rows arrive in production
	// order — there is no global sort under pushdown.
	Limit int
}

// halt is a one-shot broadcast used to abort in-flight scans: Close on
// the cursor (or an internal execution error in a parallel worker)
// triggers it, and every cancellation checkpoint observes it through
// haltCtx below.
type halt struct {
	once sync.Once
	ch   chan struct{}
}

func newHalt() *halt { return &halt{ch: make(chan struct{})} }

func (h *halt) trigger() { h.once.Do(func() { close(h.ch) }) }

func (h *halt) triggered() bool {
	select {
	case <-h.ch:
		return true
	default:
		return false
	}
}

// haltCtx layers the halt signal over the caller's context: Err reports
// cancellation when either the halt has been triggered or the parent
// context is done, so the existing ctx.Err() checkpoints in the scan,
// join, and projection loops double as early-termination points without
// wrapping the caller's context in a derived one (derived contexts
// would hide custom Err implementations used by the cancellation
// tests).
type haltCtx struct {
	context.Context
	h *halt
}

func (c *haltCtx) Err() error {
	select {
	case <-c.h.ch:
		return context.Canceled
	default:
	}
	return c.Context.Err()
}

// Cursor is a pull-based iterator over a query's projected rows. The
// producer executes the query plan on demand: rows are handed over in
// chunks of up to rowChunkSize (the first row on its own, so it is never
// held back, and no row held more than about chunkMaxHold once its scan
// unit ends), intermediate results past the prefix joins are never
// materialized, and closing the cursor aborts the remaining scan work.
//
// Usage follows database/sql:
//
//	cur, err := eng.ExecuteCursor(ctx, src, CursorOptions{Limit: 50})
//	...
//	defer cur.Close()
//	for cur.Next() {
//	    row := cur.Row()
//	    ...
//	}
//	err = cur.Err()
//
// Rows stream in production order. Stats are complete once Next has
// returned false or Close has returned. A Cursor must be closed;
// abandoning one mid-stream leaks its producer goroutine until the
// parent context is cancelled.
type Cursor struct {
	cols []string
	kind string
	rows chan [][]string
	h    *halt
	done chan struct{}

	chunk [][]string // the chunk being iterated; chunk[pos:] is unread
	pos   int
	cur   []string

	mu    sync.Mutex
	err   error
	stats ExecStats
}

// Columns returns the result header. It is available immediately, before
// any row has been produced.
func (c *Cursor) Columns() []string { return c.cols }

// Kind returns the query family (multievent, dependency, anomaly) of the
// compiled template the cursor executes.
func (c *Cursor) Kind() string { return c.kind }

// Next blocks until the next row is available and reports whether one
// was produced. After it returns false, Err distinguishes exhaustion
// from failure.
func (c *Cursor) Next() bool {
	for c.pos >= len(c.chunk) {
		chunk, ok := <-c.rows
		if !ok {
			return false
		}
		c.chunk, c.pos = chunk, 0
	}
	c.cur = c.chunk[c.pos]
	c.pos++
	return true
}

// NextChunk blocks until rows are available and returns all the producer
// handed over together — what is left of the chunk Next is iterating, or
// else the next one — and nil once the stream has ended. A consumer that
// batches its own output (one write and flush per chunk instead of per
// row) iterates with it in place of Next/Row. The slice and its rows
// are owned by the caller.
func (c *Cursor) NextChunk() [][]string {
	if c.pos < len(c.chunk) {
		rest := c.chunk[c.pos:]
		c.chunk, c.pos = nil, 0
		return rest
	}
	return <-c.rows
}

// Row returns the row made current by the last successful Next. The
// slice is owned by the caller.
func (c *Cursor) Row() []string { return c.cur }

// Err returns the execution error, if any, once the stream has ended.
func (c *Cursor) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Stats returns the execution statistics. They are complete (and
// stable) once Next has returned false or Close has returned; a
// mid-stream call returns the zero value.
func (c *Cursor) Stats() ExecStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close aborts the remaining execution and releases the producer. It
// blocks until in-flight scan work has observed the abort, so the
// engine's statistics are final when it returns. Closing an exhausted
// or already-closed cursor is a no-op.
func (c *Cursor) Close() error {
	c.h.trigger()
	// Drain any row the producer is blocked on handing over, then wait
	// for it to exit.
	for {
		select {
		case _, ok := <-c.rows:
			if !ok {
				<-c.done
				return nil
			}
		case <-c.done:
			return nil
		}
	}
}

// rowChunkSize caps the rows a producer accumulates before handing them
// to the cursor: large enough that the channel handoff, and a stream
// handler's write and flush, amortize to nothing per row; small enough
// that a chunk is a few tens of kilobytes.
const rowChunkSize = 256

// chunkMaxHold is how long a pending row may wait for its chunk to fill
// before a scan-unit boundary hands it over anyway. Units of a fast
// scan end every few microseconds, so a boundary on its own is no
// reason to hand over a part-filled chunk; a slow scan's rows must
// still reach a reader at interactive speed.
const chunkMaxHold = 2 * time.Millisecond

// arenaFirstRows is how many rows the first row arena holds; each later
// arena doubles up to rowChunkSize, so a one-row query does not pay for
// a chunk's worth of cells.
const arenaFirstRows = 8

// rowChunker is the producer's end of a cursor: it cuts rows from an
// arena it owns, collects them into chunks and hands those over — the
// first row at once, then whenever a chunk fills, when the limit is
// reached, at the end, and at a scan-unit boundary once the oldest
// pending row has waited hold. Nothing is recycled: a handed-over chunk
// and the arena cells of its rows belong to the consumer.
type rowChunker struct {
	c      *Cursor
	ctx    context.Context
	limit  int
	hold   time.Duration // chunkMaxHold; a field so tests can pin the policy
	sent   int           // rows emitted
	chunks int           // chunks handed over

	pending [][]string
	since   time.Time // when the oldest pending row was emitted

	arena     []string // cells of the rows emitted from it; the next row starts at len
	arenaRows int      // rows the current arena was sized for
}

// row returns n cells for the next row, cut from the arena and capped
// so that appending to the row can never reach the next one. They join
// the arena only when the row is emitted: until then row returns the
// same cells, so a rendered row that is dropped (a distinct duplicate)
// costs nothing.
func (rc *rowChunker) row(n int) []string {
	if len(rc.arena)+n > cap(rc.arena) {
		rc.arenaRows = min(max(2*rc.arenaRows, arenaFirstRows), rowChunkSize)
		rc.arena = make([]string, 0, rc.arenaRows*n)
	}
	k := len(rc.arena)
	return rc.arena[k : k+n : k+n]
}

// emit takes the row last returned by row, rendered. It returns false
// when downstream demand is satisfied (the limit was reached or the
// cursor was closed); the producer then stops scanning.
func (rc *rowChunker) emit(row []string) bool {
	rc.arena = rc.arena[:len(rc.arena)+len(row)]
	if len(rc.pending) == 0 {
		if rc.pending == nil && rc.sent > 0 {
			rc.pending = make([][]string, 0, rowChunkSize)
		}
		rc.since = time.Now()
	}
	rc.pending = append(rc.pending, row)
	rc.sent++
	if rc.limit > 0 && rc.sent >= rc.limit {
		rc.flush()
		return false
	}
	if rc.sent == 1 {
		if !rc.flush() {
			return false
		}
		// The handoff made the consumer runnable on this P's next slot,
		// where it would wait until this producer blocks — which, with
		// the other Ps busy running scan helpers, is when a whole chunk
		// has filled. Yield so the first row is delivered now.
		runtime.Gosched()
		return true
	}
	if len(rc.pending) >= rowChunkSize {
		return rc.flush()
	}
	return true
}

// boundary is called where a scan unit ends. It hands the pending rows
// over once the oldest has waited hold; false means the cursor was
// closed or the context is done. Otherwise it costs at most a clock
// read: scans visit hundreds of units, most of them empty for a
// selective query, and check for cancellation themselves.
func (rc *rowChunker) boundary() bool {
	if len(rc.pending) == 0 || time.Since(rc.since) < rc.hold {
		return true
	}
	return rc.flush()
}

// flush hands the pending rows to the cursor, blocking while its buffer
// is full; false means the cursor was closed or the context is done,
// and the rows are dropped.
func (rc *rowChunker) flush() bool {
	if len(rc.pending) == 0 {
		return true
	}
	// A closed cursor takes no more rows, even where its buffer has room
	// and the select below could pick the send.
	select {
	case <-rc.c.h.ch:
		return false
	case <-rc.ctx.Done():
		return false
	default:
	}
	select {
	case rc.c.rows <- rc.pending:
	case <-rc.c.h.ch:
		return false
	case <-rc.ctx.Done():
		return false
	}
	rc.pending = nil // the consumer owns the chunk now
	rc.chunks++
	return true
}

// startCursor launches the producer goroutine for a compiled template's
// execution and returns its cursor. run receives the halt-layered context, the
// statistics sink (seeded with what planning already counted), and the
// row chunker; it is the only goroutine that touches them until the
// cursor ends.
func (e *Engine) startCursor(ctx context.Context, p *Prepared, opts CursorOptions, planned ExecStats, run func(cctx context.Context, stats *ExecStats, out *rowChunker) error) *Cursor {
	c := &Cursor{
		cols: p.info.Columns,
		kind: p.kind,
		// Four chunks of lookahead: a fast producer is not parked on
		// every handoff of a full drain, while memory stays bounded (at
		// most 4+1 chunks of rowChunkSize rows) and backpressure still
		// reaches the scan.
		rows: make(chan [][]string, 4),
		h:    newHalt(),
		done: make(chan struct{}),
	}
	start := time.Now()
	cctx := &haltCtx{Context: ctx, h: c.h}
	go func() {
		defer close(c.done)
		stats := planned
		out := &rowChunker{c: c, ctx: ctx, limit: opts.Limit, hold: chunkMaxHold}
		runErr := run(cctx, &stats, out)
		out.flush() // rows produced before an error still reach the consumer
		stats.Chunks = out.chunks
		// several cursors can run under one span (the in-process members
		// of a scatter-gather query): each adds its own
		obs.SpanFromContext(ctx).AddInt("chunks", int64(out.chunks))
		// Classify the outcome. A real execution error always wins; a
		// cancellation that traces to the parent context is reported as
		// an abort; a cancellation caused solely by Close is a clean
		// early stop, not an error.
		isCtx := runErr != nil && (errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded))
		switch {
		case runErr != nil && !isCtx:
			// keep it
		case ctx.Err() != nil:
			if perr := ctx.Err(); runErr == nil || !errors.Is(runErr, perr) {
				runErr = fmt.Errorf("engine: query aborted: %w", perr)
			}
		case isCtx && c.h.triggered():
			runErr = nil
		}
		stats.Elapsed = time.Since(start)
		c.mu.Lock()
		c.err = runErr
		c.stats = stats
		c.mu.Unlock()
		close(c.rows)
	}()
	return c
}
