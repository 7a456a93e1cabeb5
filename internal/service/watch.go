package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	aiql "github.com/aiql/aiql"
)

// Standing queries (the SAQL-style extension): an analyst registers an
// AIQL query once and the service re-evaluates it after every ingest
// commit, pushing only the rows that are new since the last evaluation
// to SSE subscribers. The prepared-statement machinery gives the
// compile-once template; the engine's delta evaluation plus the segment
// scan cache make each re-evaluation proportional to the fresh data,
// not the store size. The registry survives catalog hot-swaps the same
// way the prepared registry does — watches re-prepare against the
// swapped-in database under their original ids, live SSE subscriptions
// carried across.

// ErrWatchNotFound reports a watch id the registry does not hold:
// never issued, deleted, or killed because its query stopped compiling
// across a hot-swap.
var ErrWatchNotFound = errors.New("service: unknown or deleted watch id")

// ErrWatchLimit reports that the dataset's standing-query capacity is
// reached; delete a watch first.
var ErrWatchLimit = errors.New("service: standing-query limit reached")

// WatchMatch is one push to a watch's subscribers: the rows a single
// post-ingest evaluation produced that no earlier evaluation reported.
type WatchMatch struct {
	WatchID string     `json:"watch_id"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// TotalMatches is the watch's cumulative distinct-row count after
	// this delta.
	TotalMatches int `json:"total_matches"`
}

// WatchEvalStats describes a watch's most recent evaluation.
type WatchEvalStats struct {
	ScannedEvents int64  `json:"scanned_events"`
	SegmentHits   int    `json:"segment_hits"`
	SegmentMisses int    `json:"segment_misses"`
	FreshRows     int    `json:"fresh_rows"`
	Skipped       bool   `json:"skipped"`
	Error         string `json:"error,omitempty"`
}

// WatchInfo is the wire description of one registered watch.
type WatchInfo struct {
	WatchID string   `json:"watch_id"`
	Query   string   `json:"query"`
	Kind    string   `json:"kind"`
	Columns []string `json:"columns,omitempty"`
	// Matches is the cumulative distinct rows this watch has reported
	// (including its registration baseline, which is recorded but not
	// pushed).
	Matches     int             `json:"matches"`
	Evals       uint64          `json:"evals"`
	Subscribers int             `json:"subscribers"`
	Dropped     uint64          `json:"dropped"`
	LastEval    *WatchEvalStats `json:"last_eval,omitempty"`
}

// WatchStats aggregates the registry for GET /api/v1/stats.
type WatchStats struct {
	Watches     int    `json:"watches"`
	Subscribers int    `json:"subscribers"`
	Evals       uint64 `json:"evals"`
	// Matches counts fresh rows pushed to subscribers over the
	// dataset's lifetime (baselines excluded).
	Matches uint64 `json:"matches"`
	// Dropped counts matches discarded by slow subscribers' buffers
	// (drop-oldest backpressure).
	Dropped uint64 `json:"dropped"`
}

// WatchSeed carries one watch across a dataset hot-swap, including its
// live subscribers; the catalog passes seeds between services opaquely.
type WatchSeed struct {
	ID     string
	Source string
	Params map[string]any

	subs    map[*watchSub]struct{}
	matches int
	dropped uint64
}

// watchSub is one SSE subscriber: a bounded match buffer plus a closed
// signal for watch deletion (or death across a hot-swap).
type watchSub struct {
	ch        chan WatchMatch
	closed    chan struct{}
	closeOnce sync.Once
}

func (sub *watchSub) close() { sub.closeOnce.Do(func() { close(sub.closed) }) }

// Matches returns the subscriber's delivery channel.
func (sub *watchSub) Matches() <-chan WatchMatch { return sub.ch }

// Closed is signalled when the watch is deleted out from under the
// subscriber; the SSE handler ends the stream then.
func (sub *watchSub) Closed() <-chan struct{} { return sub.closed }

// watch is one registered standing query.
type watch struct {
	id     string
	stmt   *aiql.Stmt
	params aiql.Params

	// mu serializes evaluations (the state is single-writer) and
	// guards the subscriber set and counters.
	mu        sync.Mutex
	state     *aiql.StandingState
	baselined bool
	evals     uint64
	dropped   uint64
	lastEval  WatchEvalStats
	subs      map[*watchSub]struct{}
}

// offer delivers m to sub without ever blocking the ingest path: a full
// buffer drops its oldest entry and retries, so a stalled SSE consumer
// loses its oldest matches, keeps its freshest, and never applies
// backpressure to the firehose. Called under w.mu — the single-producer
// guarantee that makes the drain-retry loop race-free against the
// consumer.
func (w *watch) offer(sub *watchSub, m WatchMatch) {
	for {
		select {
		case sub.ch <- m:
			return
		default:
		}
		select {
		case <-sub.ch:
			w.dropped++
		default:
		}
	}
}

// watchRegistry is a dataset's standing-query set.
type watchRegistry struct {
	cap    int
	buffer int

	mu      sync.Mutex
	watches map[string]*watch
	order   []string // registration order, for stable listings

	evals   atomic.Uint64
	matches atomic.Uint64
	dropped atomic.Uint64 // drops by watches since removed
}

func newWatchRegistry() *watchRegistry {
	return &watchRegistry{cap: maxWatches, buffer: watchBuffer, watches: make(map[string]*watch, maxWatches)}
}

// newWatchID mints an unguessable watch handle.
func newWatchID() string { return "watch_" + newStmtID()[len("stmt_"):] }

// full reports ErrWatchLimit when the registry is at its cap.
func (r *watchRegistry) full() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fullLocked()
}

func (r *watchRegistry) fullLocked() error {
	if len(r.watches) >= r.cap {
		return fmt.Errorf("%w (%d)", ErrWatchLimit, r.cap)
	}
	return nil
}

// insert registers w, enforcing the capacity cap.
func (r *watchRegistry) insert(w *watch) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.fullLocked(); err != nil {
		return err
	}
	r.watches[w.id] = w
	r.order = append(r.order, w.id)
	return nil
}

// get looks up a watch by id.
func (r *watchRegistry) get(id string) (*watch, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.watches[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrWatchNotFound, id)
	}
	return w, nil
}

// remove deletes a watch, returning it for subscriber shutdown.
func (r *watchRegistry) remove(id string) (*watch, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.watches[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrWatchNotFound, id)
	}
	delete(r.watches, id)
	for i, oid := range r.order {
		if oid == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return w, nil
}

// snapshot returns the live watches in registration order.
func (r *watchRegistry) snapshot() []*watch {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*watch, 0, len(r.watches))
	for _, id := range r.order {
		out = append(out, r.watches[id])
	}
	return out
}

// info renders one watch's wire description; the caller does not hold
// w.mu.
func (w *watch) info() WatchInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	le := w.lastEval
	info := WatchInfo{
		WatchID:     w.id,
		Query:       w.stmt.Source(),
		Kind:        w.stmt.Kind(),
		Columns:     w.stmt.Columns(),
		Matches:     w.state.Matches(),
		Evals:       w.evals,
		Subscribers: len(w.subs),
		Dropped:     w.dropped,
	}
	if w.evals > 0 {
		info.LastEval = &le
	}
	return info
}

// Watch registers src as a standing query over this dataset. The
// current matches are evaluated synchronously as the baseline — they
// are recorded, not pushed, so subscribers receive only matches caused
// by data that arrives after registration.
func (s *Service) Watch(ctx context.Context, src string, params map[string]any) (WatchInfo, error) {
	if s.shards != nil {
		return WatchInfo{}, &apiError{status: http.StatusBadRequest, code: CodeUnsupported,
			msg: "service: standing queries are not supported on a sharded dataset; watch the member datasets"}
	}
	stmt, err := s.db.Prepare(src)
	if err != nil {
		return WatchInfo{}, err
	}
	p := aiql.Params(params)
	if err := stmt.Check(p); err != nil {
		return WatchInfo{}, err
	}
	w := &watch{
		id:     newWatchID(),
		stmt:   stmt,
		params: p,
		state:  aiql.NewStandingState(),
		subs:   make(map[*watchSub]struct{}),
	}
	// A full registry refuses before the baseline, the one expensive
	// evaluation (full scan, cold cache), which runs under admission
	// like any query. insert checks the cap again: registrations can
	// race past this check.
	if err := s.watches.full(); err != nil {
		return WatchInfo{}, err
	}
	if err := s.admit(ctx); err != nil {
		return WatchInfo{}, err
	}
	s.active.Add(1)
	s.evalWatch(ctx, w)
	s.active.Add(-1)
	<-s.sem
	w.mu.Lock()
	evalErr := w.lastEval.Error
	w.mu.Unlock()
	if evalErr != "" {
		return WatchInfo{}, &apiError{status: http.StatusBadRequest, code: CodeExecError,
			msg: "service: watch baseline evaluation failed: " + evalErr}
	}
	if err := s.watches.insert(w); err != nil {
		return WatchInfo{}, err
	}
	return w.info(), nil
}

// Unwatch deletes a standing query, ending every subscriber's stream.
func (s *Service) Unwatch(id string) error {
	w, err := s.watches.remove(id)
	if err != nil {
		return err
	}
	w.mu.Lock()
	s.watches.dropped.Add(w.dropped)
	subs := w.subs
	w.subs = make(map[*watchSub]struct{})
	w.mu.Unlock()
	for sub := range subs {
		sub.close()
	}
	return nil
}

// Watches lists the registered standing queries in registration order.
func (s *Service) Watches() []WatchInfo {
	ws := s.watches.snapshot()
	out := make([]WatchInfo, 0, len(ws))
	for _, w := range ws {
		out = append(out, w.info())
	}
	return out
}

// WatchInfo describes one registered watch.
func (s *Service) WatchInfo(id string) (WatchInfo, error) {
	w, err := s.watches.get(id)
	if err != nil {
		return WatchInfo{}, err
	}
	return w.info(), nil
}

// Subscribe attaches a bounded-buffer subscriber to a watch. The caller
// consumes sub.Matches() until sub.Closed() fires or it unsubscribes.
func (s *Service) Subscribe(id string) (*watchSub, error) {
	w, err := s.watches.get(id)
	if err != nil {
		return nil, err
	}
	sub := &watchSub{ch: make(chan WatchMatch, s.watches.buffer), closed: make(chan struct{})}
	w.mu.Lock()
	w.subs[sub] = struct{}{}
	w.mu.Unlock()
	return sub, nil
}

// Unsubscribe detaches sub from the watch (a disconnected SSE client).
// Safe when the watch is already deleted or swapped.
func (s *Service) Unsubscribe(id string, sub *watchSub) {
	if w, err := s.watches.get(id); err == nil {
		w.mu.Lock()
		delete(w.subs, sub)
		w.mu.Unlock()
	}
	sub.close()
}

// evalWatch runs one standing-query evaluation. The first evaluation
// against a fresh state is the baseline: its matches are recorded in
// the state but not pushed, so subscribers only ever see matches new
// relative to registration (or to a hot-swap adoption). Evaluation
// errors are recorded on the watch, never propagated to the ingest —
// a broken watch must not poison the firehose.
func (s *Service) evalWatch(ctx context.Context, w *watch) (fresh int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	evalCtx, cancel := context.WithTimeout(ctx, s.cfg.DefaultTimeout)
	defer cancel()
	d, err := w.stmt.ExecDelta(evalCtx, w.params, w.state)
	w.evals++
	s.watches.evals.Add(1)
	if err != nil {
		w.lastEval = WatchEvalStats{Error: err.Error()}
		return 0
	}
	w.lastEval = WatchEvalStats{
		ScannedEvents: d.Stats.ScannedEvents,
		SegmentHits:   d.Stats.SegmentHits,
		SegmentMisses: d.Stats.SegmentMisses,
		FreshRows:     len(d.Fresh),
		Skipped:       d.Skipped,
	}
	if !w.baselined {
		w.baselined = true
		return 0
	}
	if len(d.Fresh) == 0 {
		return 0
	}
	s.watches.matches.Add(uint64(len(d.Fresh)))
	m := WatchMatch{WatchID: w.id, Columns: d.Columns, Rows: d.Fresh, TotalMatches: w.state.Matches()}
	for sub := range w.subs {
		w.offer(sub, m)
	}
	return len(d.Fresh)
}

// evalWatches re-evaluates every registered watch after an ingest
// commit, in registration order, returning how many evaluated and the
// total fresh rows produced.
func (s *Service) evalWatches(ctx context.Context) (evaluated, fresh int) {
	for _, w := range s.watches.snapshot() {
		fresh += s.evalWatch(ctx, w)
		evaluated++
	}
	return evaluated, fresh
}

// WatchStats aggregates the registry's counters.
func (s *Service) WatchStats() WatchStats {
	r := s.watches
	st := WatchStats{
		Evals:   r.evals.Load(),
		Matches: r.matches.Load(),
		Dropped: r.dropped.Load(),
	}
	for _, w := range r.snapshot() {
		w.mu.Lock()
		st.Watches++
		st.Subscribers += len(w.subs)
		st.Dropped += w.dropped
		w.mu.Unlock()
	}
	return st
}

// WatchSeeds exports the registered watches — including their live
// subscribers — for hot-swap adoption by a successor service. Each
// seed takes ownership of its watch's subscriber set: the retiring
// watch is left with none, so its remaining evaluations cannot race
// the successor's subscribe/unsubscribe traffic on a shared map.
func (s *Service) WatchSeeds() []WatchSeed {
	ws := s.watches.snapshot()
	out := make([]WatchSeed, 0, len(ws))
	for _, w := range ws {
		w.mu.Lock()
		subs := w.subs
		w.subs = make(map[*watchSub]struct{})
		out = append(out, WatchSeed{
			ID:      w.id,
			Source:  w.stmt.Source(),
			Params:  w.params,
			subs:    subs,
			matches: w.state.Matches(),
			dropped: w.dropped,
		})
		w.mu.Unlock()
	}
	return out
}

// AdoptWatches re-prepares seeds against this service's database under
// their original ids, carrying live SSE subscriptions across a dataset
// hot-swap. Each adopted watch restarts with a fresh standing state:
// its first post-swap evaluation re-baselines silently, so subscribers
// are not replayed the swapped-in store's entire history — they resume
// receiving matches caused by post-swap ingests. Seeds whose query no
// longer compiles are dropped and their subscribers' streams closed.
func (s *Service) AdoptWatches(seeds []WatchSeed) {
	for _, seed := range seeds {
		stmt, err := s.db.Prepare(seed.Source)
		if err == nil {
			err = stmt.Check(aiql.Params(seed.Params))
		}
		if err != nil {
			for sub := range seed.subs {
				sub.close()
			}
			continue
		}
		w := &watch{
			id:      seed.ID,
			stmt:    stmt,
			params:  aiql.Params(seed.Params),
			state:   aiql.NewStandingState(),
			dropped: seed.dropped,
			subs:    seed.subs,
		}
		if w.subs == nil {
			w.subs = make(map[*watchSub]struct{})
		}
		if err := s.watches.insert(w); err != nil {
			for sub := range seed.subs {
				sub.close()
			}
		}
	}
}
