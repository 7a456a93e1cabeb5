package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
)

// This file is the parallel scan executor: each (pattern filter ×
// scan unit) becomes an independent task, scheduled onto the engine's
// bounded worker pool, with results handed downstream strictly in the
// snapshot's deterministic unit order. Because consumption order is
// identical to the sequential walk, everything built on emission order
// — cursor semantics, LIMIT pushdown, pagination tokens, distinct
// dedup — behaves byte-for-byte the same whether zero or many helpers
// are running.
//
// The merging goroutine always participates: it claims and scans any
// unit a helper has not taken before waiting on it, so the executor
// makes progress (degrading to a pure sequential scan) even when the
// pool is saturated or has no slots at all.

// unitResult is one scan task's outcome; err set means batch is
// partial (see eventstore.ScanUnit.CollectBatchInto).
type unitResult struct {
	batch   []sysmon.Event
	visited int64
	err     error
	hit     bool
}

// forEachUnitOrdered scans the units for one pattern filter with
// pooled helper workers and hands each unit's filtered batch to
// consume in deterministic unit order. consume returning false stops
// the merge (helpers are told to abort and are awaited before
// returning, so execution statistics are final). Sealed-unit batches
// are served from the scan cache when present and fill it when
// scanned to completion; hit/miss accounting happens at consume time
// only, so the counters match the sequential walk exactly. cols is what
// the consumer and preds read of an event: a scan gathers only those
// columns, and a cached batch is served only when it was gathered with
// at least them — otherwise the unit is rescanned with the union of the
// two demands and the entry replaced, so alternating consumers converge
// on one entry that serves both. A non-zero limitHint shrinks the helper
// lookahead window, bounding the work wasted past a satisfied limit.
func (e *Engine) forEachUnitOrdered(ctx context.Context, units []eventstore.ScanUnit, filter *eventstore.EventFilter, preds []evtPred, cols eventstore.ColMask, stats *ExecStats, limitHint int, consume func(batch []sysmon.Event) bool) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("engine: query aborted: %w", err)
	}
	if len(units) == 0 {
		return nil
	}
	cache := e.scache.Load()
	var fp scanFP
	if cache != nil {
		fp = scanFingerprint(filter, preds)
	}
	cached := cache.peekAll(fp, units, cols)
	cf := filter.Compile()
	keep := func(ev *sysmon.Event) bool { return evtPredsOK(preds, ev) }
	if len(preds) == 0 {
		keep = nil
	}

	results := make([]unitResult, len(units))
	scanUnit := func(i int) {
		r := &results[i]
		need := cols
		if cached != nil {
			if cached[i].events != nil {
				r.batch, r.hit = cached[i].events, true
				return
			}
			need |= cached[i].cols
		}
		r.batch, r.visited, r.err = units[i].CollectBatchInto(ctx, cf, keep, need, nil)
		if r.err == nil && cache != nil && units[i].Sealed() {
			cache.put(fp, units[i].SegmentID(), r.batch, need)
		}
	}

	var retErr error
	// consumeUnit does the consume-time accounting and hands the batch
	// downstream; false stops the merge.
	consumeUnit := func(i int) bool {
		r := &results[i]
		stats.ScannedEvents += r.visited
		if cache != nil && units[i].Sealed() {
			if r.hit {
				stats.SegmentHits++
			} else {
				stats.SegmentMisses++
			}
			cache.note(r.hit)
		}
		if !consume(r.batch) {
			return false
		}
		if r.err != nil {
			if ctx.Err() != nil {
				retErr = fmt.Errorf("engine: query aborted: %w", ctx.Err())
			} else {
				retErr = fmt.Errorf("engine: scan segment %d: %w", units[i].SegmentID(), r.err)
			}
			return false
		}
		return true
	}

	pool := e.pool.Load()
	maxHelpers := pool.Helpers()
	if maxHelpers > len(units)-1 {
		maxHelpers = len(units) - 1
	}
	if maxHelpers <= 0 {
		// No helpers available: plain sequential walk, zero
		// coordination overhead. Without a cache nothing retains a
		// batch past its consume call, so one scratch buffer serves
		// every unit instead of allocating per unit.
		var scratch []sysmon.Event
		for i := range units {
			if cache == nil {
				r := &results[i]
				r.batch, r.visited, r.err = units[i].CollectBatchInto(ctx, cf, keep, cols, scratch[:0])
				scratch = r.batch[:0]
			} else {
				scanUnit(i)
			}
			if !consumeUnit(i) {
				return retErr
			}
		}
		return nil
	}

	// Helpers claim units ahead of the merge point within a bounded
	// lookahead window, so a stalled or limit-satisfied consumer never
	// causes the whole snapshot to be prefetched into memory.
	window := 4 * maxHelpers
	switch {
	case window < 8:
		window = 8
	case window > 64:
		window = 64
	}
	if limitHint > 0 && window > 8 {
		window = 8
	}

	done := make([]chan struct{}, len(units))
	for i := range done {
		done[i] = make(chan struct{})
	}
	claims := make([]atomic.Bool, len(units))
	var consumed atomic.Int64

	// Early termination must reach in-flight tasks: collapsing the
	// window stops new claims, and triggering the cursor's halt (when
	// running under one) makes running block scans observe ctx.Err at
	// their next check.
	abort := func() {}
	if hc, ok := ctx.(*haltCtx); ok {
		abort = hc.h.trigger
	}

	helper := func() {
		for {
			if ctx.Err() != nil {
				return
			}
			base := int(consumed.Load())
			hi := base + window
			if hi > len(units) {
				hi = len(units)
			}
			i := -1
			for k := base; k < hi; k++ {
				if !claims[k].Load() && claims[k].CompareAndSwap(false, true) {
					i = k
					break
				}
			}
			if i < 0 {
				return // window fully claimed; the consumer respawns as it advances
			}
			scanUnit(i)
			close(done[i])
		}
	}

	var (
		wg   sync.WaitGroup
		live atomic.Int64
	)
	spawn := func() {
		for int(live.Load()) < maxHelpers {
			live.Add(1)
			wg.Add(1)
			if !pool.TryGo(func() { defer wg.Done(); defer live.Add(-1); helper() }) {
				live.Add(-1)
				wg.Done()
				return
			}
		}
	}
	stop := func() {
		consumed.Store(int64(len(units)))
		abort()
		wg.Wait()
	}

	// The first unit is scanned and consumed inline before any helper
	// exists (the loop spawns them once it is behind): a query satisfied
	// within it pays no coordination, and an execution cut short always
	// has the first unit's work to show, however the helpers race it for
	// a cancellation budget.
	for i := range units {
		if claims[i].CompareAndSwap(false, true) {
			scanUnit(i) // unclaimed: the consumer scans inline
		} else {
			waitStart := time.Now()
			<-done[i]
			stats.PoolWait += time.Since(waitStart)
		}
		if !consumeUnit(i) {
			stop()
			return retErr
		}
		consumed.Store(int64(i + 1))
		if i+1 < len(units) && int(live.Load()) < maxHelpers {
			spawn()
		}
	}
	wg.Wait()
	return nil
}
