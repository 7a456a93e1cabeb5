package engine

import (
	"context"
	"hash/fnv"
)

// Standing-query evaluation: a prepared statement re-executed after
// every ingest commit, reporting only the rows that are new since the
// previous evaluation. A re-execution costs what the commit changed in
// two places below this layer: entity resolution extends each memoized
// candidate set over just the entities the commit interned, and the
// segment scan cache serves the per-pattern scans over sealed history,
// so only memtables and fresh segments are actually scanned. The delta
// layer here only needs to (a) skip evaluations when nothing committed
// and (b) subtract the rows already reported.

// StandingState carries one standing query's evaluation watermark: the
// store commit count at the last evaluation and the set of row
// identities already reported. It is NOT safe for concurrent use; the
// owner (the service's watch registry) serializes evaluations per
// watch.
type StandingState struct {
	commits   uint64
	evaluated bool
	seen      map[uint64]struct{}
}

// NewStandingState returns an empty state: the first evaluation against
// it reports every current match (the baseline).
func NewStandingState() *StandingState {
	return &StandingState{seen: make(map[uint64]struct{})}
}

// Matches returns the number of distinct rows reported so far.
func (st *StandingState) Matches() int { return len(st.seen) }

// DeltaResult is one standing-query evaluation's outcome.
type DeltaResult struct {
	// Columns is the statement's result header.
	Columns []string
	// Fresh holds the rows not seen by any previous evaluation against
	// the same state, in the execution's canonical order.
	Fresh [][]string
	// Total is the full result size of this evaluation (fresh + already
	// seen); 0 when Skipped.
	Total int
	// Skipped reports that the store had no new commits since the last
	// evaluation, so execution was elided entirely.
	Skipped bool
	// Stats carries the underlying execution's counters when the query
	// ran. With the segment scan cache installed, SegmentHits vs
	// SegmentMisses shows how much sealed history was reused rather
	// than re-scanned.
	Stats ExecStats
}

// rowKey hashes a projected row to its identity: the FNV-64a of its
// injective appendRowKey encoding, so rows whose cells merely join to
// the same bytes — cells may hold any byte, control characters
// included — are told apart. A 64-bit collision would suppress one
// fresh match; at standing-query result sizes the odds are negligible,
// and the alternative — retaining every row — costs 10-100x the memory
// per watch.
func rowKey(row []string) uint64 {
	h := fnv.New64a()
	h.Write(appendRowKey(nil, row))
	return h.Sum64()
}

// ExecutePreparedDelta evaluates a standing query incrementally: if the
// store's commit count is unchanged since st's last evaluation the call
// returns immediately with Skipped set; otherwise the statement
// executes (scan-cache-accelerated) and only rows never reported
// against st before come back in Fresh. The commit count is read before
// executing, so a commit racing the execution is never lost — at worst
// the next evaluation re-runs and its duplicates dedupe to nothing.
func (e *Engine) ExecutePreparedDelta(ctx context.Context, p *Prepared, params Params, st *StandingState) (*DeltaResult, error) {
	commits := e.store.Commits()
	if st.evaluated && commits == st.commits {
		return &DeltaResult{Columns: p.Columns(), Skipped: true}, nil
	}
	res, err := e.ExecutePrepared(ctx, p, params)
	if err != nil {
		return nil, err
	}
	d := &DeltaResult{Columns: res.Columns, Total: len(res.Rows), Stats: res.Stats}
	for _, row := range res.Rows {
		k := rowKey(row)
		if _, dup := st.seen[k]; dup {
			continue
		}
		st.seen[k] = struct{}{}
		d.Fresh = append(d.Fresh, row)
	}
	st.commits = commits
	st.evaluated = true
	return d, nil
}
