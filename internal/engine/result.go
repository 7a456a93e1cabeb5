package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Result is the outcome of executing a query: a column header, string-
// rendered rows, and execution statistics. Rows are rendered to strings so
// results can be displayed directly and compared across engines in the
// cross-engine equivalence tests.
type Result struct {
	Columns []string
	Rows    [][]string
	Stats   ExecStats
}

// ExecStats describes how a query executed.
type ExecStats struct {
	Elapsed       time.Duration
	ScannedEvents int64    // events touched by pattern scans (cache hits scan nothing)
	Bindings      int      // partial bindings materialized
	PatternOrder  []string // event aliases in scheduled execution order
	Partitions    int      // hypertable chunks in the snapshot queried
	SegmentHits   int      // sealed-segment scans served from the scan cache
	SegmentMisses int      // sealed-segment scans that had to run
	// EstimateUnits and EstimateProbes are what scheduling cost when this
	// execution did it (a one-shot query of two or more patterns): the
	// scan units asked for a pruning-power estimate and the posting-map
	// probes they made. Zero for single-pattern queries and for
	// executions of a statement prepared earlier.
	EstimateUnits  int64
	EstimateProbes int64
	// EntitiesExamined and the Resolve counters are what resolving the
	// entity attribute filters to candidate sets cost this execution:
	// filters the resolution memo answered as it stood (hits), extended
	// over newly interned entities (extends) or resolved from scratch
	// (misses), and the entities those examined. All zero when the
	// execution reused its statement's compiled plan.
	EntitiesExamined int64
	ResolveHits      int64
	ResolveExtends   int64
	ResolveMisses    int64
	// PoolWait is coordinator time spent blocked on pooled scan helpers
	// (zero under sequential scanning): high values mean the shared
	// worker pool, not this query's own scanning, bounded the latency.
	PoolWait time.Duration
	// Chunks is how many chunks the cursor handed its consumer: rows
	// over Chunks is the rows each handoff (and each write and flush of
	// a streaming consumer) carried.
	Chunks int
}

// Accumulate folds another execution's counters into s — the shard
// coordinator sums the per-member statistics of a scatter-gathered
// query this way. Elapsed and PatternOrder are deliberately left
// untouched: wall-clock belongs to the merging execution, and member
// plans are scheduled independently per shard.
func (s *ExecStats) Accumulate(o ExecStats) {
	s.ScannedEvents += o.ScannedEvents
	s.Bindings += o.Bindings
	s.Partitions += o.Partitions
	s.SegmentHits += o.SegmentHits
	s.SegmentMisses += o.SegmentMisses
	s.EstimateUnits += o.EstimateUnits
	s.EstimateProbes += o.EstimateProbes
	s.EntitiesExamined += o.EntitiesExamined
	s.ResolveHits += o.ResolveHits
	s.ResolveExtends += o.ResolveExtends
	s.ResolveMisses += o.ResolveMisses
	s.PoolWait += o.PoolWait
	s.Chunks += o.Chunks
}

func (s *ExecStats) addResolve(r resolveStats) {
	s.EntitiesExamined += r.examined
	s.ResolveHits += r.hits
	s.ResolveExtends += r.extends
	s.ResolveMisses += r.misses
}

// Len returns the number of result rows.
func (r *Result) Len() int { return len(r.Rows) }

// RowLess is the canonical row ordering of a finished result:
// lexicographic over the rendered cells, shorter rows first on a shared
// prefix. It is exported because it is a cross-process contract — the
// shard coordinator merge-sorts member row streams with exactly this
// comparator, so a scatter-gathered result is byte-identical to the
// same query executed against one store.
func RowLess(a, b []string) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return len(a) < len(b)
}

// SortRows orders rows lexicographically (RowLess), making result sets
// canonical for comparison and display.
func (r *Result) SortRows() {
	sort.Slice(r.Rows, func(i, j int) bool { return RowLess(r.Rows[i], r.Rows[j]) })
}

// Table renders the result as an aligned text table.
func (r *Result) Table() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		writeRow(row)
	}
	return b.String()
}

// RowSet returns the rows as a set of opaque per-row keys (equal keys,
// equal rows), for equality checks that ignore row order and duplicates.
func (r *Result) RowSet() map[string]struct{} {
	set := make(map[string]struct{}, len(r.Rows))
	for _, row := range r.Rows {
		set[rowKeyString(row)] = struct{}{}
	}
	return set
}
