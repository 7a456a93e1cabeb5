package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/aiql/aiql/internal/aiql/parser"
	"github.com/aiql/aiql/internal/datagen"
	"github.com/aiql/aiql/internal/engine"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/graphdb"
	"github.com/aiql/aiql/internal/relational"
	"github.com/aiql/aiql/internal/translate"
)

// Engine names used in timing maps.
const (
	EngineAIQL     = "AIQL"
	EnginePostgres = "PostgreSQL"
	EngineNeo4j    = "Neo4j"
)

// Timing is one query's measurements across engines.
type Timing struct {
	Label      string
	Kind       string
	Times      map[string]time.Duration
	RowCounts  map[string]int
	Consistent bool // result sets agreed across engines (when verified)
	Verified   bool
}

// RunOptions configure an experiment run.
type RunOptions struct {
	// Verify compares result sets across engines.
	Verify bool
	// Repeat re-runs each query and keeps the best time (default 1).
	Repeat int
}

func (o RunOptions) repeat() int {
	if o.Repeat <= 0 {
		return 1
	}
	return o.Repeat
}

// BuildStore generates a dataset into a fully optimized store.
func BuildStore(cfg datagen.Config) *eventstore.Store {
	s := eventstore.New(eventstore.DefaultOptions())
	datagen.GenerateInto(s, cfg)
	return s
}

func sortedRowKeys(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\t")
	}
	sort.Strings(out)
	return out
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunFig4 executes the Figure-4 workload: every query on the AIQL engine
// and on the relational engine (optimized storage), as in the paper's
// "AIQL vs PostgreSQL (w/ our optimized storage)" comparison.
func RunFig4(store *eventstore.Store, opt RunOptions) ([]Timing, error) {
	rdb := relational.Open(true)
	if err := translate.LoadRelational(rdb, store); err != nil {
		return nil, err
	}
	return runComparison(store, Fig4Queries(), opt, rdb, nil)
}

// RunFig5 executes the Figure-5 workload: every query on the AIQL engine,
// the relational engine without storage optimizations, and the graph
// engine, as in the paper's "AIQL vs PostgreSQL (w/o our optimized
// storage) vs Neo4j" comparison.
func RunFig5(store *eventstore.Store, opt RunOptions) ([]Timing, error) {
	rdb := relational.Open(false)
	if err := translate.LoadRelational(rdb, store); err != nil {
		return nil, err
	}
	g := graphdb.New()
	if err := translate.LoadGraph(g, store); err != nil {
		return nil, err
	}
	return runComparison(store, Fig5Queries(), opt, rdb, g)
}

// runComparison times each query on every configured engine.
func runComparison(store *eventstore.Store, queries []Query, opt RunOptions, rdb *relational.DB, g *graphdb.Graph) ([]Timing, error) {
	eng := engine.New(store)
	var out []Timing
	for _, q := range queries {
		t := Timing{
			Label:      q.Label,
			Kind:       q.Kind,
			Times:      map[string]time.Duration{},
			RowCounts:  map[string]int{},
			Consistent: true,
		}

		var aiqlRows []string
		for r := 0; r < opt.repeat(); r++ {
			start := time.Now()
			res, err := eng.Execute(context.Background(), q.Text)
			if err != nil {
				return nil, fmt.Errorf("%s (AIQL): %w", q.Label, err)
			}
			el := time.Since(start)
			if d, ok := t.Times[EngineAIQL]; !ok || el < d {
				t.Times[EngineAIQL] = el
			}
			t.RowCounts[EngineAIQL] = len(res.Rows)
			if r == 0 {
				aiqlRows = sortedRowKeys(res.Rows)
			}
		}

		if rdb != nil {
			ast, err := parser.Parse(q.Text)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.Label, err)
			}
			sqlText, err := translate.ToSQL(ast)
			if err != nil {
				return nil, fmt.Errorf("%s (ToSQL): %w", q.Label, err)
			}
			for r := 0; r < opt.repeat(); r++ {
				start := time.Now()
				rows, err := rdb.Query(sqlText)
				if err != nil {
					return nil, fmt.Errorf("%s (SQL): %w\n%s", q.Label, err, sqlText)
				}
				el := time.Since(start)
				if d, ok := t.Times[EnginePostgres]; !ok || el < d {
					t.Times[EnginePostgres] = el
				}
				t.RowCounts[EnginePostgres] = len(rows.Data)
				if r == 0 && opt.Verify {
					t.Verified = true
					if !sameRows(aiqlRows, sortedRowKeys(rows.RenderStrings())) {
						t.Consistent = false
					}
				}
			}
		}

		if g != nil && q.Kind != "anomaly" {
			ast, err := parser.Parse(q.Text)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.Label, err)
			}
			pat, err := translate.ToGraphPattern(ast)
			if err != nil {
				return nil, fmt.Errorf("%s (ToGraphPattern): %w", q.Label, err)
			}
			for r := 0; r < opt.repeat(); r++ {
				start := time.Now()
				gres, err := g.Match(pat)
				if err != nil {
					return nil, fmt.Errorf("%s (graph): %w", q.Label, err)
				}
				el := time.Since(start)
				if d, ok := t.Times[EngineNeo4j]; !ok || el < d {
					t.Times[EngineNeo4j] = el
				}
				t.RowCounts[EngineNeo4j] = len(gres.Rows)
				if r == 0 && opt.Verify {
					t.Verified = true
					if !sameRows(aiqlRows, sortedRowKeys(gres.Rows)) {
						t.Consistent = false
					}
				}
			}
		}
		out = append(out, t)
	}
	return out, nil
}

// Totals sums per-engine times across queries.
func Totals(timings []Timing) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, t := range timings {
		for e, d := range t.Times {
			out[e] += d
		}
	}
	return out
}

// Speedup returns total(baseline)/total(AIQL).
func Speedup(timings []Timing, baseline string) float64 {
	tot := Totals(timings)
	a := tot[EngineAIQL]
	b := tot[baseline]
	if a <= 0 {
		return 0
	}
	return float64(b) / float64(a)
}

// ---------------------------------------------------------------- E4

// ConcisenessRow compares one query's metrics across languages.
type ConcisenessRow struct {
	Label  string
	AIQL   MetricsTriple
	SQL    MetricsTriple
	Cypher MetricsTriple // zero when the query has no Cypher form
}

// MetricsTriple mirrors concise.Metrics without the import cycle concern
// for render-side consumers.
type MetricsTriple struct {
	Constraints int
	Words       int
	Chars       int
}

// ---------------------------------------------------------------- E6

// SchedulingVariant is one engine-configuration ablation.
type SchedulingVariant struct {
	Name string
	Cfg  engine.Config
}

// SchedulingVariants enumerates the engine ablation grid.
func SchedulingVariants() []SchedulingVariant {
	return []SchedulingVariant{
		{Name: "optimized", Cfg: engine.Config{}},
		{Name: "no-reordering", Cfg: engine.Config{DisableReordering: true}},
		{Name: "no-parallelism", Cfg: engine.Config{ScanWorkers: 1}},
		{Name: "neither", Cfg: engine.Config{DisableReordering: true, ScanWorkers: 1}},
	}
}

// SchedulingResult is the total Figure-4 workload time per variant.
type SchedulingResult struct {
	Name     string
	Total    time.Duration
	PerQuery map[string]time.Duration
}

// RunSchedulingAblation executes the Figure-4 multievent queries under
// each engine configuration.
func RunSchedulingAblation(store *eventstore.Store) ([]SchedulingResult, error) {
	queries := Fig4Queries()
	var out []SchedulingResult
	for _, v := range SchedulingVariants() {
		eng := engine.NewWithConfig(store, v.Cfg)
		res := SchedulingResult{Name: v.Name, PerQuery: map[string]time.Duration{}}
		for _, q := range queries {
			start := time.Now()
			if _, err := eng.Execute(context.Background(), q.Text); err != nil {
				return nil, fmt.Errorf("scheduling ablation %s/%s: %w", v.Name, q.Label, err)
			}
			el := time.Since(start)
			res.PerQuery[q.Label] = el
			res.Total += el
		}
		out = append(out, res)
	}
	return out, nil
}
