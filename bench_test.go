// Benchmarks regenerating the paper's evaluation artifacts. Each
// figure/table has one benchmark (with per-query sub-benchmarks for the
// figures' individual bars):
//
//	Figure 4  — BenchmarkFig4AIQL, BenchmarkFig4PostgreSQL
//	Figure 5  — BenchmarkFig5AIQL, BenchmarkFig5PostgreSQLNoOpt,
//	            BenchmarkFig5Neo4j
//	Conciseness table — BenchmarkConcisenessTranslation (the metrics
//	            themselves are asserted in TestConcisenessRatios)
//	Storage ablation  — BenchmarkIngest*
//	Scheduling ablation — BenchmarkScheduling*
//
// The full figure-shaped output (log10 times, totals, speedups) comes
// from `go run ./cmd/aiqlbench`; these benchmarks provide the
// stable-environment timings.
package aiql_test

import (
	"context"
	"sync"
	"testing"

	"github.com/aiql/aiql/internal/aiql/parser"
	"github.com/aiql/aiql/internal/datagen"
	"github.com/aiql/aiql/internal/engine"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/experiments"
	"github.com/aiql/aiql/internal/graphdb"
	"github.com/aiql/aiql/internal/relational"
	"github.com/aiql/aiql/internal/translate"
)

// Benchmark dataset sizes, kept modest so the full suite runs in
// minutes; cmd/aiqlbench scales the same workloads up.
const (
	benchFig4Events = 60000
	benchFig5Events = 40000
	benchHosts      = 10
	benchSeed       = 42
)

var (
	fig4Once  sync.Once
	fig4Store *eventstore.Store
	fig4RDB   *relational.DB
	fig4SQL   []string

	fig5Once  sync.Once
	fig5Store *eventstore.Store
	fig5RDB   *relational.DB
	fig5Graph *graphdb.Graph
	fig5Pats  []*graphdb.Pattern
	fig5SQL   []string
)

func fig4Setup(b *testing.B) {
	fig4Once.Do(func() {
		fig4Store = experiments.BuildStore(experiments.Fig4Dataset(benchFig4Events, benchHosts, benchSeed))
		fig4RDB = relational.Open(true)
		if err := translate.LoadRelational(fig4RDB, fig4Store); err != nil {
			panic(err)
		}
		for _, q := range experiments.Fig4Queries() {
			ast, err := parser.Parse(q.Text)
			if err != nil {
				panic(err)
			}
			sql, err := translate.ToSQL(ast)
			if err != nil {
				panic(err)
			}
			fig4SQL = append(fig4SQL, sql)
		}
	})
	b.ReportAllocs()
}

func fig5Setup(b *testing.B) {
	fig5Once.Do(func() {
		fig5Store = experiments.BuildStore(experiments.Fig5Dataset(benchFig5Events, benchHosts, benchSeed))
		fig5RDB = relational.Open(false)
		if err := translate.LoadRelational(fig5RDB, fig5Store); err != nil {
			panic(err)
		}
		fig5Graph = graphdb.New()
		if err := translate.LoadGraph(fig5Graph, fig5Store); err != nil {
			panic(err)
		}
		for _, q := range experiments.Fig5Queries() {
			ast, err := parser.Parse(q.Text)
			if err != nil {
				panic(err)
			}
			sql, err := translate.ToSQL(ast)
			if err != nil {
				panic(err)
			}
			fig5SQL = append(fig5SQL, sql)
			ast2, err := parser.Parse(q.Text)
			if err != nil {
				panic(err)
			}
			pat, err := translate.ToGraphPattern(ast2)
			if err != nil {
				panic(err)
			}
			fig5Pats = append(fig5Pats, pat)
		}
	})
	b.ReportAllocs()
}

// BenchmarkFig4AIQL times each Figure-4 investigation query on the AIQL
// engine (one sub-benchmark per bar).
func BenchmarkFig4AIQL(b *testing.B) {
	fig4Setup(b)
	eng := engine.New(fig4Store)
	for _, q := range experiments.Fig4Queries() {
		b.Run(q.Label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(context.Background(), q.Text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4PostgreSQL times the equivalent SQL on the relational
// baseline with optimized storage (indexes), Figure 4's second series.
func BenchmarkFig4PostgreSQL(b *testing.B) {
	fig4Setup(b)
	queries := experiments.Fig4Queries()
	for i, q := range queries {
		sql := fig4SQL[i]
		b.Run(q.Label, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := fig4RDB.Query(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5AIQL times each Figure-5 case-study query on AIQL.
func BenchmarkFig5AIQL(b *testing.B) {
	fig5Setup(b)
	eng := engine.New(fig5Store)
	for _, q := range experiments.Fig5Queries() {
		b.Run(q.Label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(context.Background(), q.Text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5PostgreSQLNoOpt times the equivalent SQL on the plain-heap
// relational baseline (no indexes), Figure 5's PostgreSQL series.
func BenchmarkFig5PostgreSQLNoOpt(b *testing.B) {
	fig5Setup(b)
	queries := experiments.Fig5Queries()
	for i, q := range queries {
		sql := fig5SQL[i]
		b.Run(q.Label, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := fig5RDB.Query(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5Neo4j times the equivalent graph patterns on the property-
// graph baseline, Figure 5's Neo4j series.
func BenchmarkFig5Neo4j(b *testing.B) {
	fig5Setup(b)
	queries := experiments.Fig5Queries()
	for i, q := range queries {
		pat := fig5Pats[i]
		b.Run(q.Label, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := fig5Graph.Match(pat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConcisenessTranslation measures the query translation +
// metric pipeline behind the conciseness table.
func BenchmarkConcisenessTranslation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunConciseness(experiments.Fig4Queries()); err != nil {
			b.Fatal(err)
		}
	}
}

// Ingest benchmarks: the storage-optimization ablation (E5). Each
// benchmark ingests the same record stream under one storage variant.
func benchIngest(b *testing.B, opts eventstore.Options) {
	recs := datagen.Generate(datagen.Config{
		Seed: benchSeed, Hosts: benchHosts, Events: 20000,
		Scenarios: []datagen.Scenario{datagen.ScenarioDemoAPT},
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := eventstore.New(opts)
		s.AppendAll(recs)
		s.Flush()
	}
}

// BenchmarkIngestAllOptimizations ingests with every optimization on.
func BenchmarkIngestAllOptimizations(b *testing.B) {
	benchIngest(b, eventstore.DefaultOptions())
}

// BenchmarkIngestNoDedup ingests without entity deduplication.
func BenchmarkIngestNoDedup(b *testing.B) {
	o := eventstore.DefaultOptions()
	o.Dedup = false
	benchIngest(b, o)
}

// BenchmarkIngestNoIndexes ingests without attribute/posting indexes.
func BenchmarkIngestNoIndexes(b *testing.B) {
	o := eventstore.DefaultOptions()
	o.Indexes = false
	benchIngest(b, o)
}

// BenchmarkIngestNoPartitioning ingests into a single heap chunk.
func BenchmarkIngestNoPartitioning(b *testing.B) {
	o := eventstore.DefaultOptions()
	o.Partitioning = false
	benchIngest(b, o)
}

// BenchmarkIngestNoBatchCommit ingests with per-event commits.
func BenchmarkIngestNoBatchCommit(b *testing.B) {
	o := eventstore.DefaultOptions()
	o.BatchCommit = false
	benchIngest(b, o)
}

// BenchmarkIngestPlain ingests with every optimization off.
func BenchmarkIngestPlain(b *testing.B) {
	benchIngest(b, eventstore.PlainOptions())
}

// Scheduling benchmarks: the engine ablation (E6) over the Figure-4
// workload.
func benchScheduling(b *testing.B, cfg engine.Config) {
	fig4Setup(b)
	eng := engine.NewWithConfig(fig4Store, cfg)
	queries := experiments.Fig4Queries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := eng.Execute(context.Background(), q.Text); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSchedulingOptimized runs the workload with both scheduling
// optimizations on.
func BenchmarkSchedulingOptimized(b *testing.B) {
	benchScheduling(b, engine.Config{})
}

// BenchmarkSchedulingNoReordering disables pruning-power ordering.
func BenchmarkSchedulingNoReordering(b *testing.B) {
	benchScheduling(b, engine.Config{DisableReordering: true})
}

// BenchmarkSchedulingNoParallelism disables partition-parallel scans.
func BenchmarkSchedulingNoParallelism(b *testing.B) {
	benchScheduling(b, engine.Config{ScanWorkers: 1})
}

// BenchmarkSchedulingNeither disables both.
func BenchmarkSchedulingNeither(b *testing.B) {
	benchScheduling(b, engine.Config{DisableReordering: true, ScanWorkers: 1})
}
