// Command aiqlbench regenerates every table and figure of the paper's
// evaluation:
//
//	fig4      — Figure 4: the 19 investigation queries (18 multievent +
//	            1 anomaly) on AIQL vs PostgreSQL w/ optimized storage,
//	            with the total-time speedup headline (paper: 21x)
//	fig5      — Figure 5: the 26 case-study queries on AIQL vs
//	            PostgreSQL w/o optimized storage vs Neo4j (paper: 124x
//	            and 157x)
//	concise   — the conciseness comparison (paper: SQL ≥3.0x
//	            constraints, 3.5x words, 5.2x characters)
//	ablation  — engine-scheduling ablation (pruning-power ordering,
//	            partition parallelism)
//	all       — everything above
//
// There is no storage ablation: entity deduplication, posting indexes,
// (host, hour) chunking and batch commit are the store's one layout.
// The store's footprint is reported by aiqlserver's /api/v1/stats.
//
// Usage:
//
//	aiqlbench -experiment fig4 -events 400000 -hosts 15 -seed 42
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/aiql/aiql/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aiqlbench: ")
	var (
		experiment = flag.String("experiment", "all", "fig4 | fig5 | concise | ablation | all")
		events     = flag.Int("events", 200000, "background events in generated datasets")
		hosts      = flag.Int("hosts", 12, "hosts in generated datasets")
		seed       = flag.Int64("seed", 42, "random seed")
		verify     = flag.Bool("verify", true, "cross-check result sets across engines")
		repeat     = flag.Int("repeat", 1, "repetitions per query (best time kept)")
	)
	flag.Parse()
	opt := experiments.RunOptions{Verify: *verify, Repeat: *repeat}

	run := func(name string, fn func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}

	run("fig4", func() error {
		fmt.Fprintf(os.Stderr, "generating demo-apt dataset (%d events, %d hosts, seed %d)...\n", *events, *hosts, *seed)
		store := experiments.BuildStore(experiments.Fig4Dataset(*events, *hosts, *seed))
		timings, err := experiments.RunFig4(store, opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderComparison(
			"Figure 4: log10 query execution time — AIQL vs PostgreSQL (w/ optimized storage)",
			timings, []string{experiments.EngineAIQL, experiments.EnginePostgres}))
		reportConsistency(timings)
		return nil
	})

	run("fig5", func() error {
		fmt.Fprintf(os.Stderr, "generating atc-case dataset (%d events, %d hosts, seed %d)...\n", *events, *hosts, *seed)
		store := experiments.BuildStore(experiments.Fig5Dataset(*events, *hosts, *seed))
		timings, err := experiments.RunFig5(store, opt)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderComparison(
			"Figure 5: log10 query execution time — AIQL vs PostgreSQL (w/o optimized storage) vs Neo4j",
			timings, []string{experiments.EngineAIQL, experiments.EnginePostgres, experiments.EngineNeo4j}))
		reportConsistency(timings)
		return nil
	})

	run("concise", func() error {
		rows, err := experiments.RunConciseness(experiments.Fig4Queries())
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderConciseness(rows))
		return nil
	})

	run("ablation", func() error {
		store := experiments.BuildStore(experiments.Fig4Dataset(*events, *hosts, *seed))
		rows, err := experiments.RunSchedulingAblation(store)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderScheduling(rows))
		return nil
	})
}

func reportConsistency(timings []experiments.Timing) {
	bad := 0
	for _, t := range timings {
		if t.Verified && !t.Consistent {
			fmt.Fprintf(os.Stderr, "WARNING: %s result sets differ across engines\n", t.Label)
			bad++
		}
	}
	if bad == 0 {
		fmt.Fprintln(os.Stderr, "result sets verified identical across engines")
	}
}
