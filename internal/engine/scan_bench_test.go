// Parallel-scan benchmarks behind `make bench-scan` (BENCH_scan.json),
// measuring the scan executor itself on the Fig4 50k-event demo-apt
// dataset — the full-query benchmarks in the repo root fold in plan,
// join, and sort costs that this PR does not touch.
//
//	BenchmarkScanColdSequential   row-at-a-time reference loop
//	BenchmarkScanColdWorkersK     batch/bitmap executor, K workers
//	BenchmarkScanWarmWorkersK     fully scan-cached executor
//
// Cold WorkersK vs Sequential isolates the batch/bitmap speedup (plus
// worker scaling on multi-core hosts; Workers1 is the executor with no
// added concurrency). Warm Workers1 vs Workers4 should be at parity:
// cache hits skip whole scan tasks, so worker count stops mattering.
package engine

import (
	"context"
	"sync"
	"testing"

	"github.com/aiql/aiql/internal/datagen"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
)

var (
	scanBenchOnce  sync.Once
	scanBenchStore *eventstore.Store
	scanBenchSink  int
)

// scanBenchSetup builds (once) the sealed Fig4 50k store the scan
// benchmarks share; sealing matters because only sealed segments take
// the batch/bitmap path and fill the scan cache.
func scanBenchSetup(b *testing.B) *eventstore.Store {
	scanBenchOnce.Do(func() {
		s := eventstore.New(eventstore.DefaultOptions())
		datagen.GenerateInto(s, datagen.Config{
			Seed:      42,
			Hosts:     10,
			Events:    50000,
			Scenarios: []datagen.Scenario{datagen.ScenarioDemoAPT},
		})
		if err := s.Flush(); err != nil {
			panic(err)
		}
		scanBenchStore = s
	})
	b.ReportAllocs()
	return scanBenchStore
}

// scanBenchFilter is deliberately scan-bound: no agent filter and no
// entity set, so no posting list applies and every segment is filtered
// event by event — and file deletions are rare in the demo-apt
// scenario, so the predicate passes reject nearly all 50k events.
func scanBenchFilter() *eventstore.EventFilter {
	return &eventstore.EventFilter{
		Ops:     []sysmon.Operation{sysmon.OpDelete},
		ObjType: sysmon.EntityFile,
	}
}

// BenchmarkScanColdSequential is the pre-batching reference:
// ScanUnit.Scan, the store's row-at-a-time callback loop the batch
// kernel is cross-checked against, one matches() call per event. The
// engine itself never runs it.
func BenchmarkScanColdSequential(b *testing.B) {
	store := scanBenchSetup(b)
	filter := scanBenchFilter()
	units := store.Snapshot().Units(filter)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		for k := range units {
			units[k].Scan(filter, func(ev *sysmon.Event) bool {
				rows++
				return true
			})
		}
		scanBenchSink = rows
	}
}

func benchScanExecutor(b *testing.B, cfg Config, warm bool) {
	store := scanBenchSetup(b)
	filter := scanBenchFilter()
	e := NewWithConfig(store, cfg)
	units := store.Snapshot().Units(filter)
	run := func() {
		var stats ExecStats
		rows := 0
		err := e.forEachUnitOrdered(context.Background(), units, filter, nil, eventstore.ColAll, &stats, 0,
			func(batch []sysmon.Event) bool {
				rows += len(batch)
				return true
			})
		if err != nil {
			b.Fatal(err)
		}
		scanBenchSink = rows
	}
	if warm {
		run() // prime the scan cache so every measured run hits it
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkScanColdWorkers1(b *testing.B) {
	benchScanExecutor(b, Config{ScanWorkers: 1}, false)
}
func BenchmarkScanColdWorkers2(b *testing.B) {
	benchScanExecutor(b, Config{ScanWorkers: 2}, false)
}
func BenchmarkScanColdWorkers4(b *testing.B) {
	benchScanExecutor(b, Config{ScanWorkers: 4}, false)
}
func BenchmarkScanColdWorkers8(b *testing.B) {
	benchScanExecutor(b, Config{ScanWorkers: 8}, false)
}

func BenchmarkScanWarmWorkers1(b *testing.B) {
	benchScanExecutor(b, Config{ScanWorkers: 1, ScanCacheBytes: 64 << 20}, true)
}
func BenchmarkScanWarmWorkers4(b *testing.B) {
	benchScanExecutor(b, Config{ScanWorkers: 4, ScanCacheBytes: 64 << 20}, true)
}
func BenchmarkScanWarmWorkers8(b *testing.B) {
	benchScanExecutor(b, Config{ScanWorkers: 8, ScanCacheBytes: 64 << 20}, true)
}
