// Observability benchmarks behind `make bench-obs` (BENCH_obs.json):
// the full four-pattern Fig4 investigation query, cold-scanned over the
// 50k-event demo-apt dataset, with and without a query span in the
// context. TraceOn exercises every span the service attaches (parse,
// per-pattern scan/join deltas); the CI gate asserts its ns/op stays
// within 5% of TraceOff, i.e. tracing is cheap enough to leave on for
// every execution.
package engine

import (
	"context"
	"sync"
	"testing"

	"github.com/aiql/aiql/internal/datagen"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/obs"
)

var (
	scanBenchOnce  sync.Once
	scanBenchStore *eventstore.Store
	scanBenchSink  int
)

// scanBenchSetup builds (once) the sealed Fig4 50k store the benchmarks
// share; sealing matters because only sealed segments take the
// batch/bitmap path.
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

// obsBenchQuery is the paper's Query 1 shape against the demo-apt
// scenario.
const obsBenchQuery = `(at "05/10/2018")
agentid = 2
proc p1 start proc p2 as evt1
proc p2 read file f1 as evt2
proc p2 write ip i1 as evt3
with evt1 before evt2, evt2 before evt3
return distinct p1, p2, f1, i1`

func benchObsFig4(b *testing.B, traced bool) {
	// New with the zero Config installs no scan cache, so every
	// iteration re-scans the sealed segments: the overhead bound is
	// about the cold path, where the per-scan baseline captures sit.
	e := New(scanBenchSetup(b))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCtx := ctx
		var tr *obs.Trace
		if traced {
			tr = obs.NewTrace("query")
			runCtx = obs.WithSpan(ctx, tr.Root())
		}
		res, err := e.Execute(runCtx, obsBenchQuery)
		if err != nil {
			b.Fatal(err)
		}
		if traced {
			tr.Root().End()
			if tr.Tree() == nil {
				b.Fatal("traced run produced no span tree")
			}
		}
		scanBenchSink = len(res.Rows)
	}
}

func BenchmarkObsFig4TraceOff(b *testing.B) { benchObsFig4(b, false) }
func BenchmarkObsFig4TraceOn(b *testing.B)  { benchObsFig4(b, true) }
