// Hunt-path benchmarks behind `make bench-hunt` (BENCH_hunt.json): one
// per stage of plan → scan → emit, each on the shape that made its
// stage the bottleneck of a broad, never-repeated investigation query.
//
//	BenchmarkPlanWideEntitySet   scheduling a two-pattern query whose
//	                             first pattern resolves to 2 000 processes,
//	                             over 960 segments of ~25 subjects each
//	BenchmarkScanProjected/...   a full scan of a cold, reopened v2 store
//	                             returning one, three, or all six of the
//	                             block-compressed columns
//	BenchmarkStreamDrain         draining a 50k-row single-pattern stream,
//	                             with allocations per row
package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
)

// huntBenchRecords is 40 hosts × 24 hours — 960 chunks — of file writes
// by processes drawn from a pool of 3 000, two in three named cmd.exe,
// so `proc p["%cmd.exe"]` resolves to 2 000 IDs of which any one segment
// knows about 25.
func huntBenchRecords() []eventstore.Record {
	const hosts, hours, perChunk, pool = 40, 24, 25, 3000
	day := time.Date(2018, 5, 10, 0, 0, 0, 0, time.UTC)
	recs := make([]eventstore.Record, 0, hosts*hours*2*perChunk)
	chunk := 0
	for a := 1; a <= hosts; a++ {
		for h := 0; h < hours; h++ {
			for j := 0; j < 2*perChunk; j++ {
				k := (chunk*perChunk + j%perChunk) % pool
				exe := "svc.exe"
				if k%3 != 0 {
					exe = "cmd.exe"
				}
				rec := eventstore.Record{
					AgentID: uint32(a),
					Subject: sysmon.Process{PID: uint32(1000 + k), ExeName: exe, Path: `C:\Windows\` + exe, User: "u"},
					Op:      sysmon.OpWrite,
					ObjType: sysmon.EntityFile,
					ObjFile: sysmon.File{Path: fmt.Sprintf(`C:\data\%d\out%d.log`, a, j%11)},
					StartTS: day.Add(time.Duration(h)*time.Hour + time.Duration(j)*time.Minute).UnixNano(),
					Amount:  uint64(64 + j),
				}
				if j%10 == 0 {
					rec.Op, rec.ObjType, rec.ObjFile = sysmon.OpStart, sysmon.EntityProcess, sysmon.File{}
					rec.ObjProc = sysmon.Process{PID: uint32(1000 + (k+1)%pool), ExeName: "svc.exe", Path: `C:\Windows\svc.exe`, User: "u"}
				}
				recs = append(recs, rec)
			}
			chunk++
		}
	}
	return recs
}

// BenchmarkPlanWideEntitySet measures Prepare — parse, check, estimate,
// schedule — for the hunt workload's spawn join. Nearly all of it used to
// be probing each of the 2 000 candidate IDs into each segment's posting
// map; probes/op is what is left.
func BenchmarkPlanWideEntitySet(b *testing.B) {
	s := eventstore.New(eventstore.DefaultOptions())
	if err := s.AppendAll(huntBenchRecords()); err != nil {
		b.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	if n := s.NumSegments(); n != 960 {
		b.Fatalf("%d segments, want 960", n)
	}
	e := New(s)
	const q = `proc p1["%cmd.exe"] start proc p2 as evt1
proc p2 write file f as evt2
with evt1 before evt2
return distinct p1, p2, f`
	if _, err := e.Prepare(q); err != nil { // first use builds the posting indexes
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var probes int64
	for i := 0; i < b.N; i++ {
		p, err := e.compile(q)
		if err != nil {
			b.Fatal(err)
		}
		cost, err := e.schedulePrepared(p)
		if err != nil {
			b.Fatal(err)
		}
		probes = cost.Probes
	}
	b.ReportMetric(float64(probes), "probes/op")
}

// BenchmarkScanProjected drains one full-store pattern from a durable
// store reopened for every iteration — cold block cache, every block a
// scan touches decoded — under three return clauses. The scan work is
// identical; what differs is how many of the six compressed columns the
// return clause makes it decode.
func BenchmarkScanProjected(b *testing.B) {
	opts := eventstore.DefaultOptions()
	opts.Dir = b.TempDir()
	s, err := eventstore.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.AppendAll(huntBenchRecords()); err != nil {
		b.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, ret string }{
		{"p", `return p`},
		{"p_f_amount", `return p, f, evt.amount`},
		{"all", `return p, f, evt, evt.endtime, evt.amount, evt.seq`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var blocks uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := eventstore.Open(opts)
				if err != nil {
					b.Fatal(err)
				}
				e := NewWithConfig(s, Config{ScanWorkers: 1})
				b.StartTimer()
				cur, err := e.ExecuteCursor(context.Background(), `proc p write file f as evt `+bc.ret, CursorOptions{})
				if err != nil {
					b.Fatal(err)
				}
				rows := 0
				for cur.Next() {
					rows++
				}
				cur.Close()
				b.StopTimer()
				if err := cur.Err(); err != nil || rows == 0 {
					b.Fatalf("%d rows, err %v", rows, err)
				}
				blocks = s.BlockCacheStats().Misses
				s.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(blocks), "blocks/op")
		})
	}
}

// BenchmarkStreamDrain drains a 50k-row single-pattern result through
// the cursor on an in-memory store: join → project → emit and nothing
// else. allocs/row is the whole cost of a row on that path — the row
// slice and its one rendered number.
func BenchmarkStreamDrain(b *testing.B) {
	const events = 50000
	e := NewWithConfig(buildWideStore(b, events), Config{ScanWorkers: 1})
	drain := func() {
		cur, err := e.ExecuteCursor(context.Background(), `proc p write file f as evt return p, f, evt.amount`, CursorOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for cur.Next() {
			rows++
		}
		cur.Close()
		if rows != events {
			b.Fatalf("drained %d rows, want %d", rows, events)
		}
	}
	drain()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/events, "allocs/row")
}
