package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/aiql/aiql/internal/aiql/ast"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/sysmon"
)

// TestEntityResolutionMemo: wildcard entity resolution is memoized
// across executions while the entity table is unchanged, and a commit
// that interns a new matching entity invalidates the memo — the next
// evaluation must see the newcomer.
func TestEntityResolutionMemo(t *testing.T) {
	s := buildSegmentedStore(t, 16, 64, 0)
	e := New(s)
	ctx := context.Background()
	const q = `proc p["%worker.exe"] write file f as evt return p, f`

	first, err := e.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) != 64 {
		t.Fatalf("first run rows = %d, want 64", len(first.Rows))
	}

	// appending events that reuse known entities leaves the process
	// table unchanged: the memo must serve the same (correct) set
	if err := s.AppendAll([]eventstore.Record{{
		AgentID: 1,
		Subject: proc("worker.exe"),
		Op:      sysmon.OpWrite,
		ObjType: sysmon.EntityFile,
		ObjFile: sysmon.File{Path: `C:\data\fresh.log`},
		StartTS: ts(170),
	}}); err != nil {
		t.Fatal(err)
	}
	second, err := e.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Rows) != 65 {
		t.Fatalf("after same-entity append rows = %d, want 65", len(second.Rows))
	}

	// a brand-new process matching the wildcard grows the process table:
	// the memo entry must be extended over it
	if err := s.AppendAll([]eventstore.Record{{
		AgentID: 1,
		Subject: sysmon.Process{PID: 9999, ExeName: "night-worker.exe", Path: `C:\bin\night-worker.exe`, User: "bob"},
		Op:      sysmon.OpWrite,
		ObjType: sysmon.EntityFile,
		ObjFile: sysmon.File{Path: `C:\data\night.log`},
		StartTS: ts(171),
	}}); err != nil {
		t.Fatal(err)
	}
	third, err := e.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(third.Rows) != 66 {
		t.Fatalf("after new-entity append rows = %d, want 66 (memo served a stale entity set)", len(third.Rows))
	}
	found := false
	for _, row := range third.Rows {
		for _, cell := range row {
			if cell != "" && containsNight(cell) {
				found = true
			}
		}
	}
	if !found {
		t.Error("rows never mention the newly interned night-worker.exe")
	}

	// memo population stays bounded by distinct filters
	e.resolveMu.Lock()
	entries := len(e.resolved)
	e.resolveMu.Unlock()
	if entries == 0 || entries > 4 {
		t.Errorf("memo holds %d entries, want the query's single filter (and no unbounded growth)", entries)
	}
}

func containsNight(s string) bool {
	for i := 0; i+5 <= len(s); i++ {
		if s[i:i+5] == "night" {
			return true
		}
	}
	return false
}

// TestEntityResolutionMemoManyFilters: the memo evicts rather than
// growing without bound under an adversarial stream of distinct
// filters, one entry at a time, keeping the entries in use.
func TestEntityResolutionMemoManyFilters(t *testing.T) {
	s := buildSegmentedStore(t, 16, 32, 0)
	e := New(s)
	ctx := context.Background()
	for i := 0; i < entityMatchCap+16; i++ {
		q := fmt.Sprintf(`proc p["%%worker-%d%%"] write file f as evt return p, f`, i)
		if _, err := e.Execute(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	e.resolveMu.Lock()
	entries := len(e.resolved)
	e.resolveMu.Unlock()
	if entries > entityMatchCap {
		t.Errorf("memo grew to %d entries past the %d cap", entries, entityMatchCap)
	}
	if entries < entityMatchCap-1 {
		t.Errorf("memo holds %d entries after overflowing its %d cap: it dropped more than one", entries, entityMatchCap)
	}
	// the filter used last is still memoized
	last := fmt.Sprintf(`proc p["%%worker-%d%%"] write file f as evt return p, f`, entityMatchCap+15)
	res, err := e.Execute(ctx, last)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ResolveHits != 1 || res.Stats.ResolveMisses != 0 {
		t.Errorf("re-running the latest filter: %d hits, %d misses; want it served by the memo", res.Stats.ResolveHits, res.Stats.ResolveMisses)
	}
}

// TestEntityResolutionExaminesOnlyNewEntities: a filter's first
// execution resolves from scratch, a re-run after a commit that
// interned no entity of its type is a memo hit examining nothing, and
// one after a commit interning k of them examines exactly those k. The
// plan span carries the same counters as the execution statistics. A
// LIKE and an exact = filter take the same path.
func TestEntityResolutionExaminesOnlyNewEntities(t *testing.T) {
	for name, q := range map[string]string{
		"like":  `proc p["%worker%"] write file f as evt return p, f`,
		"equal": `proc p[exe_name = "Worker.EXE"] write file f as evt return p, f`,
	} {
		t.Run(name, func(t *testing.T) {
			s := buildSegmentedStore(t, 16, 64, 0)
			e := New(s)
			run := func() ExecStats {
				t.Helper()
				tr := obs.NewTrace("query")
				res, err := e.Execute(obs.WithSpan(context.Background(), tr.Root()), q)
				if err != nil {
					t.Fatal(err)
				}
				tr.Root().End()
				if len(res.Rows) == 0 {
					t.Fatal("the filter matches no row")
				}
				plan := findSpan(tr.Tree(), "plan")
				if plan == nil {
					t.Fatal("trace lacks a plan span")
				}
				st := res.Stats
				for name, v := range map[string]int64{"entities_examined": st.EntitiesExamined, "resolve_hits": st.ResolveHits,
					"resolve_extends": st.ResolveExtends, "resolve_misses": st.ResolveMisses} {
					if got, ok := plan.Attrs[name]; !ok || got != v {
						t.Errorf("plan span %s = %v, stats say %d", name, plan.Attrs[name], v)
					}
				}
				return st
			}
			procs := s.Dict().Count(sysmon.EntityProcess)
			if st := run(); st.ResolveMisses != 1 || st.EntitiesExamined != int64(procs) {
				t.Errorf("cold run: %d misses examining %d entities, want 1 examining all %d", st.ResolveMisses, st.EntitiesExamined, procs)
			}

			// new files only: the process filter is a hit
			if err := s.AppendAll([]eventstore.Record{{AgentID: 1, Subject: proc("worker.exe"), Op: sysmon.OpWrite,
				ObjType: sysmon.EntityFile, ObjFile: sysmon.File{Path: `C:\data\only-file.log`}, StartTS: ts(170)}}); err != nil {
				t.Fatal(err)
			}
			if st := run(); st.ResolveHits != 1 || st.EntitiesExamined != 0 {
				t.Errorf("after a file-only commit: %d hits examining %d entities, want 1 hit examining none", st.ResolveHits, st.EntitiesExamined)
			}

			const k = 5
			var recs []eventstore.Record
			for i := 0; i < k; i++ {
				recs = append(recs, eventstore.Record{AgentID: 1,
					Subject: sysmon.Process{PID: uint32(5000 + i), ExeName: fmt.Sprintf("proc-%d.exe", i), User: "carol"},
					Op:      sysmon.OpWrite, ObjType: sysmon.EntityFile, ObjFile: sysmon.File{Path: `C:\data\k.log`}, StartTS: ts(171)})
			}
			if err := s.AppendAll(recs); err != nil {
				t.Fatal(err)
			}
			if st := run(); st.ResolveExtends != 1 || st.EntitiesExamined != k {
				t.Errorf("after interning %d processes: %d extends examining %d entities, want 1 examining exactly %d", k, st.ResolveExtends, st.EntitiesExamined, k)
			}
		})
	}
}

// TestEntityResolutionMemoUnderConcurrentInterns: executions of LIKE,
// =, != and numeric entity filters racing commits that intern new
// entities end with the memo's candidate sets equal to a fresh
// engine's from-scratch resolution, and with the same rows.
func TestEntityResolutionMemoUnderConcurrentInterns(t *testing.T) {
	s := buildSegmentedStore(t, 16, 64, 8)
	e := New(s)
	ctx := context.Background()
	queries := []string{
		`proc p["%worker%"] write file f as evt return distinct p, f`,
		`proc p[exe_name = "Worker-3.exe"] write file f as evt return distinct p, f`,
		`proc p[exe_name != "worker.exe"] write file f as evt return distinct p, f`,
		`proc p[pid >= 5010] write file f as evt return distinct p, f`,
		`proc p write file f[name != "%out1%"] as evt return distinct p, f`,
	}
	const commits = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c := 0; c < commits; c++ {
			recs := make([]eventstore.Record, 4)
			for j := range recs {
				i := c*4 + j
				recs[j] = eventstore.Record{AgentID: 1,
					Subject: sysmon.Process{PID: uint32(5000 + i), ExeName: fmt.Sprintf("Worker-%d.exe", i%7), User: "dave"},
					Op:      sysmon.OpWrite, ObjType: sysmon.EntityFile,
					ObjFile: sysmon.File{Path: fmt.Sprintf(`C:\data
ew%d.log`, i)}, StartTS: ts(100 + i%60)}
			}
			if err := s.AppendAll(recs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, q := range queries {
					if _, err := e.Execute(ctx, q); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	<-done
	fresh := New(s)
	for _, q := range queries {
		got, err := e.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Execute(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s: the memo's engine returns %d rows, a fresh engine %d", q, len(got.Rows), len(want.Rows))
		}
	}
	e.resolveMu.Lock()
	defer e.resolveMu.Unlock()
	for key, ent := range e.resolved {
		ref := &ast.EntityRef{Type: key.typ}
		f := &ast.Filter{Op: key.op, Val: ast.Value{Str: key.str, Num: key.num, IsNum: key.isNum}}
		var rs resolveStats
		scratch, err := fresh.cachedEntityMatch(s.Dict(), ref, key.attr, f, &rs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ent.set.IDs(), scratch.IDs()) {
			t.Errorf("filter %+v: memo holds %v, from scratch %v", key, ent.set.IDs(), scratch.IDs())
		}
	}
}
