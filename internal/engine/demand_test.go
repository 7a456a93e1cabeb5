package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/sysmon"
)

// planCols compiles src against an empty store and returns each
// pattern's column demand by alias.
func planCols(t *testing.T, e *Engine, src string) map[string]eventstore.ColMask {
	t.Helper()
	p, err := e.Prepare(src)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	var plan *queryPlan
	if p.aq != nil {
		plan, err = e.anomalyPlan(e.store.Snapshot(), p.aq)
	} else {
		plan, err = e.compilePatterns(e.store.Snapshot(), p.mq, false)
	}
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	out := map[string]eventstore.ColMask{}
	for _, pp := range plan.patterns {
		out[pp.alias] = pp.cols
	}
	return out
}

// TestDemandAnalysis pins what each way of reading an event costs the
// scan: query text in, per-pattern column mask out. Agent, operation and
// start time are free (key and timestamp columns), so they never appear.
func TestDemandAnalysis(t *testing.T) {
	const (
		id, sub, obj = eventstore.ColID, eventstore.ColSubject, eventstore.ColObject
		end, amt     = eventstore.ColEndTS, eventstore.ColAmount
	)
	e := New(eventstore.New(eventstore.DefaultOptions()))
	for _, tc := range []struct {
		name, src string
		want      map[string]eventstore.ColMask
	}{
		{"entities only", `proc p write file f as evt return p, f`,
			map[string]eventstore.ColMask{"evt": sub | obj}},
		{"unreturned endpoint is not gathered", `proc p write file f as evt return p`,
			map[string]eventstore.ColMask{"evt": sub}},
		{"temporal relation orders by start time, then ID",
			`proc p1 start proc p2 as evt1 proc p2 write file f as evt2 with evt1 before evt2 return p1, f`,
			map[string]eventstore.ColMask{"evt1": id | sub | obj, "evt2": id | sub | obj}},
		{"join endpoint without a relation",
			`proc p1 write file f as evt1 proc p2 read file f as evt2 return p2`,
			map[string]eventstore.ColMask{"evt1": obj, "evt2": sub | obj}},
		{"bare event alias is its ID", `proc p write file f as evt return evt`,
			map[string]eventstore.ColMask{"evt": id}},
		{"event predicate", `proc p write file f as evt with evt.amount > 100 return p`,
			map[string]eventstore.ColMask{"evt": sub | amt}},
		{"returned event attribute", `proc p write file f as evt return evt.endtime`,
			map[string]eventstore.ColMask{"evt": end}},
		{"free event attributes", `proc p read file f as evt return distinct evt.agentid, evt.optype, evt.starttime, p`,
			map[string]eventstore.ColMask{"evt": sub}},
		{"self loop keeps both endpoints", `proc p start proc p as evt return evt.seq`,
			map[string]eventstore.ColMask{"evt": sub | obj | eventstore.ColSeq}},
		{"anomaly aggregate and group key", `window = 10 min, step = 5 min
proc p write ip i as evt
return p, avg(evt.amount) as amt
group by p
having amt > 2 * amt[1]`,
			map[string]eventstore.ColMask{"evt": sub | amt}},
		{"count(evt) reads nothing of the event", `window = 10 min, step = 5 min
proc p write ip i as evt
return i, count(evt) as n
group by i`,
			map[string]eventstore.ColMask{"evt": obj}},
	} {
		if got := planCols(t, e, tc.src); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: demand %#v, want %#v", tc.name, got, tc.want)
		}
	}
}

// tabStore holds two read events whose (process, file) names differ
// only in where a tab falls — the rows a separator-joined dedup key
// cannot tell apart.
func tabStore(t *testing.T) *eventstore.Store {
	t.Helper()
	s := eventstore.New(eventstore.DefaultOptions())
	if err := s.AppendAll([]eventstore.Record{
		{AgentID: 1, Subject: sysmon.Process{PID: 1, ExeName: "a\tb", Path: "/bin/ab", User: "u"}, Op: sysmon.OpRead,
			ObjType: sysmon.EntityFile, ObjFile: sysmon.File{Path: "c"}, StartTS: ts(1), Amount: 1},
		{AgentID: 1, Subject: sysmon.Process{PID: 2, ExeName: "a", Path: "/bin/a", User: "u"}, Op: sysmon.OpRead,
			ObjType: sysmon.EntityFile, ObjFile: sysmon.File{Path: "b\tc"}, StartTS: ts(2), Amount: 1},
	}); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	return s
}

// TestDistinctKeepsRowsDifferingOnlyInTabPlacement: command lines and
// paths may contain tabs, so ("a\tb","c") and ("a","b\tc") are two rows
// and `return distinct` must return both — buffered, streamed, and
// through the anomaly path's cross-window dedup.
func TestDistinctKeepsRowsDifferingOnlyInTabPlacement(t *testing.T) {
	e := New(tabStore(t))
	want := [][]string{{"a", "b\tc"}, {"a\tb", "c"}}
	const q = `proc p read file f as evt return distinct p, f`

	res, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("buffered: rows %q, want %q", res.Rows, want)
	}
	if n := len(res.RowSet()); n != 2 {
		t.Errorf("RowSet has %d members, want 2", n)
	}

	cur, err := e.ExecuteCursor(context.Background(), q, CursorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drain(t, cur)
	if err != nil {
		t.Fatal(err)
	}
	(&Result{Rows: rows}).SortRows()
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("streamed: rows %q, want %q", rows, want)
	}

	res, err = e.Execute(context.Background(), `window = 1 hour, step = 1 hour
proc p read file f as evt
return p, f, count(evt) as n
group by p, f`)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"a", "b\tc", "1"}, {"a\tb", "c", "1"}}; !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("anomaly: rows %q, want %q", res.Rows, want)
	}
}

// findSpan returns the first span named name in the tree.
func findSpan(n *obs.SpanNode, name string) *obs.SpanNode {
	if n == nil || n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if s := findSpan(c, name); s != nil {
			return s
		}
	}
	return nil
}

// TestPlanSpanCarriesEstimateCost: scheduling is planning, not parsing.
// A one-shot two-pattern query's plan span reports the units it asked
// for estimates and the posting probes they cost — the same numbers the
// execution statistics carry — and its parse span reports none; a
// single-pattern query estimates nothing; a statement prepared earlier
// pays at Prepare, so its executions report zero.
func TestPlanSpanCarriesEstimateCost(t *testing.T) {
	e := New(buildAttackStore(t, eventstore.DefaultOptions()))
	traced := func(src string) (*obs.SpanNode, ExecStats) {
		t.Helper()
		tr := obs.NewTrace("query")
		res, err := e.Execute(obs.WithSpan(context.Background(), tr.Root()), src)
		if err != nil {
			t.Fatal(err)
		}
		tr.Root().End()
		return tr.Tree(), res.Stats
	}
	const two = `agentid = 7
proc p3["%sqlservr.exe"] write file f1 as evt2
proc p4["%sbblv.exe"] read file f1 as evt3
with evt2 before evt3
return distinct p3, f1, p4`

	tree, stats := traced(two)
	plan, parse := findSpan(tree, "plan"), findSpan(tree, "parse")
	if plan == nil || parse == nil {
		t.Fatalf("trace lacks a plan or parse span: %+v", tree)
	}
	if stats.EstimateUnits == 0 || stats.EstimateProbes == 0 {
		t.Errorf("two literal patterns: stats report %d estimate units, %d probes; want both > 0", stats.EstimateUnits, stats.EstimateProbes)
	}
	if plan.Attrs["estimate_units"] != stats.EstimateUnits || plan.Attrs["estimate_probes"] != stats.EstimateProbes {
		t.Errorf("plan span attrs %v do not match stats (%d units, %d probes)", plan.Attrs, stats.EstimateUnits, stats.EstimateProbes)
	}
	if _, ok := parse.Attrs["estimate_probes"]; ok || len(parse.Children) != 0 {
		t.Errorf("parse span carries planning: attrs %v, %d children", parse.Attrs, len(parse.Children))
	}
	names := make([]string, len(tree.Children))
	for i, c := range tree.Children {
		names[i] = c.Name
	}
	if got := strings.Join(names, ","); got != "parse,plan,scan evt2,scan evt3" {
		t.Errorf("trace shape %q, want parse,plan,scan evt2,scan evt3", got)
	}

	tree, stats = traced(`proc p write file f as evt return p, f`)
	if plan := findSpan(tree, "plan"); plan == nil || plan.Attrs["estimate_probes"] != 0 || plan.Attrs["estimate_units"] != 0 ||
		stats.EstimateProbes != 0 || stats.EstimateUnits != 0 {
		t.Errorf("single pattern: estimates reported (span %+v, stats %d/%d), want none", plan, stats.EstimateUnits, stats.EstimateProbes)
	}

	p, err := e.Prepare(two)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecutePrepared(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EstimateProbes != 0 || res.Stats.EstimateUnits != 0 {
		t.Errorf("prepared execution reports %d/%d estimate units/probes, want 0: Prepare paid for them",
			res.Stats.EstimateUnits, res.Stats.EstimateProbes)
	}
}

// TestScanCacheServesSubsetDemandOnly: the cache key is the pattern, not
// what a query returns, so a second query demanding no more columns than
// the entry was gathered with is served from it; one demanding more
// rescans with the union and replaces the entry, after which both are
// served.
func TestScanCacheServesSubsetDemandOnly(t *testing.T) {
	s := buildSegmentedStore(t, 16, 160, 0)
	e := New(s)
	e.SetScanCache(8 << 20)
	exec := func(q string) *Result {
		t.Helper()
		res, err := e.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const pattern = `proc p["%worker.exe"] write file f as evt `
	cold := exec(pattern + `return p, f`)
	segs := cold.Stats.SegmentMisses
	if segs == 0 || cold.Stats.SegmentHits != 0 {
		t.Fatalf("cold run: %d hits, %d misses", cold.Stats.SegmentHits, segs)
	}
	if r := exec(pattern + `return distinct p`); r.Stats.SegmentHits != segs || r.Stats.SegmentMisses != 0 {
		t.Errorf("subset demand: %d hits, %d misses; want %d hits", r.Stats.SegmentHits, r.Stats.SegmentMisses, segs)
	}
	wide := exec(pattern + `return p, f, evt.amount`)
	if wide.Stats.SegmentMisses != segs || wide.Stats.SegmentHits != 0 {
		t.Errorf("wider demand: %d hits, %d misses; want %d misses", wide.Stats.SegmentHits, wide.Stats.SegmentMisses, segs)
	}
	sum := 0
	for _, row := range wide.Rows {
		var n int
		fmt.Sscan(row[2], &n)
		sum += n
	}
	if want := 159 * 160 / 2; sum != want {
		t.Errorf("amounts after the widening rescan sum to %d, want %d", sum, want)
	}
	for _, q := range []string{pattern + `return p, f`, pattern + `return p, f, evt.amount`} {
		if r := exec(q); r.Stats.SegmentHits != segs || r.Stats.SegmentMisses != 0 {
			t.Errorf("after widening, %q: %d hits, %d misses; want %d hits", q, r.Stats.SegmentHits, r.Stats.SegmentMisses, segs)
		}
	}
}

// TestSinglePatternDrainAllocations: the streamed final pattern reuses
// one scratch binding, so draining a single-pattern query allocates the
// row and its rendered numeric cells and nothing else per event. Before,
// each event also cost two slices for a binding nobody joined.
func TestSinglePatternDrainAllocations(t *testing.T) {
	const events = 20000
	e := NewWithConfig(buildWideStore(t, events), Config{ScanWorkers: 1})
	perRow := func(q string) float64 {
		t.Helper()
		rows := 0
		allocs := testing.AllocsPerRun(3, func() {
			cur, err := e.ExecuteCursor(context.Background(), q, CursorOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rows = 0
			for cur.Next() {
				rows++
			}
			cur.Close()
		})
		if rows != events {
			t.Fatalf("%q drained %d rows, want %d", q, rows, events)
		}
		return allocs / float64(rows)
	}
	// Planning, per-unit batches and per-chunk slices are the slack: a
	// few hundred allocations per query, a few hundredths per row here.
	const slack = 0.1
	if got := perRow(`proc p write file f as evt return p, f`); got > 1+slack {
		t.Errorf("entity-only projection: %.2f allocations per row, want <= 1 (the row; no binding)", got)
	}
	if got := perRow(`proc p write file f as evt return p, f, evt.amount`); got > 2+slack {
		t.Errorf("one numeric cell: %.2f allocations per row, want <= 2 (the row and the number)", got)
	}
}

// TestAttrMemoDropsOnHighCardinality: a return column naming more
// distinct entities than the memo's cap keeps rendering correctly after
// the memo is dropped (60 000 distinct files here, one per row).
func TestAttrMemoDropsOnHighCardinality(t *testing.T) {
	const events = 3 * attrMemoCap
	e := NewWithConfig(buildWideStore(t, events), Config{ScanWorkers: 1})
	res, err := e.Execute(context.Background(), `proc p write file f as evt return f, evt.amount`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != events {
		t.Fatalf("%d rows, want %d", len(res.Rows), events)
	}
	for _, row := range res.Rows {
		if want := fmt.Sprintf(`C:\data\out%s.log`, row[1]); row[0] != want {
			t.Fatalf("row %q: file name does not match its event (want %q)", row, want)
		}
	}
}
