package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/aiql/aiql/internal/obs"
)

// sumScanSpans walks a span tree and totals the events_scanned attr of
// every "scan *" span.
func sumScanSpans(n *obs.SpanNode) int64 {
	if n == nil {
		return 0
	}
	var sum int64
	if strings.HasPrefix(n.Name, "scan ") {
		sum += n.Attrs["events_scanned"]
	}
	for _, c := range n.Children {
		sum += sumScanSpans(c)
	}
	return sum
}

// TestTraceSpanTree: a trace-enabled query returns a span tree whose
// scan spans account for exactly the events the untraced counter
// reports (the issue's acceptance criterion).
func TestTraceSpanTree(t *testing.T) {
	svc := New(fig4DB(), Config{})
	resp, err := svc.Do(context.Background(), Request{Query: fig4Query, Trace: true})
	if err != nil {
		t.Fatalf("traced query: %v", err)
	}
	if resp.Trace == nil {
		t.Fatal("trace requested but Response.Trace is nil")
	}
	if resp.Trace.Name != "query" {
		t.Errorf("root span = %q, want query", resp.Trace.Name)
	}
	var names []string
	for _, c := range resp.Trace.Children {
		names = append(names, c.Name)
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "parse") && !strings.Contains(joined, "plan") {
		t.Errorf("trace has no parse/plan span: %v", names)
	}
	if !strings.Contains(joined, "scan ") {
		t.Errorf("trace has no scan spans: %v", names)
	}
	if got, want := sumScanSpans(resp.Trace), resp.Stats.ScannedEvents; got != want {
		t.Errorf("scan spans sum %d events_scanned, Stats.ScannedEvents = %d", got, want)
	}
	if resp.Stats.ScannedEvents == 0 {
		t.Error("fig4 query scanned zero events; trace accounting untestable")
	}
	// rows per chunk is read off the query span
	if got, want := resp.Trace.Attrs["chunks"], int64(resp.Stats.Chunks); got != want || (resp.TotalRows > 0 && got == 0) {
		t.Errorf("query span chunks = %d, Stats.Chunks = %d, for %d rows", got, want, resp.TotalRows)
	}

	// An untraced request must not leak the tree.
	plain, err := svc.Do(context.Background(), Request{Query: fig4Query})
	if err != nil {
		t.Fatalf("untraced query: %v", err)
	}
	if plain.Trace != nil {
		t.Error("untraced response carries a span tree")
	}
}

// TestTraceBypassesResultCache: EXPLAIN ANALYZE semantics — a traced
// request re-executes even when the result cache holds the answer (its
// spans must describe a real execution), but still fills the cache.
func TestTraceBypassesResultCache(t *testing.T) {
	svc := New(newTestDB(t, 50), Config{})
	ctx := context.Background()
	if _, err := svc.Do(ctx, Request{Query: demoQuery}); err != nil {
		t.Fatal(err)
	}
	traced, err := svc.Do(ctx, Request{Query: demoQuery, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Cached {
		t.Error("traced request served from cache; spans describe no execution")
	}
	if traced.Trace == nil {
		t.Error("traced re-execution returned no span tree")
	}
	warm, err := svc.Do(ctx, Request{Query: demoQuery})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Error("traced execution did not refresh the result cache")
	}
}

// TestConcurrentTracedQueries exercises trace-enabled executions racing
// each other and untraced ones (run under -race in CI).
func TestConcurrentTracedQueries(t *testing.T) {
	svc := New(newTestDB(t, 200), Config{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(traced bool) {
			defer wg.Done()
			resp, err := svc.Do(context.Background(), Request{Query: demoQuery, Trace: traced})
			if err != nil {
				errs <- err
				return
			}
			if traced && resp.Trace == nil {
				errs <- errors.New("traced query returned nil trace")
			}
		}(i%2 == 0)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSlowLogRecordsExecutions: with a zero threshold every query lands
// in the log, carrying dataset, normalized text, and span summaries.
func TestSlowLogRecordsExecutions(t *testing.T) {
	sl := obs.NewSlowLog(0)
	svc := New(newTestDB(t, 30), Config{Dataset: "unit", SlowLog: sl})
	if _, err := svc.Do(context.Background(), Request{Query: "  proc   p  write file f as evt\nreturn p, f"}); err != nil {
		t.Fatal(err)
	}
	entries, total := sl.Snapshot()
	if total != 1 || len(entries) != 1 {
		t.Fatalf("slow log has %d entries (total %d), want 1", len(entries), total)
	}
	e := entries[0]
	if e.Dataset != "unit" {
		t.Errorf("dataset = %q, want unit", e.Dataset)
	}
	if e.Query != "proc p write file f as evt return p, f" {
		t.Errorf("query not normalized: %q", e.Query)
	}
	if e.Kind != "multievent" {
		t.Errorf("kind = %q", e.Kind)
	}
	if len(e.Spans) == 0 {
		t.Error("slow entry has no span summaries (untraced executions must still time spans)")
	}
	if e.ScannedEvents == 0 {
		t.Error("slow entry reports zero scanned events")
	}
	if e.DurationMS < 0 {
		t.Errorf("duration = %v", e.DurationMS)
	}
}

// TestStreamSinkErrorStillObserved: when a client disconnects
// mid-stream (row sink fails), latency and scanned-events metrics must
// still be recorded (satellite: disconnect paths feed observability).
func TestStreamSinkErrorStillObserved(t *testing.T) {
	sl := obs.NewSlowLog(0)
	svc := New(newTestDB(t, 100), Config{Dataset: "unit", SlowLog: sl})
	sinkErr := errors.New("client went away")
	n := 0
	resp, err := svc.DoStream(context.Background(), Request{Query: demoQuery},
		func(cols []string, cached bool) error { return nil },
		func(row []string) error {
			n++
			if n >= 3 {
				return sinkErr
			}
			return nil
		})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want the sink error", err)
	}
	if resp == nil {
		t.Fatal("disconnected stream returned nil response; stats are lost")
	}
	st := svc.Stats()
	if st.ScannedEvents == 0 {
		t.Error("disconnect dropped the scanned-events accounting")
	}
	if _, total := sl.Snapshot(); total != 1 {
		t.Errorf("disconnected stream not in slow log (total=%d)", total)
	}
}

// TestScannedEventsNotDoubleCounted: cache hits must not re-count the
// leader's scan work.
func TestScannedEventsNotDoubleCounted(t *testing.T) {
	svc := New(newTestDB(t, 40), Config{})
	ctx := context.Background()
	if _, err := svc.Do(ctx, Request{Query: demoQuery}); err != nil {
		t.Fatal(err)
	}
	cold := svc.Stats().ScannedEvents
	if cold == 0 {
		t.Fatal("cold query scanned zero events")
	}
	if _, err := svc.Do(ctx, Request{Query: demoQuery}); err != nil {
		t.Fatal(err)
	}
	if warm := svc.Stats().ScannedEvents; warm != cold {
		t.Errorf("cache hit re-counted scans: %d -> %d", cold, warm)
	}
}

// TestQueryMetricsRegistered: per-dataset instruments land in the
// registry and move when queries run.
func TestQueryMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	svc := New(newTestDB(t, 25), Config{Dataset: "unit", Metrics: reg})
	if _, err := svc.Do(context.Background(), Request{Query: demoQuery}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `aiql_query_duration_seconds_count{dataset="unit"} 1`) {
		t.Errorf("duration histogram missing/unmoved:\n%s", out)
	}
	if !strings.Contains(out, `aiql_query_scanned_events_total{dataset="unit"} `) ||
		strings.Contains(out, `aiql_query_scanned_events_total{dataset="unit"} 0`) {
		t.Errorf("scanned-events counter missing/unmoved:\n%s", out)
	}
}

// TestHTTPTraceAndSlowEndpoints: the trace flag round-trips the JSON
// API and /api/v1/queries/slow serves the shared log.
func TestHTTPTraceAndSlowEndpoints(t *testing.T) {
	sl := obs.NewSlowLog(0)
	svc := New(newTestDB(t, 10), Config{Dataset: "unit", SlowLog: sl})
	h := svc.Handler()

	rec := doJSON(t, h, http.MethodPost, "/api/v1/query",
		`{"query": "proc p write file f as evt return p, f", "trace": true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	out := decodeResult(t, rec)
	if out.Trace == nil || out.Trace.Name != "query" {
		t.Fatalf("trace missing from JSON response: %+v", out.Trace)
	}

	rec = doJSON(t, h, http.MethodGet, "/api/v1/queries/slow", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("slow endpoint status %d: %s", rec.Code, rec.Body.String())
	}
	var slow SlowQueriesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &slow); err != nil {
		t.Fatalf("decode slow response %q: %v", rec.Body.String(), err)
	}
	if slow.ThresholdMS != 0 || slow.Total != 1 || len(slow.Entries) != 1 {
		t.Fatalf("slow response = %+v, want 1 entry at threshold 0", slow)
	}

	rec = doJSON(t, h, http.MethodPost, "/api/v1/queries/slow", "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST to slow endpoint = %d, want 405", rec.Code)
	}
}

// TestStatsSchemaStableWhenIdle: /api/v1/stats must emit every
// subsystem block, zero-valued, before any query or ingest runs — and
// the new build block must name the runtime.
func TestStatsSchemaStableWhenIdle(t *testing.T) {
	svc := New(newTestDB(t, 5), Config{})
	b, err := json.Marshal(svc.DatasetStats("idle"))
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"dataset", "service", "store", "scan_cache", "scan",
		"durable", "storage", "prepared", "ingest", "watch", "build",
	} {
		if _, ok := top[key]; !ok {
			t.Errorf("idle stats missing %q block; keys=%v", key, keys(top))
		}
	}
	var build obs.BuildInfo
	if err := json.Unmarshal(top["build"], &build); err != nil {
		t.Fatal(err)
	}
	if build.Version == "" || build.GoVersion == "" {
		t.Errorf("build block incomplete: %+v", build)
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
