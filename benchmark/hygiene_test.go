package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestAllWorkloads is the smoke, schema and hygiene test in one run:
// every workload, both passes, at the tiny scale. Each pass must be
// correct and carry exactly the declared metrics; afterwards no
// goroutine the run started may be left, nor any scratch directory.
func TestAllWorkloads(t *testing.T) {
	baseline := runtime.NumGoroutine()
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := realMain(context.Background(), []string{"-workload", "all", "-scale", "tiny", "-seconds", "1", "-seed", "5", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	var doc map[string]map[string]result
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &doc); err != nil {
		t.Fatalf("output is not one JSON document: %v\n%s", err, stdout.String())
	}
	if len(doc) != len(workloadNames) {
		t.Errorf("document has %d workloads, want %d", len(doc), len(workloadNames))
	}
	for _, w := range workloadNames {
		for pass, table := range map[string][]metricDef{"end_to_end": endToEnd, "per_layer": perLayer} {
			res, ok := doc[w][pass]
			if !ok {
				t.Errorf("%s: no %s pass", w, pass)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d", w, pass, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s %s: %d metrics, want %d", w, pass, len(res.Metrics), len(table))
			}
			for _, d := range table {
				m, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s %s: metric %s missing", w, pass, d.name)
				} else if m.Unit != d.unit {
					t.Errorf("%s %s: metric %s in %q, want %q", w, pass, d.name, m.Unit, d.unit)
				}
				if pass == "end_to_end" && ok && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, d.name, m.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "spans-"+w+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w, err)
		}
	}
	if v := doc["bulk_load"]["per_layer"].Metrics["durable.wal_syncs_per_batch"].Value; v != 1 {
		t.Errorf("bulk_load: %v WAL syncs per batch, want exactly 1", v)
	}

	assertNoScratch(t, out)
	// Goroutines unwind asynchronously after their contexts are cancelled.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the run, %d before\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// assertNoScratch fails if a run's scratch directory survived in out.
func assertNoScratch(t *testing.T, out string) {
	t.Helper()
	ents, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "spans-") {
			t.Errorf("left behind in %s: %s", out, e.Name())
		}
	}
}

// TestWatchdog: a pass that exceeds -max-wall stops, cleans up and
// reports failure without printing a result.
func TestWatchdog(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := realMain(context.Background(), []string{"-workload", "investigate", "-scale", "tiny", "-seconds", "1", "-max-wall", "300ms", "-out", out}, &stdout, &stderr)
	if code == 0 {
		t.Errorf("exit code 0, want failure\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a result: %s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "watchdog") {
		t.Errorf("stderr does not name the watchdog: %s", stderr.String())
	}
	assertNoScratch(t, out)
}
