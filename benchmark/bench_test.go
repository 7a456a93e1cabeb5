package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func loadSpec(t *testing.T) spec {
	t.Helper()
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecMatchesTables pins BENCHMARK.json to the program's metric
// tables and workload list: same names, same units, nothing undeclared.
func TestSpecMatchesTables(t *testing.T) {
	sp := loadSpec(t)
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames, ","); got != want {
		t.Errorf("workloads: BENCHMARK.json has %s, the program runs %s", got, want)
	}
	check := func(kind string, declared []specMetric, table []metricDef, bounded bool) {
		if len(declared) != len(table) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program emits %d", kind, len(declared), len(table))
		}
		units := map[string]string{}
		for _, d := range table {
			units[d.name] = d.unit
		}
		for _, m := range declared {
			if unit, ok := units[m.Name]; !ok {
				t.Errorf("%s: %s is declared but never emitted", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s: %s is declared in %s, emitted in %s", kind, m.Name, m.Unit, unit)
			}
			delete(units, m.Name)
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s: better must be lower or higher", kind, m.Name)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
		for name := range units {
			t.Errorf("%s: %s is emitted but not declared", kind, name)
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd, true)
	check("per_layer", sp.PerLayer, perLayer, false)
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", sp.Paths)
	}
}

// TestCompare feeds -compare two run logs and checks the three verdicts.
func TestCompare(t *testing.T) {
	sp := loadSpec(t)
	dir := t.TempDir()
	write := func(name string, scale func(metric string, i int) float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 8; i++ {
			res := result{Correct: true, Attempted: 10, Metrics: map[string]metric{}}
			for _, m := range sp.EndToEnd {
				res.Metrics[m.Name] = metric{Value: 100 * scale(m.Name, i), Unit: m.Unit}
			}
			if err := appendLog(path, logLine{Workload: "hunt", Seed: int64(i), Result: res}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", func(string, int) float64 { return 1 })
	b := write("b.jsonl", func(m string, i int) float64 {
		switch m {
		case "query_p50_ms": // lower is better: 50 % worse
			return 1.5
		case "query_p90_ms": // too noisy to tell
			return 1 + float64(i%4)
		}
		return 1.01
	})
	var outBuf bytes.Buffer
	err := compareLogs(&outBuf, "../BENCHMARK.json", a, b)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("compare error = %v, want a regression", err)
	}
	for metric, verdict := range map[string]string{"query_p50_ms": "regressed", "query_p90_ms": "unresolved", "setup_s": "ok"} {
		found := false
		for _, line := range strings.Split(outBuf.String(), "\n") {
			if strings.Contains(line, " "+metric+" ") && strings.HasSuffix(strings.TrimSpace(line), verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q row for %s in:\n%s", verdict, metric, outBuf.String())
		}
	}
}
