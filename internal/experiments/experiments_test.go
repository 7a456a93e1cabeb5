package experiments

import (
	"context"
	"testing"

	"github.com/aiql/aiql/internal/engine"
)

const (
	testEvents = 20000
	testHosts  = 8
	testSeed   = 42
)

func TestFig4QueriesFindAttackAndAgree(t *testing.T) {
	store := BuildStore(Fig4Dataset(testEvents, testHosts, testSeed))
	timings, err := RunFig4(store, RunOptions{Verify: true})
	if err != nil {
		t.Fatalf("RunFig4: %v", err)
	}
	if len(timings) != 19 {
		t.Fatalf("got %d queries, want 19", len(timings))
	}
	for _, tm := range timings {
		if tm.RowCounts[EngineAIQL] == 0 {
			t.Errorf("%s: AIQL found no rows — query does not match the injected attack", tm.Label)
		}
		if tm.Verified && !tm.Consistent {
			t.Errorf("%s: engines disagree (AIQL %d rows, PostgreSQL %d rows)",
				tm.Label, tm.RowCounts[EngineAIQL], tm.RowCounts[EnginePostgres])
		}
	}
}

func TestFig5QueriesFindAttackAndAgree(t *testing.T) {
	store := BuildStore(Fig5Dataset(testEvents, testHosts, testSeed))
	timings, err := RunFig5(store, RunOptions{Verify: true})
	if err != nil {
		t.Fatalf("RunFig5: %v", err)
	}
	if len(timings) != 26 {
		t.Fatalf("got %d queries, want 26", len(timings))
	}
	for _, tm := range timings {
		if tm.RowCounts[EngineAIQL] == 0 {
			t.Errorf("%s: AIQL found no rows — query does not match the injected attack", tm.Label)
		}
		if tm.Verified && !tm.Consistent {
			t.Errorf("%s: engines disagree (AIQL %d, PostgreSQL %d, Neo4j %d)",
				tm.Label, tm.RowCounts[EngineAIQL], tm.RowCounts[EnginePostgres], tm.RowCounts[EngineNeo4j])
		}
	}
}

func TestAnomalyQueryIsolatesExfiltrationProcesses(t *testing.T) {
	store := BuildStore(Fig4Dataset(testEvents, testHosts, testSeed))
	eng := engine.New(store)
	res, err := eng.Execute(context.Background(), Fig4Queries()[14].Text) // a5-1
	if err != nil {
		t.Fatalf("a5-1: %v", err)
	}
	seen := map[string]bool{}
	for _, row := range res.Rows {
		seen[row[0]] = true
	}
	if !seen["sbblv.exe"] || !seen["powershell.exe"] {
		t.Errorf("anomaly query missed exfiltration processes, got %v", seen)
	}
	if seen["updatesvc.exe"] {
		t.Errorf("anomaly query flagged the benign steady-rate updater")
	}
}

func TestConcisenessRatios(t *testing.T) {
	rows, err := RunConciseness(Fig4Queries())
	if err != nil {
		t.Fatalf("RunConciseness: %v", err)
	}
	var aC, aW, aH, sC, sW, sH int
	for _, r := range rows {
		aC += r.AIQL.Constraints
		aW += r.AIQL.Words
		aH += r.AIQL.Chars
		sC += r.SQL.Constraints
		sW += r.SQL.Words
		sH += r.SQL.Chars
	}
	if sC <= aC || sW <= aW || sH <= aH {
		t.Errorf("SQL should be less concise on every metric: AIQL %d/%d/%d vs SQL %d/%d/%d",
			aC, aW, aH, sC, sW, sH)
	}
	// the paper reports ≥3.0x constraints, 3.5x words, 5.2x characters;
	// require at least a 1.5x gap on each so the claim's direction holds
	if float64(sC) < 1.5*float64(aC) {
		t.Errorf("constraint ratio %.2f below 1.5x", float64(sC)/float64(aC))
	}
	if float64(sW) < 1.5*float64(aW) {
		t.Errorf("word ratio %.2f below 1.5x", float64(sW)/float64(aW))
	}
	if float64(sH) < 1.5*float64(aH) {
		t.Errorf("char ratio %.2f below 1.5x", float64(sH)/float64(aH))
	}
}

func TestSchedulingAblation(t *testing.T) {
	store := BuildStore(Fig4Dataset(testEvents, testHosts, testSeed))
	rows, err := RunSchedulingAblation(store)
	if err != nil {
		t.Fatalf("RunSchedulingAblation: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d variants, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Total <= 0 {
			t.Errorf("variant %s recorded no time", r.Name)
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	store := BuildStore(Fig4Dataset(5000, 6, testSeed))
	timings, err := RunFig4(store, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderComparison("Figure 4", timings, []string{EngineAIQL, EnginePostgres})
	if len(out) < 100 {
		t.Errorf("comparison render too short:\n%s", out)
	}
	rows, err := RunConciseness(Fig4Queries())
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderConciseness(rows); len(out) < 100 {
		t.Errorf("conciseness render too short:\n%s", out)
	}
}
