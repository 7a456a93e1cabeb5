package engine

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/aiql/aiql/internal/datagen"
	"github.com/aiql/aiql/internal/eventstore"
)

// buildScenarioStore generates a small demo-APT dataset once for the
// invariance tests.
func buildScenarioStore(t *testing.T) *eventstore.Store {
	t.Helper()
	s := eventstore.New(eventstore.DefaultOptions())
	datagen.GenerateInto(s, datagen.Config{
		Seed: 21, Hosts: 8, Events: 8000,
		Scenarios: []datagen.Scenario{datagen.ScenarioDemoAPT},
	})
	return s
}

var invarianceQueries = []string{
	// multievent with joins and order
	`(at "05/10/2018")
agentid = 2
proc p1["%cmd.exe"] start proc p2 as e1
proc p3 write file f["%backup1.dmp"] as e2
proc p4 read file f as e3
with e1 before e2, e2 before e3
return distinct p1, p2, p3, p4, f`,
	// dependency across hosts
	`(at "05/10/2018")
forward: proc p1["%cp%", agentid = 1] ->[write] file f1["%info_stealer%"]
<-[read] proc p2["%apache%"]
->[connect] proc p3[agentid = 5]
return f1, p1, p2, p3`,
	// anomaly
	`(from "05/10/2018 13:00:00" to "05/10/2018 14:00:00")
agentid = 2
window = 2 min, step = 1 min
proc p write ip i as evt
return p, max(evt.amount) as peak
group by p
having peak > 1000000`,
}

// TestResultInvariantUnderScheduling: every engine configuration must
// produce the identical (sorted) result set — the optimizer may only
// change speed, never answers.
func TestResultInvariantUnderScheduling(t *testing.T) {
	store := buildScenarioStore(t)
	configs := []Config{
		{},
		{DisableReordering: true},
		{ScanWorkers: 1},
		{DisableReordering: true, ScanWorkers: 1},
	}
	for qi, src := range invarianceQueries {
		var want [][]string
		for ci, cfg := range configs {
			res, err := NewWithConfig(store, cfg).Execute(context.Background(), src)
			if err != nil {
				t.Fatalf("query %d cfg %+v: %v", qi, cfg, err)
			}
			if ci == 0 {
				want = res.Rows
				if len(want) == 0 {
					t.Fatalf("query %d returned no rows; invariance test is vacuous", qi)
				}
				continue
			}
			if !reflect.DeepEqual(res.Rows, want) {
				t.Errorf("query %d: config %+v disagrees\nwant %v\ngot  %v", qi, cfg, want, res.Rows)
			}
		}
	}
}

// TestResultInvariantUnderStorageLayout: where the events sit — active
// memtables, tiny segments merged by compaction, or segment files
// reopened from a durable directory — must not change answers. Each
// layout is compared with the same records sealed in memory.
func TestResultInvariantUnderStorageLayout(t *testing.T) {
	recs := datagen.Generate(datagen.Config{
		Seed: 21, Hosts: 8, Events: 8000,
		Scenarios: []datagen.Scenario{datagen.ScenarioDemoAPT},
	})
	sealed := eventstore.New(eventstore.DefaultOptions())
	sealed.AppendAll(recs)
	sealed.Flush()

	memtables := eventstore.New(eventstore.DefaultOptions())
	memtables.AppendAll(recs)
	if n := memtables.NumSegments(); n != 0 {
		t.Fatalf("memtable layout sealed %d segments", n)
	}

	// a seal after every 64 records leaves a chain of tiny segments per
	// chunk for compaction to merge
	compacted := eventstore.New(eventstore.DefaultOptions())
	for i := 0; i < len(recs); i += 64 {
		compacted.AppendAll(recs[i:min(i+64, len(recs))])
		compacted.Flush()
	}
	if res := compacted.Compact(); res.Passes == 0 {
		t.Fatalf("compaction merged nothing over %d tiny segments", compacted.NumSegments())
	}

	dirOpts := eventstore.DefaultOptions()
	dirOpts.Dir = filepath.Join(t.TempDir(), "store")
	written, err := eventstore.Open(dirOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := written.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := written.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := written.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := eventstore.Open(dirOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()

	layouts := []struct {
		name  string
		store *eventstore.Store
	}{
		{"memtables", memtables},
		{"compacted", compacted},
		{"reopened", reopened},
	}
	for qi, src := range invarianceQueries {
		want, err := New(sealed).Execute(context.Background(), src)
		if err != nil {
			t.Fatalf("query %d sealed: %v", qi, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("query %d returned no rows; invariance test is vacuous", qi)
		}
		for _, l := range layouts {
			res, err := New(l.store).Execute(context.Background(), src)
			if err != nil {
				t.Fatalf("query %d %s: %v", qi, l.name, err)
			}
			if !reflect.DeepEqual(res.Rows, want.Rows) {
				t.Errorf("query %d: %s layout disagrees\nwant %v\ngot  %v", qi, l.name, want.Rows, res.Rows)
			}
		}
	}
}

// TestDependencyDirectionSymmetry: a forward chain and its reversed
// backward chain describe the same paths.
func TestDependencyDirectionSymmetry(t *testing.T) {
	store := buildScenarioStore(t)
	eng := New(store)
	fwd, err := eng.Execute(context.Background(), `(at "05/10/2018")
forward: proc p1["%cp%", agentid = 1] ->[write] file f1["%info_stealer%"] <-[read] proc p2["%apache%"]
return distinct p1, f1, p2`)
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := eng.Execute(context.Background(), `(at "05/10/2018")
backward: proc p2["%apache%", agentid = 1] ->[read] file f1["%info_stealer%"] <-[write] proc p1["%cp%"]
return distinct p1, f1, p2`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fwd.Rows, bwd.Rows) {
		t.Errorf("forward/backward mismatch:\nfwd %v\nbwd %v", fwd.Rows, bwd.Rows)
	}
	if len(fwd.Rows) == 0 {
		t.Error("symmetry test found no paths; vacuous")
	}
}

// TestWithinBoundPrunes: a tight `within` eliminates matches that a loose
// one admits.
func TestWithinBoundPrunes(t *testing.T) {
	store := buildScenarioStore(t)
	eng := New(store)
	loose, err := eng.Execute(context.Background(), `(at "05/10/2018")
agentid = 2
proc p3 write file f["%backup1.dmp"] as e1
proc p4["%sbblv%"] read file f as e2
with e1 before e2 within 12 hour
return distinct p4`)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := eng.Execute(context.Background(), `(at "05/10/2018")
agentid = 2
proc p3 write file f["%backup1.dmp"] as e1
proc p4["%sbblv%"] read file f as e2
with e1 before e2 within 1 sec
return distinct p4`)
	if err != nil {
		t.Fatal(err)
	}
	if len(loose.Rows) == 0 {
		t.Fatal("loose bound found nothing")
	}
	if len(tight.Rows) >= len(loose.Rows) {
		t.Errorf("tight within (%d rows) should prune below loose (%d rows)",
			len(tight.Rows), len(loose.Rows))
	}
}

// TestDistinctCollapsesDuplicates: without distinct, repeated beacon
// events multiply rows; with distinct they collapse.
func TestDistinctCollapsesDuplicates(t *testing.T) {
	store := buildScenarioStore(t)
	eng := New(store)
	plain, err := eng.Execute(context.Background(), `(at "05/10/2018")
agentid = 2
proc p["%sbblv%"] write ip i as e
return p, i`)
	if err != nil {
		t.Fatal(err)
	}
	dedup, err := eng.Execute(context.Background(), `(at "05/10/2018")
agentid = 2
proc p["%sbblv%"] write ip i as e
return distinct p, i`)
	if err != nil {
		t.Fatal(err)
	}
	if len(dedup.Rows) >= len(plain.Rows) {
		t.Errorf("distinct (%d) should be smaller than plain (%d)", len(dedup.Rows), len(plain.Rows))
	}
	if len(dedup.Rows) != 1 {
		t.Errorf("expected one distinct (process, ip) pair, got %d", len(dedup.Rows))
	}
}
