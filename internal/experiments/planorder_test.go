package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/aiql/aiql/internal/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/pattern_order.golden from this run")

// huntTemplates are the seven broad queries of the end-to-end
// benchmark's hunt workload (benchmark/ops.go) over one fixed window:
// the plans whose cost the segment-side estimator changed, so the ones
// whose order must demonstrably not have.
var huntTemplates = []Query{
	{Label: "h-scan", Text: `(from "05/10/2018 02:00:00" to "05/10/2018 08:00:00")
proc p write file f as evt
return p, f, evt.amount`},
	{Label: "h-distinct", Text: `(from "05/10/2018 02:00:00" to "05/10/2018 08:00:00")
proc p read file f as evt
return distinct evt.agentid, p`},
	{Label: "h-net-scan", Text: `(from "05/10/2018 02:00:00" to "05/10/2018 08:00:00")
proc p read || write ip i as evt
return p, i, evt.amount`},
	{Label: "h-spawn-join", Text: `(from "05/10/2018 02:00:00" to "05/10/2018 08:00:00")
proc p1["%cmd.exe"] start proc p2 as evt1
proc p2 write file f as evt2
with evt1 before evt2
return distinct p1, p2, f`},
	{Label: "h-rw-join", Text: `(from "05/10/2018 02:00:00" to "05/10/2018 08:00:00")
agentid = 2
proc p1 write file f as evt1
proc p2 read file f as evt2
with evt1 before evt2
return distinct p1, f, p2`},
	{Label: "h-anomaly", Text: `(from "05/10/2018 02:00:00" to "05/10/2018 20:00:00")
agentid = 2
window = 10 min, step = 5 min
proc p write ip i as evt
return p, avg(evt.amount) as amt
group by p
having amt > 2 * (amt + amt[1] + amt[2]) / 3`},
	{Label: "h-limit50", Text: `(from "05/10/2018 02:00:00" to "05/10/2018 08:00:00")
proc p write file f as evt
return p, f, evt.amount`},
}

// TestPatternOrderGolden pins the scheduled pattern order of all 45
// investigation queries and the seven hunt templates. The order is a
// function of the pruning-power estimates alone, so an estimator change
// that claims to return the same numbers by a cheaper route must leave
// every line of the golden file as it was.
func TestPatternOrderGolden(t *testing.T) {
	var lines []string
	run := func(eng *engine.Engine, qs []Query) {
		for _, q := range qs {
			res, err := eng.Execute(context.Background(), q.Text)
			if err != nil {
				t.Fatalf("%s: %v", q.Label, err)
			}
			lines = append(lines, fmt.Sprintf("%s: %s", q.Label, strings.Join(res.Stats.PatternOrder, " ")))
		}
	}
	fig4 := engine.New(BuildStore(Fig4Dataset(testEvents, testHosts, testSeed)))
	run(fig4, Fig4Queries())
	run(engine.New(BuildStore(Fig5Dataset(testEvents, testHosts, testSeed))), Fig5Queries())
	run(fig4, huntTemplates)
	if len(lines) != 45+7 {
		t.Fatalf("%d plans, want the 45 investigation queries and 7 hunt templates", len(lines))
	}
	got := strings.Join(lines, "\n") + "\n"

	const path = "testdata/pattern_order.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		wantLines := strings.Split(string(want), "\n")
		for i, line := range lines {
			if i >= len(wantLines) || line != wantLines[i] {
				t.Errorf("plan changed: got %q, golden has %q", line, append(wantLines, "")[min(i, len(wantLines))])
			}
		}
		t.Fatalf("pattern orders differ from %s (rerun with -update only if an order change is intended)", path)
	}
}
