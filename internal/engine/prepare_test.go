package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/aiql/aiql/internal/aiql/ast"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
)

// query1Param is query1 with the investigation's variable parts
// parameterized: the day, the host, and the tool being investigated.
const query1Param = `
(at $day)
agentid = $agent
proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
proc p4[$tool] read file f1 as evt3
proc p4 read || write ip i1[dstip="%.129"] as evt4
with evt1 before evt2, evt2 before evt3, evt3 before evt4
return distinct p1, p2, p3, f1, p4, i1
`

func TestPrepareSignature(t *testing.T) {
	e := New(buildAttackStore(t, eventstore.DefaultOptions()))
	p, err := e.Prepare(query1Param)
	if err != nil {
		t.Fatal(err)
	}
	want := []ParamSpec{
		{Name: "day", Type: ParamTime},
		{Name: "agent", Type: ParamNumber},
		{Name: "tool", Type: ParamString},
	}
	if !reflect.DeepEqual(p.Params(), want) {
		t.Errorf("signature = %+v, want %+v", p.Params(), want)
	}
	if p.Kind() != "multievent" {
		t.Errorf("kind = %q", p.Kind())
	}
	if len(p.Columns()) != 6 {
		t.Errorf("columns = %v", p.Columns())
	}
}

func TestPreparedExecMatchesLiteralExecution(t *testing.T) {
	e := New(buildAttackStore(t, eventstore.DefaultOptions()))
	p, err := e.Prepare(query1Param)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecutePrepared(context.Background(), p, Params{
		"day": "05/10/2018", "agent": 7, "tool": "%sbblv.exe",
	})
	if err != nil {
		t.Fatal(err)
	}
	lit, err := e.Execute(context.Background(), query1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, lit.Rows) {
		t.Errorf("prepared rows differ from literal execution:\n%s\nvs\n%s", res.Table(), lit.Table())
	}
	// a different binding selects nothing
	empty, err := e.ExecutePrepared(context.Background(), p, Params{
		"day": "05/10/2018", "agent": 7, "tool": "%nosuch.exe",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Rows) != 0 {
		t.Errorf("unexpected rows for non-matching binding:\n%s", empty.Table())
	}
}

func TestPreparedExecuteManyDifferentBindings(t *testing.T) {
	e := New(buildAttackStore(t, eventstore.DefaultOptions()))
	p, err := e.Prepare(`proc p[$exe] write file f return distinct p`)
	if err != nil {
		t.Fatal(err)
	}
	for exe, wantRows := range map[string]int{"%sqlservr.exe": 1, "%svchost.exe": 1, "%cmd.exe": 0, "%": 2} {
		res, err := e.ExecutePrepared(context.Background(), p, Params{"exe": exe})
		if err != nil {
			t.Fatalf("%s: %v", exe, err)
		}
		if len(res.Rows) != wantRows {
			t.Errorf("binding %q: %d rows, want %d", exe, len(res.Rows), wantRows)
		}
	}
}

func TestPreparedDependencyQuery(t *testing.T) {
	e := New(buildAttackStore(t, eventstore.DefaultOptions()))
	p, err := e.Prepare(`agentid = $agent
backward: ip i1[dstip = $dst] <-[write] proc p ->[read] file f
return distinct p, f`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != "dependency" {
		t.Fatalf("kind = %q", p.Kind())
	}
	res, err := e.ExecutePrepared(context.Background(), p, Params{"agent": 7, "dst": "203.0.113.129"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows:\n%s", res.Table())
	}
	if res.Rows[0][0] != "sbblv.exe" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestPreparedAnomalyQuery(t *testing.T) {
	e := New(buildAttackStore(t, eventstore.DefaultOptions()))
	p, err := e.Prepare(`window = 10 min, step = 10 min
proc p write file f {agentid = $agent, amount > $floor} as evt
return p, sum(evt.amount) as amt
group by p
having amt > 1000`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != "anomaly" {
		t.Fatalf("kind = %q", p.Kind())
	}
	res, err := e.ExecutePrepared(context.Background(), p, Params{"agent": 7, "floor": 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "sqlservr.exe" {
		t.Fatalf("rows:\n%s", res.Table())
	}
	// a floor above every write volume empties the result
	res, err = e.ExecutePrepared(context.Background(), p, Params{"agent": 7, "floor": 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows above floor:\n%s", res.Table())
	}
}

func TestBindErrors(t *testing.T) {
	e := New(buildAttackStore(t, eventstore.DefaultOptions()))
	p, err := e.Prepare(query1Param)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		params Params
		code   ParamErrCode
	}{
		{"unknown", Params{"day": "05/10/2018", "agent": 7, "tool": "%x", "bogus": 1}, ParamUnknown},
		{"missing", Params{"day": "05/10/2018", "agent": 7}, ParamMissing},
		{"nil params", nil, ParamMissing},
		{"number gets word", Params{"day": "05/10/2018", "agent": "seven", "tool": "%x"}, ParamMismatch},
		{"time gets garbage", Params{"day": "not a date", "agent": 7, "tool": "%x"}, ParamMismatch},
		{"time gets number", Params{"day": 20180510, "agent": 7, "tool": "%x"}, ParamMismatch},
	}
	for _, tc := range cases {
		_, err := p.Bind(tc.params)
		if err == nil {
			t.Errorf("%s: Bind succeeded", tc.name)
			continue
		}
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Code != tc.code {
			t.Errorf("%s: error %v, want code %s", tc.name, err, tc.code)
		}
	}
}

func TestBindDoesNotMutateTemplate(t *testing.T) {
	e := New(buildAttackStore(t, eventstore.DefaultOptions()))
	p, err := e.Prepare(`(at $day) proc p[$exe] start proc q {agentid = $agent} return p, q`)
	if err != nil {
		t.Fatal(err)
	}
	before := ast.Print(p.mq)
	for i := 0; i < 3; i++ {
		if _, err := p.Bind(Params{"day": "05/10/2018", "exe": fmt.Sprintf("%%tool%d%%", i), "agent": i}); err != nil {
			t.Fatal(err)
		}
	}
	if after := ast.Print(p.mq); after != before {
		t.Errorf("template mutated by Bind:\n%s\nvs\n%s", before, after)
	}
	if p.mq.Head_.Window.AtParam != "day" {
		t.Error("window placeholder resolved in template")
	}
}

// TestBindWildcardsDecideOperator: an equality placeholder bound to a
// wildcard string executes as LIKE, a plain string as exact equality.
func TestBindWildcardsDecideOperator(t *testing.T) {
	e := New(buildAttackStore(t, eventstore.DefaultOptions()))
	p, err := e.Prepare(`proc p[$exe] start proc q return distinct p`)
	if err != nil {
		t.Fatal(err)
	}
	like, err := e.ExecutePrepared(context.Background(), p, Params{"exe": "%cmd%"})
	if err != nil {
		t.Fatal(err)
	}
	if len(like.Rows) != 1 {
		t.Errorf("wildcard binding matched %d rows, want 1", len(like.Rows))
	}
	exact, err := e.ExecutePrepared(context.Background(), p, Params{"exe": "cmd.exe"})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Rows) != 1 {
		t.Errorf("exact binding matched %d rows, want 1", len(exact.Rows))
	}
	prefix, err := e.ExecutePrepared(context.Background(), p, Params{"exe": "cmd"})
	if err != nil {
		t.Fatal(err)
	}
	if len(prefix.Rows) != 0 {
		t.Errorf("exact binding %q matched %d rows, want 0 (no LIKE semantics without wildcards)", "cmd", len(prefix.Rows))
	}
}

func TestBindTimeWindow(t *testing.T) {
	e := New(buildAttackStore(t, eventstore.DefaultOptions()))
	p, err := e.Prepare(`(from $a to $b) proc p["%sbblv.exe"] read file f return p, f`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecutePrepared(context.Background(), p, Params{"a": "05/10/2018", "b": "05/11/2018"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows:\n%s", res.Table())
	}
	// empty window rejected at bind time
	_, err = p.Bind(Params{"a": "05/11/2018", "b": "05/10/2018"})
	var pe *ParamError
	if !errors.As(err, &pe) {
		t.Errorf("empty window error = %v", err)
	}
}

func TestFingerprintNormalizesFormatting(t *testing.T) {
	a := Fingerprint("proc p[$exe]   start proc q\nreturn p")
	b := Fingerprint("proc p[$exe] start proc q return p")
	if a != b {
		t.Error("reformatting changed the fingerprint")
	}
	if Fingerprint("proc p[$other] start proc q return p") == a {
		t.Error("different template shares a fingerprint")
	}
}

// TestUnboundParamRejectedByDirectExecution: executing a parameterized
// AST without binding is an explicit error, not a silent mismatch.
func TestUnboundParamRejectedByDirectExecution(t *testing.T) {
	e := New(buildAttackStore(t, eventstore.DefaultOptions()))
	if _, err := e.Execute(context.Background(), `proc p[$exe] start proc q return p`); err == nil {
		t.Error("Execute of a parameterized query without bindings succeeded")
	}
}

// TestPreparedConcurrentExecutionsUnderAppend prepares once and
// executes from many goroutines while a writer appends and seals —
// the -race check that one immutable Prepared serves concurrent
// executions across store mutations.
func TestPreparedConcurrentExecutionsUnderAppend(t *testing.T) {
	opts := eventstore.DefaultOptions()
	opts.SegmentEvents = 64 // force frequent seals under the writer
	s := buildAttackStore(t, opts)
	e := New(s)
	p, err := e.Prepare(`proc p[$exe] write file f return p, f`)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: append + seal continuously
		defer wg.Done()
		var batch []eventstore.Record
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			batch = append(batch, eventstore.Record{
				AgentID: uint32(1 + i%4), Subject: proc("writer.exe"), Op: sysmon.OpWrite,
				ObjType: sysmon.EntityFile, ObjFile: sysmon.File{Path: fmt.Sprintf(`C:\w\%d.log`, i)},
				StartTS: ts(10 + i),
			})
			if i%50 == 0 {
				s.AppendAll(batch)
				batch = batch[:0]
				s.Flush()
			}
		}
	}()

	const readers = 8
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			exes := []string{"%writer.exe", "%sqlservr.exe", "%"}
			deadline := time.Now().Add(300 * time.Millisecond)
			for time.Now().Before(deadline) {
				res, err := e.ExecutePrepared(context.Background(), p, Params{"exe": exes[r%len(exes)]})
				if err != nil {
					errs <- err
					return
				}
				_ = res.Len()
			}
			errs <- nil
		}(r)
	}
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestExplainPreparedUsesFrozenOrder(t *testing.T) {
	e := New(buildAttackStore(t, eventstore.DefaultOptions()))
	p, err := e.Prepare(query1Param)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := e.ExplainPrepared(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %+v", entries)
	}
	aliases := map[string]bool{}
	for _, en := range entries {
		if en.Estimate < 0 {
			t.Errorf("negative estimate: %+v", en)
		}
		aliases[en.Alias] = true
	}
	for _, want := range []string{"evt1", "evt2", "evt3", "evt4"} {
		if !aliases[want] {
			t.Errorf("alias %s missing from %+v", want, entries)
		}
	}
	// the frozen order is stable across calls
	again, err := e.ExplainPrepared(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if entries[i].Alias != again[i].Alias {
			t.Errorf("explain order unstable: %+v vs %+v", entries, again)
		}
	}
}

// TestParameterlessPlanReuse: a literal statement reuses its
// prepare-time plan while the store is unchanged (including from many
// goroutines at once), and recompiles after a commit moves the store.
func TestParameterlessPlanReuse(t *testing.T) {
	s := buildAttackStore(t, eventstore.DefaultOptions())
	e := New(s)
	p, err := e.Prepare(`proc p["%worker%"] write file f return p, f`)
	if err != nil {
		t.Fatal(err)
	}
	if p.plan == nil {
		t.Fatal("parameterless statement kept no prepare-time plan")
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if res, err := e.ExecutePrepared(context.Background(), p, nil); err != nil || res.Len() != 0 {
					t.Errorf("exec: %v (%d rows)", err, res.Len())
					return
				}
			}
		}()
	}
	wg.Wait()

	// a commit invalidates the frozen candidate sets: the next
	// execution recompiles and sees the new entity
	s.AppendAll([]eventstore.Record{{
		AgentID: 7, Subject: proc("worker.exe"), Op: sysmon.OpWrite,
		ObjType: sysmon.EntityFile, ObjFile: sysmon.File{Path: `C:\w\new.log`}, StartTS: ts(30),
	}})
	s.Flush()
	res, err := e.ExecutePrepared(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("post-append execution missed the new event:\n%s", res.Table())
	}
}
