package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
)

var base = time.Date(2018, 5, 10, 9, 0, 0, 0, time.UTC)

func ts(min int) int64 { return base.Add(time.Duration(min) * time.Minute).UnixNano() }

func proc(name string) sysmon.Process {
	return sysmon.Process{PID: 100, ExeName: name, Path: `C:\bin\` + name, User: "alice"}
}

// buildAttackStore assembles the paper's Query-1 scenario (data
// exfiltration from a database server on agent 7) plus background noise
// on other agents.
func buildAttackStore(t *testing.T, opts eventstore.Options) *eventstore.Store {
	t.Helper()
	s := eventstore.New(opts)
	recs := []eventstore.Record{
		// attack trace on agent 7
		{AgentID: 7, Subject: proc("cmd.exe"), Op: sysmon.OpStart,
			ObjProc: proc("osql.exe"), StartTS: ts(1)},
		{AgentID: 7, Subject: proc("sqlservr.exe"), Op: sysmon.OpWrite, ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: `C:\data\backup1.dmp`}, StartTS: ts(2), Amount: 9000},
		{AgentID: 7, Subject: proc("sbblv.exe"), Op: sysmon.OpRead, ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: `C:\data\backup1.dmp`}, StartTS: ts(3), Amount: 9000},
		{AgentID: 7, Subject: proc("sbblv.exe"), Op: sysmon.OpWrite, ObjType: sysmon.EntityNetconn,
			ObjConn: sysmon.Netconn{SrcIP: "10.0.0.7", SrcPort: 31000, DstIP: "203.0.113.129", DstPort: 443, Protocol: "tcp"},
			StartTS: ts(4), Amount: 9000},
		// decoy: same file read but BEFORE the dump was written
		{AgentID: 7, Subject: proc("backup.exe"), Op: sysmon.OpRead, ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: `C:\data\backup1.dmp`}, StartTS: ts(0), Amount: 10},
		// noise on other agents
		{AgentID: 3, Subject: proc("cmd.exe"), Op: sysmon.OpStart,
			ObjProc: proc("notepad.exe"), StartTS: ts(1)},
		{AgentID: 3, Subject: proc("svchost.exe"), Op: sysmon.OpWrite, ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: `C:\Windows\log.txt`}, StartTS: ts(2), Amount: 64},
	}
	s.AppendAll(recs)
	s.Flush()
	return s
}

const query1 = `
(at "05/10/2018")
agentid = 7
proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
proc p4["%sbblv.exe"] read file f1 as evt3
proc p4 read || write ip i1[dstip="%.129"] as evt4
with evt1 before evt2, evt2 before evt3, evt3 before evt4
return distinct p1, p2, p3, f1, p4, i1
`

func TestMultieventQuery1(t *testing.T) {
	s := buildAttackStore(t, eventstore.DefaultOptions())
	e := New(s)
	res, err := e.Execute(context.Background(), query1)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1:\n%s", len(res.Rows), res.Table())
	}
	want := []string{"cmd.exe", "osql.exe", "sqlservr.exe", `C:\data\backup1.dmp`, "sbblv.exe", "203.0.113.129"}
	for i, cell := range res.Rows[0] {
		if cell != want[i] {
			t.Errorf("column %d = %q, want %q", i, cell, want[i])
		}
	}
	if len(res.Columns) != 6 {
		t.Errorf("got %d columns, want 6 (%v)", len(res.Columns), res.Columns)
	}
}

func TestMultieventTemporalFilterExcludesDecoy(t *testing.T) {
	s := buildAttackStore(t, eventstore.DefaultOptions())
	e := New(s)
	// without temporal constraints, both readers of backup1.dmp match
	res, err := e.Execute(context.Background(), `
agentid = 7
proc w["%sqlservr.exe"] write file f["%backup1.dmp"] as evt1
proc r read file f as evt2
return distinct r`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("unconstrained: got %d rows, want 2\n%s", len(res.Rows), res.Table())
	}
	// with evt1 before evt2 only sbblv.exe remains
	res, err = e.Execute(context.Background(), `
agentid = 7
proc w["%sqlservr.exe"] write file f["%backup1.dmp"] as evt1
proc r read file f as evt2
with evt1 before evt2
return distinct r`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "sbblv.exe" {
		t.Fatalf("constrained: got %v, want [[sbblv.exe]]", res.Rows)
	}
}

func TestSchedulingMatchesWithAndWithoutReordering(t *testing.T) {
	s := buildAttackStore(t, eventstore.DefaultOptions())
	for _, cfg := range []Config{{}, {DisableReordering: true}, {ScanWorkers: 1}, {DisableReordering: true, ScanWorkers: 1}} {
		e := NewWithConfig(s, cfg)
		res, err := e.Execute(context.Background(), query1)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if len(res.Rows) != 1 {
			t.Errorf("cfg %+v: got %d rows, want 1", cfg, len(res.Rows))
		}
	}
}

func TestDependencyForwardCrossHost(t *testing.T) {
	s := eventstore.New(eventstore.DefaultOptions())
	conn := sysmon.Netconn{SrcIP: "10.0.0.1", SrcPort: 40000, DstIP: "10.0.0.2", DstPort: 80, Protocol: "tcp"}
	recs := []eventstore.Record{
		{AgentID: 1, Subject: proc("cp"), Op: sysmon.OpWrite, ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: "/var/www/info_stealer.sh"}, StartTS: ts(1)},
		{AgentID: 1, Subject: proc("apache2"), Op: sysmon.OpRead, ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: "/var/www/info_stealer.sh"}, StartTS: ts(2)},
		{AgentID: 1, Subject: proc("apache2"), Op: sysmon.OpConnect, ObjType: sysmon.EntityNetconn,
			ObjConn: conn, StartTS: ts(3)},
		{AgentID: 2, Subject: proc("wget"), Op: sysmon.OpAccept, ObjType: sysmon.EntityNetconn,
			ObjConn: conn, StartTS: ts(4)},
		{AgentID: 2, Subject: proc("wget"), Op: sysmon.OpWrite, ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: "/tmp/info_stealer.sh"}, StartTS: ts(5)},
	}
	s.AppendAll(recs)
	s.Flush()
	e := New(s)
	res, err := e.Execute(context.Background(), `
forward: proc p1["%cp%", agentid = 1] ->[write] file f1["%info_stealer%"]
<-[read] proc p2["%apache%"]
->[connect] proc p3[agentid = 2]
->[write] file f2["%info_stealer%"]
return f1, p1, p2, p3, f2`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1:\n%s", len(res.Rows), res.Table())
	}
	row := res.Rows[0]
	want := []string{"/var/www/info_stealer.sh", "cp", "apache2", "wget", "/tmp/info_stealer.sh"}
	for i := range want {
		if row[i] != want[i] {
			t.Errorf("col %d = %q, want %q", i, row[i], want[i])
		}
	}
}

func TestAnomalyMovingAverage(t *testing.T) {
	s := eventstore.New(eventstore.DefaultOptions())
	conn := sysmon.Netconn{SrcIP: "10.0.0.7", SrcPort: 31000, DstIP: "203.0.113.129", DstPort: 443, Protocol: "tcp"}
	var recs []eventstore.Record
	// steady small transfers for 10 minutes, then a burst
	for m := 0; m < 10; m++ {
		recs = append(recs, eventstore.Record{
			AgentID: 7, Subject: proc("svchost.exe"), Op: sysmon.OpWrite,
			ObjType: sysmon.EntityNetconn, ObjConn: conn,
			StartTS: ts(m), Amount: 100,
		})
	}
	recs = append(recs, eventstore.Record{
		AgentID: 7, Subject: proc("sbblv.exe"), Op: sysmon.OpWrite,
		ObjType: sysmon.EntityNetconn, ObjConn: conn,
		StartTS: ts(11), Amount: 50000,
	})
	s.AppendAll(recs)
	s.Flush()
	e := New(s)
	res, err := e.Execute(context.Background(), `
(from "05/10/2018 09:00:00" to "05/10/2018 09:15:00")
agentid = 7
window = 1 min, step = 1 min
proc p write ip i[dstip="203.0.113.129"] as evt
return p, avg(evt.amount) as amt
group by p
having amt > 2 * (amt + amt[1] + amt[2]) / 3`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	found := false
	for _, row := range res.Rows {
		if row[0] == "sbblv.exe" {
			found = true
		}
		if row[0] == "svchost.exe" {
			t.Errorf("steady-rate process svchost.exe flagged as anomalous: %v", row)
		}
	}
	if !found {
		t.Fatalf("burst process sbblv.exe not flagged:\n%s", res.Table())
	}
}

func TestExplainOrdersBySelectivity(t *testing.T) {
	s := buildAttackStore(t, eventstore.DefaultOptions())
	e := New(s)
	entries, err := e.Explain(query1)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if len(entries) != 4 {
		t.Fatalf("got %d entries, want 4", len(entries))
	}
	// estimates must be non-decreasing only for connected greedy picks;
	// at minimum the first entry must be a minimal-estimate pattern
	for _, e2 := range entries[1:] {
		if entries[0].Estimate > e2.Estimate {
			t.Errorf("first scheduled pattern %q (est %d) is not minimal (%q est %d)",
				entries[0].Alias, entries[0].Estimate, e2.Alias, e2.Estimate)
		}
	}
}

func TestEmptyResultOnContradiction(t *testing.T) {
	s := buildAttackStore(t, eventstore.DefaultOptions())
	e := New(s)
	res, err := e.Execute(context.Background(), `
agentid = 999
proc p1["%cmd.exe"] start proc p2 as evt1
return p1, p2`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("expected no rows for absent agent, got %d", len(res.Rows))
	}
}

func TestSyntaxErrorsSurface(t *testing.T) {
	s := buildAttackStore(t, eventstore.DefaultOptions())
	e := New(s)
	for _, src := range []string{
		`proc p1 start proc p2`,                 // missing return
		`return p1`,                             // unknown variable
		`proc p1 frobnicate proc p2 return p1`,  // unknown op
		`proc p1 start file f1 return p1`,       // op/object mismatch
		`proc p1["x" start proc p2 return p1`,   // unbalanced bracket
		`proc p1 start proc p2 return p1.bogus`, // unknown attribute
		`window = 10 min, step = 20 min proc p write ip i as evt return count(evt)`, // step > window
	} {
		if _, err := e.Execute(context.Background(), src); err == nil {
			t.Errorf("query %q: expected error, got none", strings.TrimSpace(src))
		}
	}
}
