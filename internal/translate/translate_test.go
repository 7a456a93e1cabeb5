package translate

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/aiql/aiql/internal/aiql/parser"
	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/engine"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/graphdb"
	"github.com/aiql/aiql/internal/relational"
	"github.com/aiql/aiql/internal/sysmon"
)

var base = time.Date(2018, 5, 10, 9, 0, 0, 0, time.UTC)

func ts(min int) int64 { return base.Add(time.Duration(min) * time.Minute).UnixNano() }

func proc(name string) sysmon.Process {
	return sysmon.Process{PID: 100, ExeName: name, Path: `C:\bin\` + name, User: "alice"}
}

func buildStore(t *testing.T) *eventstore.Store {
	t.Helper()
	s := eventstore.New(eventstore.DefaultOptions())
	s.AppendAll(buildRecords())
	s.Flush()
	return s
}

func buildRecords() []eventstore.Record {
	conn129 := sysmon.Netconn{SrcIP: "10.0.0.7", SrcPort: 31000, DstIP: "203.0.113.129", DstPort: 443, Protocol: "tcp"}
	connWeb := sysmon.Netconn{SrcIP: "10.0.0.1", SrcPort: 40000, DstIP: "10.0.0.2", DstPort: 80, Protocol: "tcp"}
	return []eventstore.Record{
		{AgentID: 7, Subject: proc("cmd.exe"), Op: sysmon.OpStart, ObjProc: proc("osql.exe"), StartTS: ts(1)},
		{AgentID: 7, Subject: proc("sqlservr.exe"), Op: sysmon.OpWrite, ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: `C:\data\backup1.dmp`}, StartTS: ts(2), Amount: 9000},
		{AgentID: 7, Subject: proc("sbblv.exe"), Op: sysmon.OpRead, ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: `C:\data\backup1.dmp`}, StartTS: ts(3), Amount: 9000},
		{AgentID: 7, Subject: proc("sbblv.exe"), Op: sysmon.OpWrite, ObjType: sysmon.EntityNetconn,
			ObjConn: conn129, StartTS: ts(4), Amount: 9000},
		{AgentID: 7, Subject: proc("backup.exe"), Op: sysmon.OpRead, ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: `C:\data\backup1.dmp`}, StartTS: ts(0), Amount: 10},
		{AgentID: 1, Subject: proc("cp"), Op: sysmon.OpWrite, ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: "/var/www/info_stealer.sh"}, StartTS: ts(1)},
		{AgentID: 1, Subject: proc("apache2"), Op: sysmon.OpRead, ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: "/var/www/info_stealer.sh"}, StartTS: ts(2)},
		{AgentID: 1, Subject: proc("apache2"), Op: sysmon.OpConnect, ObjType: sysmon.EntityNetconn,
			ObjConn: connWeb, StartTS: ts(3)},
		{AgentID: 2, Subject: proc("wget"), Op: sysmon.OpAccept, ObjType: sysmon.EntityNetconn,
			ObjConn: connWeb, StartTS: ts(4)},
		{AgentID: 2, Subject: proc("wget"), Op: sysmon.OpWrite, ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: "/tmp/info_stealer.sh"}, StartTS: ts(5)},
		{AgentID: 3, Subject: proc("cmd.exe"), Op: sysmon.OpStart, ObjProc: proc("notepad.exe"), StartTS: ts(1)},
		{AgentID: 3, Subject: proc("svchost.exe"), Op: sysmon.OpWrite, ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: `C:\Windows\log.txt`}, StartTS: ts(2), Amount: 64},
	}
}

func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\t")
	}
	sort.Strings(out)
	return out
}

// queries exercised across all three engines.
var crossQueries = []struct {
	name string
	src  string
	sql  bool // run on the relational engine
	gra  bool // run on the graph engine
}{
	{
		name: "query1-exfiltration",
		src: `
agentid = 7
proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
proc p4["%sbblv.exe"] read file f1 as evt3
proc p4 read || write ip i1[dstip="%.129"] as evt4
with evt1 before evt2, evt2 before evt3, evt3 before evt4
return distinct p1, p2, p3, f1, p4, i1`,
		sql: true, gra: true,
	},
	{
		name: "file-readers-with-order",
		src: `
agentid = 7
proc w["%sqlservr.exe"] write file f["%backup1.dmp"] as evt1
proc r read file f as evt2
with evt1 before evt2
return distinct r, f`,
		sql: true, gra: true,
	},
	{
		name: "dependency-forward",
		src: `
forward: proc p1["%cp%", agentid = 1] ->[write] file f1["%info_stealer%"]
<-[read] proc p2["%apache%"]
->[connect] proc p3[agentid = 2]
->[write] file f2["%info_stealer%"]
return f1, p1, p2, p3, f2`,
		sql: true, gra: true,
	},
	{
		name: "time-windowed",
		src: `
(from "05/10/2018 09:00:00" to "05/10/2018 09:03:00")
proc p read || write file f as evt
return distinct p, f`,
		sql: true, gra: true,
	},
	{
		name: "amount-filter",
		src: `
proc p write ip i as evt
with evt.amount > 1000
return distinct p, i`,
		sql: true, gra: true,
	},
	{
		name: "anomaly-tumbling",
		src: `
(from "05/10/2018 09:00:00" to "05/10/2018 09:10:00")
agentid = 7
window = 1 min, step = 1 min
proc p read file f as evt
return p, avg(evt.amount) as amt
group by p
having amt > 0`,
		sql: true, gra: false,
	},
}

func TestCrossEngineEquivalence(t *testing.T) {
	store := buildStore(t)
	eng := engine.New(store)

	rdb := relational.Open(true)
	if err := LoadRelational(rdb, store); err != nil {
		t.Fatalf("LoadRelational: %v", err)
	}
	g := graphdb.New()
	if err := LoadGraph(g, store); err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}

	for _, tc := range crossQueries {
		t.Run(tc.name, func(t *testing.T) {
			res, err := eng.Execute(context.Background(), tc.src)
			if err != nil {
				t.Fatalf("AIQL execute: %v", err)
			}
			want := sortedRows(res.Rows)

			q, err := parser.Parse(tc.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if tc.sql {
				sqlText, err := ToSQL(q)
				if err != nil {
					t.Fatalf("ToSQL: %v", err)
				}
				rows, err := rdb.Query(sqlText)
				if err != nil {
					t.Fatalf("SQL execute: %v\nSQL:\n%s", err, sqlText)
				}
				got := sortedRows(rows.RenderStrings())
				if !reflect.DeepEqual(got, want) {
					t.Errorf("SQL mismatch:\nAIQL: %v\nSQL:  %v\nquery:\n%s", want, got, sqlText)
				}
			}
			if tc.gra {
				q2, err := parser.Parse(tc.src)
				if err != nil {
					t.Fatalf("reparse: %v", err)
				}
				pat, err := ToGraphPattern(q2)
				if err != nil {
					t.Fatalf("ToGraphPattern: %v", err)
				}
				gres, err := g.Match(pat)
				if err != nil {
					t.Fatalf("graph match: %v", err)
				}
				got := sortedRows(gres.Rows)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("graph mismatch:\nAIQL:  %v\ngraph: %v", want, got)
				}
			}
		})
	}
}

func TestCypherGeneration(t *testing.T) {
	q, err := parser.Parse(crossQueries[0].src)
	if err != nil {
		t.Fatal(err)
	}
	cy, err := ToCypher(q)
	if err != nil {
		t.Fatalf("ToCypher: %v", err)
	}
	for _, frag := range []string{"MATCH", "RETURN DISTINCT", "p1:Process", "f1:File", "=~", "READ|WRITE"} {
		if !strings.Contains(cy, frag) {
			t.Errorf("Cypher missing %q:\n%s", frag, cy)
		}
	}
}

func TestAnomalySQLRejectsOverlappingWindows(t *testing.T) {
	q, err := parser.Parse(`
(from "05/10/2018 09:00:00" to "05/10/2018 09:10:00")
window = 1 min, step = 10 sec
proc p write ip i as evt
return p, avg(evt.amount) as amt
group by p
having amt > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ToSQL(q); err == nil {
		t.Fatal("expected ToSQL to reject overlapping windows")
	}
}

func TestGraphPatternRejectsAnomaly(t *testing.T) {
	q, err := parser.Parse(`
window = 1 min, step = 1 min
proc p write ip i as evt
return p, avg(evt.amount) as amt`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ToGraphPattern(q); err == nil {
		t.Fatal("expected ToGraphPattern to reject anomaly queries")
	}
}

func TestLoadRelationalSchema(t *testing.T) {
	store := buildStore(t)
	db := relational.Open(false)
	if err := LoadRelational(db, store); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"events", "processes", "files", "netconns"} {
		tb, ok := db.Table(name)
		if !ok {
			t.Fatalf("missing table %s", name)
		}
		if tb.Len() == 0 {
			t.Errorf("table %s is empty", name)
		}
	}
	ev, _ := db.Table("events")
	if ev.Len() != store.Len() {
		t.Errorf("events table has %d rows, store has %d", ev.Len(), store.Len())
	}
}

func TestLoadGraphCounts(t *testing.T) {
	store := buildStore(t)
	g := graphdb.New()
	if err := LoadGraph(g, store); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != store.Len() {
		t.Errorf("graph has %d edges, store has %d events", g.NumEdges(), store.Len())
	}
	dict := store.Dict()
	wantNodes := dict.Count(sysmon.EntityProcess) + dict.Count(sysmon.EntityFile) + dict.Count(sysmon.EntityNetconn)
	if g.NumNodes() != wantNodes {
		t.Errorf("graph has %d nodes, want %d", g.NumNodes(), wantNodes)
	}
}

// A baseline load over a store one of whose segment files is cut short
// must fail with the read error, not load the rows it could read and
// report success.
func TestLoadersReportUnreadableSegment(t *testing.T) {
	opts := eventstore.DefaultOptions()
	opts.Dir = filepath.Join(t.TempDir(), "store")
	w, err := eventstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendAll(buildRecords()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(opts.Dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files (%v)", err)
	}
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := eventstore.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := LoadRelational(relational.Open(false), store); !errors.Is(err, durable.ErrStorage) {
		t.Errorf("LoadRelational: error %v, want one wrapping durable.ErrStorage", err)
	}
	if err := LoadGraph(graphdb.New(), store); !errors.Is(err, durable.ErrStorage) {
		t.Errorf("LoadGraph: error %v, want one wrapping durable.ErrStorage", err)
	}
}
