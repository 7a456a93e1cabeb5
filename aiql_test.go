package aiql_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/durable"
)

func demoDB(t *testing.T) *aiql.DB {
	t.Helper()
	db := aiql.Open()
	db.AppendAll(demoRecords())
	db.Flush()
	return db
}

func demoRecords() []aiql.Record {
	base := time.Date(2018, 5, 10, 13, 30, 0, 0, time.UTC)
	at := func(sec int) int64 { return base.Add(time.Duration(sec) * time.Second).UnixNano() }
	cmd := aiql.Process{PID: 410, ExeName: "cmd.exe", Path: `C:\Windows\System32\cmd.exe`, User: "dbadmin"}
	osql := aiql.Process{PID: 412, ExeName: "osql.exe", Path: `C:\osql.exe`, User: "dbadmin"}
	sqlservr := aiql.Process{PID: 301, ExeName: "sqlservr.exe", Path: `C:\sqlservr.exe`, User: "system"}
	tool := aiql.Process{PID: 905, ExeName: "sbblv.exe", Path: `C:\Temp\sbblv.exe`, User: "dbadmin"}
	dump := aiql.File{Path: `C:\SQLData\backup1.dmp`, Owner: "system"}
	conn := aiql.Netconn{SrcIP: "10.0.0.2", SrcPort: 48600, DstIP: "203.0.113.129", DstPort: 443, Protocol: "tcp"}
	return []aiql.Record{
		{AgentID: 7, Subject: cmd, Op: aiql.OpStart, ObjType: aiql.EntityProcess, ObjProc: osql, StartTS: at(0)},
		{AgentID: 7, Subject: sqlservr, Op: aiql.OpWrite, ObjType: aiql.EntityFile, ObjFile: dump, StartTS: at(30), Amount: 850000},
		{AgentID: 7, Subject: tool, Op: aiql.OpRead, ObjType: aiql.EntityFile, ObjFile: dump, StartTS: at(60), Amount: 850000},
		{AgentID: 7, Subject: tool, Op: aiql.OpWrite, ObjType: aiql.EntityNetconn, ObjConn: conn, StartTS: at(90), Amount: 850000},
	}
}

// writeDemoDir writes the demo records into a durable directory the one
// way a directory is written: open, append, seal, close.
func writeDemoDir(t *testing.T, dir string) {
	t.Helper()
	db, err := aiql.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AppendAll(demoRecords()); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	db := demoDB(t)
	if db.Len() != 4 {
		t.Fatalf("Len = %d", db.Len())
	}
	res, err := db.Query(`
proc p1["%cmd.exe"] start proc p2 as evt1
proc p3 write file f["%backup1.dmp"] as evt2
proc p4 read file f as evt3
with evt1 before evt2, evt2 before evt3
return distinct p1, p2, p3, p4, f`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows:\n%s", res.Table())
	}
	want := []string{"cmd.exe", "osql.exe", "sqlservr.exe", "sbblv.exe", `C:\SQLData\backup1.dmp`}
	for i, cell := range res.Rows[0] {
		if cell != want[i] {
			t.Errorf("col %d = %q, want %q", i, cell, want[i])
		}
	}
}

func TestCheckAndKind(t *testing.T) {
	if err := aiql.Check(`proc p start proc q as e return p`); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := aiql.Check(`proc p start file f as e return p`); err == nil {
		t.Error("invalid query accepted")
	}
	kind, err := aiql.QueryKind(`forward: proc p ->[write] file f return f`)
	if err != nil || kind != "dependency" {
		t.Errorf("kind = %q, %v", kind, err)
	}
	kind, _ = aiql.QueryKind(`window = 1 min, step = 1 min
proc p write ip i as e return count(e)`)
	if kind != "anomaly" {
		t.Errorf("kind = %q", kind)
	}
}

func TestExplainPublic(t *testing.T) {
	db := demoDB(t)
	plan, err := db.Explain(`
proc p1["%cmd.exe"] start proc p2 as evt1
proc p3 write file f as evt2
return p1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "evt1") || !strings.Contains(plan, "estimated matches") {
		t.Errorf("plan = %q", plan)
	}
}

// A database written to disk loads back with the same events and the
// same answers. The one on-disk form is a durable directory, written
// and loaded through OpenDir.
func TestSaveLoadFile(t *testing.T) {
	db := demoDB(t)
	dir := filepath.Join(t.TempDir(), "store")
	writeDemoDir(t, dir)
	db2, err := aiql.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != db.Len() {
		t.Errorf("loaded %d events, want %d", db2.Len(), db.Len())
	}
	res, err := db2.Query(`proc p read file f as e return distinct p, f`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "sbblv.exe" {
		t.Errorf("rows = %v", res.Rows)
	}
}

// The same records written to a durable directory give, once the
// directory is reopened, the answers they give in memory, and the
// directory is a live durable store: it accepts appends and recovers
// them on the next open.
func TestMigrateRoundTrip(t *testing.T) {
	db := demoDB(t)
	want, err := db.Query(investigationQuery)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	writeDemoDir(t, dir)
	dur, err := aiql.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dur.Len() != db.Len() {
		t.Errorf("opened %d events, want %d", dur.Len(), db.Len())
	}
	res, err := dur.Query(investigationQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table() != want.Table() {
		t.Fatalf("query results differ after a write and reopen:\n%s\nwant:\n%s", res.Table(), want.Table())
	}
	if st := dur.DurableStats(); st.SegmentFiles == 0 || st.ManifestEdition == 0 {
		t.Fatalf("durable stats of a written directory: %+v", st)
	}
	dur.AppendAll([]aiql.Record{{
		AgentID: 7,
		Subject: aiql.Process{PID: 999, ExeName: "late.exe", Path: `C:\late.exe`, User: "x"},
		Op:      aiql.OpRead,
		ObjType: aiql.EntityFile,
		ObjFile: aiql.File{Path: `C:\late.txt`},
		StartTS: time.Date(2018, 5, 10, 14, 0, 0, 0, time.UTC).UnixNano(),
	}})
	dur.Flush()
	n := dur.Len()
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := aiql.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != n {
		t.Fatalf("reopened store has %d events, want %d", reopened.Len(), n)
	}
}

// A directory whose MANIFEST is not a manifest fails to open with a
// typed corruption error.
func TestOpenDirRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, durable.ManifestName), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := aiql.OpenDir(dir); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("OpenDir of a corrupt manifest: error %v, want durable.ErrCorrupt", err)
	}
}

// A query whose scan reaches a segment file that cannot be opened or
// decoded must fail with that error: the segment's rows must never
// silently read as absent.
func TestQueryFailsOnCorruptSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	writeDemoDir(t, dir)
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files in %s (%v)", dir, err)
	}
	for _, seg := range segs {
		buf, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)-1] ^= 0xff // the footer magic
		if err := os.WriteFile(seg, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := aiql.OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v (segment files open lazily)", err)
	}
	defer db.Close()
	res, err := db.Query(`proc p read file f as e return distinct p, f`)
	if err == nil {
		t.Fatalf("query over a corrupt segment succeeded with %d rows", len(res.Rows))
	}
	if !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("query error %v, want durable.ErrCorrupt", err)
	}
}

func TestStatsAndTimeRange(t *testing.T) {
	db := demoDB(t)
	st := db.Stats()
	if st.Events != 4 || st.Processes != 4 || st.Files != 1 || st.Netconns != 1 {
		t.Errorf("stats = %+v", st)
	}
	lo, hi := db.TimeRange()
	if !hi.After(lo) {
		t.Errorf("time range [%v, %v]", lo, hi)
	}
}

func TestAnomalyThroughPublicAPI(t *testing.T) {
	db := demoDB(t)
	res, err := db.Query(`
(from "05/10/2018 13:30:00" to "05/10/2018 13:40:00")
window = 1 min, step = 1 min
proc p write ip i as evt
return p, sum(evt.amount) as total
group by p
having total > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "sbblv.exe" {
		t.Errorf("rows = %v", res.Rows)
	}
}

const investigationQuery = `
proc p1["%cmd.exe"] start proc p2 as evt1
proc p3 write file f["%backup1.dmp"] as evt2
proc p4 read file f as evt3
with evt1 before evt2, evt2 before evt3
return distinct p1, p2, p3, p4, f`

// TestPrepareAcceptance is the acceptance check for the prepared API:
// DB.Prepare + Stmt.Exec with typed $name parameters works across the
// multievent, dependency, and anomaly families.
func TestPrepareAcceptance(t *testing.T) {
	db := demoDB(t)
	ctx := context.Background()

	t.Run("multievent", func(t *testing.T) {
		stmt, err := db.Prepare(`
(at $day)
proc p1[$starter] start proc p2 as evt1
proc p3 write file f["%backup1.dmp"] as evt2
proc p4 read file f as evt3
with evt1 before evt2, evt2 before evt3
return distinct p1, p2, p3, p4, f`)
		if err != nil {
			t.Fatal(err)
		}
		sig := stmt.Params()
		if len(sig) != 2 || sig[0] != (aiql.ParamSpec{Name: "day", Type: aiql.ParamTime}) ||
			sig[1] != (aiql.ParamSpec{Name: "starter", Type: aiql.ParamString}) {
			t.Fatalf("signature = %+v", sig)
		}
		res, err := stmt.Exec(ctx, aiql.Params{"day": "05/10/2018", "starter": "%cmd.exe"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != "cmd.exe" {
			t.Fatalf("rows:\n%s", res.Table())
		}
		miss, err := stmt.Exec(ctx, aiql.Params{"day": "05/11/2018", "starter": "%cmd.exe"})
		if err != nil {
			t.Fatal(err)
		}
		if len(miss.Rows) != 0 {
			t.Fatalf("wrong-day binding matched:\n%s", miss.Table())
		}
	})

	t.Run("dependency", func(t *testing.T) {
		stmt, err := db.Prepare(`backward: ip i1[dstip = $dst] <-[write] proc p ->[read] file f
return distinct p, f`)
		if err != nil {
			t.Fatal(err)
		}
		if stmt.Kind() != "dependency" {
			t.Fatalf("kind = %q", stmt.Kind())
		}
		res, err := stmt.Exec(ctx, aiql.Params{"dst": "203.0.113.129"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != "sbblv.exe" {
			t.Fatalf("rows:\n%s", res.Table())
		}
	})

	t.Run("anomaly", func(t *testing.T) {
		stmt, err := db.Prepare(`
(from $a to $b)
window = 1 min, step = 1 min
proc p write ip i as evt
return p, sum(evt.amount) as total
group by p
having total > 0`)
		if err != nil {
			t.Fatal(err)
		}
		if stmt.Kind() != "anomaly" {
			t.Fatalf("kind = %q", stmt.Kind())
		}
		res, err := stmt.Exec(ctx, aiql.Params{"a": "05/10/2018 13:30:00", "b": "05/10/2018 13:40:00"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != "sbblv.exe" {
			t.Fatalf("rows:\n%s", res.Table())
		}
	})

	t.Run("cursor and explain", func(t *testing.T) {
		stmt, err := db.Prepare(`proc p[$exe] read || write file f return p, f`)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := stmt.ExecCursor(ctx, aiql.Params{"exe": "%"}, aiql.CursorOptions{Limit: 1})
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for cur.Next() {
			rows++
		}
		cur.Close()
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		if rows != 1 {
			t.Fatalf("limit-1 cursor yielded %d rows", rows)
		}
		entries, err := stmt.Explain()
		if err != nil || len(entries) != 1 {
			t.Fatalf("explain = %+v, %v", entries, err)
		}
	})

	t.Run("binding errors", func(t *testing.T) {
		stmt, err := db.Prepare(`proc p[$exe] start proc q return p`)
		if err != nil {
			t.Fatal(err)
		}
		var pe *aiql.ParamError
		if err := stmt.Check(aiql.Params{}); !errors.As(err, &pe) {
			t.Errorf("missing binding: %v", err)
		}
		if err := stmt.Check(aiql.Params{"exe": "%x", "nope": 1}); !errors.As(err, &pe) {
			t.Errorf("unknown binding: %v", err)
		}
		if err := stmt.Check(aiql.Params{"exe": "%x"}); err != nil {
			t.Errorf("valid binding rejected: %v", err)
		}
	})
}
