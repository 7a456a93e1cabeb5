package datagen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
)

func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 11, Hosts: 6, Events: 2000, Scenarios: []Scenario{ScenarioDemoAPT}}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	c := Generate(Config{Seed: 12, Hosts: 6, Events: 2000, Scenarios: []Scenario{ScenarioDemoAPT}})
	same := len(a) == len(c)
	if same {
		diff := false
		for i := range a {
			if a[i] != c[i] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

// TestShortDurations: a timeline shorter than a minute used to panic
// (rand.Intn(0) placing admin noise); every span generates, and the
// background events stay inside the configured timeline.
func TestShortDurations(t *testing.T) {
	for _, d := range []time.Duration{time.Second, 59 * time.Second, time.Minute, 90 * time.Minute} {
		recs := Generate(Config{Seed: 5, Hosts: 6, Events: 500, Duration: d})
		if len(recs) < 500 {
			t.Errorf("Duration %s: %d records, want at least the 500 background events", d, len(recs))
		}
		if len(recs) > 0 && recs[0].StartTS < DefaultStart.UnixNano() {
			t.Errorf("Duration %s: first record precedes the timeline start", d)
		}
	}
}

func TestRecordsSortedByTime(t *testing.T) {
	recs := Generate(Config{Seed: 1, Hosts: 6, Events: 3000, Scenarios: []Scenario{ScenarioDemoAPT, ScenarioATCCase}})
	for i := 1; i < len(recs); i++ {
		if recs[i].StartTS < recs[i-1].StartTS {
			t.Fatalf("record %d out of order", i)
		}
	}
}

func TestVolumeScales(t *testing.T) {
	small := len(Generate(Config{Seed: 2, Hosts: 6, Events: 1000}))
	large := len(Generate(Config{Seed: 2, Hosts: 6, Events: 10000}))
	if large <= small {
		t.Errorf("expected more records for a larger budget: %d vs %d", small, large)
	}
}

// findEvent loads the stream into a store and greps for an event whose
// subject, op, and object match.
func findEvent(t *testing.T, s *eventstore.Store, agent uint32, exe string, op sysmon.Operation, objContains string) bool {
	t.Helper()
	found := false
	s.Scan(context.Background(), &eventstore.EventFilter{Agents: []uint32{agent}, Ops: []sysmon.Operation{op}}, func(ev *sysmon.Event) bool {
		subj := s.Dict().Attr(sysmon.EntityProcess, ev.Subject, "exe_name")
		if subj != exe {
			return true
		}
		obj := s.Dict().Attr(ev.ObjType, ev.Object, sysmon.DefaultAttr(ev.ObjType))
		if objContains == "" || containsFold(obj, objContains) {
			found = true
			return false
		}
		return true
	})
	return found
}

func containsFold(s, sub string) bool {
	ls, lsub := lower(s), lower(sub)
	for i := 0; i+len(lsub) <= len(ls); i++ {
		if ls[i:i+len(lsub)] == lsub {
			return true
		}
	}
	return false
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

func TestDemoAPTTracePresent(t *testing.T) {
	s := eventstore.New(eventstore.DefaultOptions())
	GenerateInto(s, Config{Seed: 42, Hosts: 8, Events: 5000, Scenarios: []Scenario{ScenarioDemoAPT}})

	checks := []struct {
		agent uint32
		exe   string
		op    sysmon.Operation
		obj   string
	}{
		{AgentWebServer, "unrealircd", sysmon.OpAccept, "10.0.0.1"},    // a1 (dst of inbound conn)
		{AgentWebServer, "cp", sysmon.OpWrite, "info_stealer"},         // a2
		{FirstWorkstation, "mimikatz.exe", sysmon.OpRead, "lsass"},     // a3
		{AgentDC, "PwDump7.exe", sysmon.OpRead, "ntds.dit"},            // a4
		{AgentDBServer, "sqlservr.exe", sysmon.OpWrite, "backup1.dmp"}, // a5
		{AgentDBServer, "sbblv.exe", sysmon.OpWrite, AttackerIP},       // a5 exfil
	}
	for _, c := range checks {
		if !findEvent(t, s, c.agent, c.exe, c.op, c.obj) {
			t.Errorf("missing attack event: agent %d %s %v %q", c.agent, c.exe, c.op, c.obj)
		}
	}
}

func TestATCCaseTracePresent(t *testing.T) {
	s := eventstore.New(eventstore.DefaultOptions())
	GenerateInto(s, Config{Seed: 42, Hosts: 8, Events: 5000, Scenarios: []Scenario{ScenarioATCCase}})
	ws := uint32(FirstWorkstation + 1)
	checks := []struct {
		agent uint32
		exe   string
		op    sysmon.Operation
		obj   string
	}{
		{ws, "winword.exe", sysmon.OpRead, "invoice.doc"},
		{ws, "powershell.exe", sysmon.OpWrite, "dropper"},
		{ws, "backdoor.exe", sysmon.OpWrite, ATCAttackerIP},
		{AgentFileServer, "robocopy.exe", sysmon.OpWrite, "archive.rar"},
		{AgentFileServer, "ftp.exe", sysmon.OpWrite, ATCAttackerIP},
	}
	for _, c := range checks {
		if !findEvent(t, s, c.agent, c.exe, c.op, c.obj) {
			t.Errorf("missing attack event: agent %d %s %v %q", c.agent, c.exe, c.op, c.obj)
		}
	}
}

func TestNoScenarioMeansNoAttack(t *testing.T) {
	s := eventstore.New(eventstore.DefaultOptions())
	GenerateInto(s, Config{Seed: 42, Hosts: 8, Events: 5000})
	if findEvent(t, s, AgentDBServer, "sbblv.exe", sysmon.OpWrite, "") {
		t.Error("attack process present without scenario")
	}
	if findEvent(t, s, AgentFileServer, "ftp.exe", sysmon.OpWrite, ATCAttackerIP) {
		t.Error("ATC exfiltration present without scenario")
	}
}

func TestBackgroundSpansAgentsAndTime(t *testing.T) {
	s := eventstore.New(eventstore.DefaultOptions())
	GenerateInto(s, Config{Seed: 9, Hosts: 8, Events: 8000})
	agents := s.Agents()
	if len(agents) < 8 {
		t.Errorf("only %d agents active", len(agents))
	}
	lo, hi := s.TimeRange()
	if hi-lo < int64(20)*3600*1e9 {
		t.Errorf("timeline too short: %d ns", hi-lo)
	}
}

func TestBenignDecoyTrafficExists(t *testing.T) {
	s := eventstore.New(eventstore.DefaultOptions())
	GenerateInto(s, Config{Seed: 42, Hosts: 8, Events: 5000, Scenarios: []Scenario{ScenarioDemoAPT}})
	// the steady updater traffic to the attacker IP must exist, so the
	// anomaly model has a baseline that should NOT be flagged
	if !findEvent(t, s, AgentDBServer, "updatesvc.exe", sysmon.OpWrite, AttackerIP) {
		t.Error("benign CDN traffic to attacker IP missing")
	}
	// admin noise: scheduled shells on windows servers
	if !findEvent(t, s, AgentDBServer, "taskeng.exe", sysmon.OpStart, "cmd.exe") {
		t.Error("scheduled cmd.exe noise missing")
	}
}

// TestGenerateDigest pins Generate's output for one configuration: a
// digest over every record, in order. A change to the generator or to
// the order of its sort that moves one record fails here.
func TestGenerateDigest(t *testing.T) {
	recs := Generate(Config{Seed: 1000, Hosts: 8, Events: 20000, Scenarios: []Scenario{ScenarioDemoAPT, ScenarioATCCase}})
	h := sha256.New()
	for i := range recs {
		fmt.Fprintf(h, "%+v\n", recs[i])
	}
	const want = "934df815114425d16a36df70d9698de288848b83554bc544a2104001b773b63f"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Generate digest over %d records = %s, want %s", len(recs), got, want)
	}
}

// GenerateInto reports a failed ingest instead of the record count: a
// store closed before the call refuses the append.
func TestGenerateIntoReportsAppendError(t *testing.T) {
	s := eventstore.New(eventstore.DefaultOptions())
	s.Close()
	n, err := GenerateInto(s, Config{Seed: 3, Hosts: 5, Events: 200})
	if !errors.Is(err, eventstore.ErrClosed) || n != 0 {
		t.Fatalf("GenerateInto a closed store: %d records, error %v; want 0 and ErrClosed", n, err)
	}
}
