package eventstore

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/aiql/aiql/internal/sysmon"
)

var base = time.Date(2018, 5, 10, 0, 0, 0, 0, time.UTC)

func mkRecord(agent uint32, exe string, op sysmon.Operation, obj string, minute int) Record {
	r := Record{
		AgentID: agent,
		Subject: sysmon.Process{PID: 100, ExeName: exe, Path: "/bin/" + exe, User: "u"},
		Op:      op,
		StartTS: base.Add(time.Duration(minute) * time.Minute).UnixNano(),
		Amount:  64,
	}
	switch op.ObjectType() {
	case sysmon.EntityProcess:
		r.ObjType = sysmon.EntityProcess
		r.ObjProc = sysmon.Process{PID: 200, ExeName: obj, Path: "/bin/" + obj, User: "u"}
	case sysmon.EntityNetconn:
		r.ObjType = sysmon.EntityNetconn
		r.ObjConn = sysmon.Netconn{SrcIP: "10.0.0.1", SrcPort: 1000, DstIP: obj, DstPort: 443, Protocol: "tcp"}
	default:
		r.ObjType = sysmon.EntityFile
		r.ObjFile = sysmon.File{Path: "/data/" + obj}
	}
	return r
}

func TestDedupInterning(t *testing.T) {
	s := New(DefaultOptions())
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, mkRecord(1, "bash", sysmon.OpRead, "f.txt", i))
	}
	s.AppendAll(recs)
	s.Flush()
	if got := s.Dict().Count(sysmon.EntityProcess); got != 1 {
		t.Errorf("deduped store has %d processes, want 1", got)
	}
	if got := s.Dict().Count(sysmon.EntityFile); got != 1 {
		t.Errorf("deduped store has %d files, want 1", got)
	}
}

func TestPartitioningByAgentAndTime(t *testing.T) {
	s := New(DefaultOptions())
	// two agents, events spread over 3 hours → 6 chunks
	var recs []Record
	for agent := uint32(1); agent <= 2; agent++ {
		for h := 0; h < 3; h++ {
			recs = append(recs, mkRecord(agent, "bash", sysmon.OpRead, "f.txt", h*60+5))
		}
	}
	s.AppendAll(recs)
	s.Flush()
	if got := s.NumPartitions(); got != 6 {
		t.Errorf("got %d partitions, want 6", got)
	}
}

func TestScanFilters(t *testing.T) {
	s := New(DefaultOptions())
	s.AppendAll([]Record{
		mkRecord(1, "bash", sysmon.OpRead, "a.txt", 0),
		mkRecord(1, "bash", sysmon.OpWrite, "a.txt", 10),
		mkRecord(2, "vim", sysmon.OpRead, "b.txt", 20),
		mkRecord(2, "vim", sysmon.OpConnect, "9.9.9.9", 30),
	})
	s.Flush()

	count := func(f *EventFilter) int {
		n := 0
		s.Scan(context.Background(), f, func(*sysmon.Event) bool { n++; return true })
		return n
	}
	if got := count(&EventFilter{}); got != 4 {
		t.Errorf("unfiltered scan = %d", got)
	}
	if got := count(&EventFilter{Agents: []uint32{1}}); got != 2 {
		t.Errorf("agent filter = %d", got)
	}
	if got := count(&EventFilter{Ops: []sysmon.Operation{sysmon.OpRead}}); got != 2 {
		t.Errorf("op filter = %d", got)
	}
	if got := count(&EventFilter{ObjType: sysmon.EntityNetconn}); got != 1 {
		t.Errorf("objtype filter = %d", got)
	}
	from := base.Add(15 * time.Minute).UnixNano()
	if got := count(&EventFilter{From: from}); got != 2 {
		t.Errorf("time filter = %d", got)
	}
	// entity-set filters
	bashIDs := resolveLike(s.Dict(), sysmon.EntityProcess, "exe_name", "bash")
	if got := count(&EventFilter{Subjects: bashIDs}); got != 2 {
		t.Errorf("subject set filter = %d", got)
	}
	if got := count(&EventFilter{Subjects: NewIDSet()}); got != 0 {
		t.Errorf("empty subject set = %d", got)
	}
}

func TestEstimateNeverUndercounts(t *testing.T) {
	s := New(DefaultOptions())
	rng := rand.New(rand.NewSource(3))
	exes := []string{"bash", "vim", "curl", "python"}
	var recs []Record
	for i := 0; i < 500; i++ {
		op := sysmon.OpRead
		if rng.Intn(2) == 0 {
			op = sysmon.OpWrite
		}
		recs = append(recs, mkRecord(uint32(1+rng.Intn(3)), exes[rng.Intn(len(exes))], op, "f.txt", rng.Intn(300)))
	}
	s.AppendAll(recs)
	s.Flush()
	filters := []*EventFilter{
		{},
		{Agents: []uint32{2}},
		{Ops: []sysmon.Operation{sysmon.OpRead}},
		{Subjects: resolveLike(s.Dict(), sysmon.EntityProcess, "exe_name", "bash")},
		{Agents: []uint32{1}, Ops: []sysmon.Operation{sysmon.OpWrite},
			Subjects: resolveLike(s.Dict(), sysmon.EntityProcess, "exe_name", "vim")},
	}
	for i, f := range filters {
		actual := 0
		s.Scan(context.Background(), f, func(*sysmon.Event) bool { actual++; return true })
		if est := s.EstimateMatches(f); est < actual {
			t.Errorf("filter %d: estimate %d < actual %d", i, est, actual)
		}
	}
}

// Records written to a durable directory reopen with the same events
// and entity attributes as the same records appended in memory.
func TestSnapshotRoundTrip(t *testing.T) {
	recs := []Record{
		mkRecord(1, "bash", sysmon.OpRead, "a.txt", 0),
		mkRecord(2, "vim", sysmon.OpConnect, "9.9.9.9", 30),
	}
	s := New(DefaultOptions())
	s.AppendAll(recs)
	s.Flush()
	opts := DefaultOptions()
	opts.Dir = filepath.Join(t.TempDir(), "store")
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != s.Len() {
		t.Errorf("loaded %d events, want %d", s2.Len(), s.Len())
	}
	a := collect(s, &EventFilter{})
	b := collect(s2, &EventFilter{})
	if len(a) != len(b) {
		t.Fatalf("collect mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		av := s.Dict().Attr(sysmon.EntityProcess, a[i].Subject, "exe_name")
		bv := s2.Dict().Attr(sysmon.EntityProcess, b[i].Subject, "exe_name")
		if av != bv || a[i] != b[i] {
			t.Fatalf("event %d: %+v (%q) vs %+v (%q)", i, a[i], av, b[i], bv)
		}
	}
}

func TestOutOfOrderAppendsStaySorted(t *testing.T) {
	s := New(DefaultOptions())
	for _, m := range []int{30, 10, 50, 20, 40} { // one commit per record
		s.AppendAll([]Record{mkRecord(1, "bash", sysmon.OpRead, "a.txt", m)})
	}
	s.Flush()
	var last int64
	s.Scan(context.Background(), &EventFilter{}, func(ev *sysmon.Event) bool {
		if ev.StartTS < last {
			t.Fatalf("scan out of order: %d after %d", ev.StartTS, last)
		}
		last = ev.StartTS
		return true
	})
}

// TestInterningIdempotent: interning the same entity twice returns the
// same ID (property-based).
func TestInterningIdempotent(t *testing.T) {
	s := New(DefaultOptions())
	f := func(pid uint32, exe, path, user string) bool {
		p := sysmon.Process{PID: pid, ExeName: exe, Path: path, User: user}
		return s.Dict().InternProcess(p) == s.Dict().InternProcess(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEveryEventInExactlyOneChunk: the sizes of a snapshot's scan units
// (each chunk's segments and memtable tail) sum to the store size.
func TestEveryEventInExactlyOneChunk(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(DefaultOptions())
		n := 50 + rng.Intn(100)
		recs := make([]Record, 0, n)
		for i := 0; i < n; i++ {
			recs = append(recs, mkRecord(uint32(1+rng.Intn(3)), "bash", sysmon.OpRead, "f.txt", rng.Intn(36*60)))
		}
		s.AppendAll(recs)
		s.Flush()
		total := 0
		for _, u := range s.Snapshot().Units(&EventFilter{}) {
			total += u.Len()
		}
		return total == n && s.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTimeRange(t *testing.T) {
	s := New(DefaultOptions())
	s.AppendAll([]Record{
		mkRecord(1, "bash", sysmon.OpRead, "a", 10),
		mkRecord(1, "bash", sysmon.OpRead, "b", 5),
		mkRecord(1, "bash", sysmon.OpRead, "c", 20),
	})
	s.Flush()
	lo, hi := s.TimeRange()
	if lo != base.Add(5*time.Minute).UnixNano() || hi != base.Add(20*time.Minute).UnixNano() {
		t.Errorf("range = [%d, %d]", lo, hi)
	}
}

func TestAgents(t *testing.T) {
	s := New(DefaultOptions())
	s.AppendAll([]Record{
		mkRecord(3, "bash", sysmon.OpRead, "a", 0),
		mkRecord(1, "bash", sysmon.OpRead, "b", 0),
		mkRecord(3, "bash", sysmon.OpRead, "c", 0),
	})
	s.Flush()
	if got := s.Agents(); !reflect.DeepEqual(got, []uint32{1, 3}) {
		t.Errorf("Agents() = %v", got)
	}
}

func TestMatchEntitiesPatterns(t *testing.T) {
	s := New(DefaultOptions())
	s.AppendAll([]Record{
		mkRecord(1, "cmd.exe", sysmon.OpRead, "a", 0),
		mkRecord(1, "powershell.exe", sysmon.OpRead, "b", 0),
		mkRecord(1, "bash", sysmon.OpRead, "c", 0),
	})
	s.Flush()
	d := s.Dict()
	if got := resolveLike(d, sysmon.EntityProcess, "exe_name", "%.exe").Len(); got != 2 {
		t.Errorf("%%.exe matched %d", got)
	}
	if got := resolveLike(d, sysmon.EntityProcess, "exe_name", "CMD.EXE").Len(); got != 1 {
		t.Errorf("exact case-insensitive matched %d", got)
	}
	if got := resolveLike(d, sysmon.EntityProcess, "bogus", "x").Len(); got != 0 {
		t.Errorf("bogus attribute matched %d", got)
	}
}

func TestIDSetOperations(t *testing.T) {
	a := NewIDSet(1, 2, 3)
	b := NewIDSet(2, 3, 4)
	inter := a.Intersect(b)
	if inter.Len() != 2 || !inter.Has(2) || !inter.Has(3) || inter.Has(1) {
		t.Errorf("intersect = %v", inter.IDs())
	}
	var nilSet *IDSet
	if got := nilSet.Intersect(a); got.Len() != 3 {
		t.Error("nil ∩ a should be a")
	}
	if !nilSet.Has(99) {
		t.Error("nil set contains everything")
	}
	if nilSet.Len() != -1 {
		t.Error("nil set length should be -1 (unbounded)")
	}
	if !NewIDSet().Empty() || a.Empty() {
		t.Error("Empty() misbehaves")
	}
}

func TestStatsReflectContents(t *testing.T) {
	s := New(DefaultOptions())
	s.AppendAll([]Record{
		mkRecord(1, "bash", sysmon.OpRead, "a.txt", 0),
		mkRecord(1, "vim", sysmon.OpConnect, "9.9.9.9", 1),
	})
	s.Flush()
	st := s.Stats()
	if st.Events != 2 || st.Processes != 2 || st.Files != 1 || st.Netconns != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.ApproxBytes == 0 {
		t.Error("ApproxBytes should be nonzero")
	}
}

// TestSealThresholdCreatesSegments: a memtable reaching the seal threshold at
// a commit boundary is sealed; smaller tails stay in the memtable.
func TestSealThresholdCreatesSegments(t *testing.T) {
	s := New(DefaultOptions())
	s.sealEvents = 25
	for i := 0; i < 107; i += 10 {
		var recs []Record
		for j := i; j < min(i+10, 107); j++ {
			recs = append(recs, mkRecord(1, "bash", sysmon.OpRead, "f.txt", j))
		}
		s.AppendAll(recs)
	}
	// commits of 10 events (7 last); a chunk's memtable seals at the
	// first commit that takes it to 25 or more
	if got := s.Commits(); got != 11 {
		t.Errorf("11 AppendAll calls made %d commits", got)
	}
	if got := s.NumSegments(); got == 0 {
		t.Fatalf("threshold sealing produced no segments")
	}
	st := s.SegmentStats()
	if st.SealedEvents+st.MemtableEvents != s.Len() {
		t.Errorf("sealed %d + memtable %d != committed %d", st.SealedEvents, st.MemtableEvents, s.Len())
	}
	before := s.Commits()
	s.Flush() // seals every memtable tail
	if got := s.SegmentStats().MemtableEvents; got != 0 {
		t.Errorf("flush left %d memtable events", got)
	}
	if s.Len() != 107 {
		t.Errorf("store has %d events, want 107", s.Len())
	}
	// sealing moves no data, so it must not bump the commit counter
	if got := s.Commits(); got != before {
		t.Errorf("seal bumped commits %d → %d", before, got)
	}
}

// TestSnapshotFrozenDuringAppendAndSeal: a snapshot taken before
// concurrent appends and seals keeps returning exactly the event set it
// pinned (run under -race to validate the lock-free read paths).
func TestSnapshotFrozenDuringAppendAndSeal(t *testing.T) {
	s := New(DefaultOptions())
	s.sealEvents = 64 // force frequent seals
	for i := 0; i < 500; i += 16 {
		var recs []Record
		for j := i; j < min(i+16, 500); j++ {
			recs = append(recs, mkRecord(uint32(1+j%3), "bash", sysmon.OpRead, "f.txt", j%240))
		}
		s.AppendAll(recs)
	}
	s.Flush()
	snap := s.Snapshot()
	want := snap.Len()
	if want != 500 {
		t.Fatalf("snapshot pinned %d events, want 500", want)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 20; round++ {
			recs := make([]Record, 0, 40)
			for i := 0; i < 40; i++ {
				recs = append(recs, mkRecord(uint32(1+i%3), "vim", sysmon.OpWrite, "g.txt", (round*40+i)%240))
			}
			s.AppendAll(recs)
			s.Flush() // seal between reads
		}
	}()

	for i := 0; i < 50; i++ {
		got := 0
		snap.Scan(context.Background(), &EventFilter{}, func(*sysmon.Event) bool { got++; return true })
		if got != want {
			t.Fatalf("iteration %d: snapshot scan saw %d events, want %d", i, got, want)
		}
	}
	<-done
	if s.Len() != 500+20*40 {
		t.Errorf("store grew to %d events, want %d", s.Len(), 500+20*40)
	}
	if got := 0; true {
		snap.Scan(context.Background(), &EventFilter{}, func(*sysmon.Event) bool { got++; return true })
		if got != want {
			t.Errorf("post-append snapshot scan saw %d events, want %d", got, want)
		}
	}
}

// TestScanDuringIndexBuild: scans racing a seal's out-of-lock index
// build must fall back to the sequential path and stay correct.
func TestScanDuringIndexBuild(t *testing.T) {
	s := New(DefaultOptions())
	s.sealEvents = 128
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var recs []Record
		for i := 0; i < 2000; i++ {
			recs = append(recs, mkRecord(1, "bash", sysmon.OpRead, "f.txt", i%600))
			if i%256 == 255 || i == 1999 {
				s.AppendAll(recs)
				recs = recs[:0]
				s.Flush()
			}
		}
	}()
	for i := 0; i < 200; i++ {
		f := &EventFilter{Subjects: resolveLike(s.Dict(), sysmon.EntityProcess, "exe_name", "bash")}
		n := 0
		s.Scan(context.Background(), f, func(*sysmon.Event) bool { n++; return true })
	}
	wg.Wait()
	if got := len(collect(s, &EventFilter{})); got != 2000 {
		t.Errorf("collected %d events, want 2000", got)
	}
}

// TestUnitsDeterministicOrder: Units returns segments oldest-first per
// chunk with the memtable tail last, and every committed event appears
// in exactly one unit.
func TestUnitsDeterministicOrder(t *testing.T) {
	s := New(DefaultOptions())
	s.sealEvents = 8
	for i := 0; i < 50; i += 4 {
		var recs []Record
		for j := i; j < min(i+4, 50); j++ {
			recs = append(recs, mkRecord(1, "bash", sysmon.OpRead, "f.txt", j))
		}
		s.AppendAll(recs)
	}
	s.Flush()
	var tail []Record // committed but unsealed
	for i := 0; i < 3; i++ {
		tail = append(tail, mkRecord(1, "bash", sysmon.OpRead, "g.txt", 50+i))
	}
	s.AppendAll(tail)
	snap := s.Snapshot()
	units := snap.Units(&EventFilter{})
	total := 0
	lastSealed := true
	var lastID uint64
	for _, u := range units {
		total += u.Len()
		if u.Sealed() {
			if !lastSealed {
				t.Fatal("sealed unit after memtable tail within a chunk ordering")
			}
			if u.SegmentID() <= lastID {
				t.Fatalf("segment ids not ascending: %d after %d", u.SegmentID(), lastID)
			}
			lastID = u.SegmentID()
		} else {
			lastSealed = false
		}
	}
	if total != snap.Len() {
		t.Errorf("units cover %d events, snapshot has %d", total, snap.Len())
	}
}
