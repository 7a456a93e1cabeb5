package eventstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/sysmon"
)

// durableOpts returns durable options rooted at dir.
func durableOpts(dir string) Options {
	opts := DefaultOptions()
	opts.Dir = dir
	opts.SyncWAL = true
	return opts
}

// small lowers a freshly opened store's segment sizes, so a few records
// make several segments: a chunk seals at 8 events, and compaction
// merges toward 32. It passes Open's results through.
func small(s *Store, err error) (*Store, error) {
	if err == nil {
		s.sealEvents, s.compactTarget = 8, 32
	}
	return s, err
}

// fill appends n distinct-ish records across two agents, one record
// per call, so every record is its own commit (and, with SyncWAL, its
// own acknowledged fsync).
func fill(s *Store, n, from int) {
	for i := from; i < from+n; i++ {
		agent := uint32(1 + i%2)
		s.AppendAll([]Record{mkRecord(agent, fmt.Sprintf("exe%d", i%5), sysmon.OpWrite, fmt.Sprintf("f%d.txt", i%7), i)})
	}
}

// crash abandons a durable store without Close, as a killed process
// would: the WAL handle stays unfsynced-but-written and only the
// directory flock — which the OS releases with a dead process — is
// dropped so the reopening "process" can take over.
func crash(s *Store) { s.dur.lock.Release() }

// collect returns the events matching f. The tests that use it read
// stores whose files are intact, so a scan error is a failure of the
// store under test and panics.
func collect(s *Store, f *EventFilter) []sysmon.Event {
	evs, err := s.Collect(f)
	if err != nil {
		panic(fmt.Sprintf("collect: %v", err))
	}
	return evs
}

// collectAll returns every event, sorted by ID for comparison.
func collectAll(s *Store) []sysmon.Event {
	evs := collect(s, &EventFilter{})
	sort.Slice(evs, func(i, j int) bool { return evs[i].ID < evs[j].ID })
	return evs
}

// eventStrings renders events with entity attributes resolved, so
// stores with different internal entity numbering can be compared.
func eventStrings(s *Store) []string {
	dict := s.Dict()
	var out []string
	for _, ev := range collectAll(s) {
		out = append(out, fmt.Sprintf("%d|%d|%s|%s|%s|%s|%d|%d",
			ev.ID, ev.AgentID,
			dict.Attr(sysmon.EntityProcess, ev.Subject, "exename"),
			ev.Op, ev.ObjType,
			dict.Attr(ev.ObjType, ev.Object, "name"),
			ev.StartTS, ev.Amount))
	}
	return out
}

func TestDurableOpenAppendReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	fill(s, 30, 0) // 30 events, seal threshold 8 → sealed segments + tails
	want := eventStrings(s)
	wantLen := s.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != wantLen {
		t.Fatalf("reopened store has %d events, want %d", s2.Len(), wantLen)
	}
	if got := eventStrings(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened events differ:\n got %v\nwant %v", got[:3], want[:3])
	}
	// appends must continue with fresh IDs, not collide with recovered ones
	fill(s2, 5, 100)
	if s2.Len() != wantLen+5 {
		t.Fatalf("after post-recovery appends: %d events, want %d", s2.Len(), wantLen+5)
	}
	seen := map[uint64]bool{}
	for _, ev := range collectAll(s2) {
		if seen[ev.ID] {
			t.Fatalf("duplicate event ID %d after recovery", ev.ID)
		}
		seen[ev.ID] = true
	}
}

// The acceptance scenario: kill after appends past the last seal. The
// first store is never closed (the "crash"); reopening must recover all
// acknowledged events from MANIFEST + WAL.
func TestCrashRecoveryPastLastSeal(t *testing.T) {
	dir := t.TempDir()
	s, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	fill(s, 20, 0) // seals at 8 → sealed segments exist
	fill(s, 5, 50) // unsealed tail, covered only by the WAL
	want := eventStrings(s)
	crash(s) // no Close: the WAL handle is simply abandoned

	s2, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := eventStrings(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("crash recovery lost events: got %d, want %d", len(got), len(want))
	}
}

// A torn final WAL record — the disk image a crash mid-append leaves —
// must not poison recovery: every record before the tear is recovered.
func TestCrashRecoveryTornWALRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	fill(s, 12, 0)
	all := eventStrings(s)
	total := s.Len()
	crash(s)

	// tear the last record: chop a few bytes off the WAL
	walPath := filepath.Join(dir, durable.WALName)
	buf, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) == 0 {
		t.Fatal("expected a non-empty WAL (unsealed tail)")
	}
	if err := os.WriteFile(walPath, buf[:len(buf)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != total-1 {
		t.Fatalf("recovered %d events, want %d (all but the torn record)", s2.Len(), total-1)
	}
	if got := eventStrings(s2); !reflect.DeepEqual(got, all[:len(all)-1]) {
		t.Fatal("surviving events differ from the pre-tear prefix")
	}
}

// A segment file that never made it into a manifest edition (crash
// between seal and manifest write) is an orphan: recovery must ignore
// and delete it, and recover its events from the WAL instead.
func TestRecoveryRemovesOrphanSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	fill(s, 10, 0)
	want := eventStrings(s)
	crash(s)

	orphan := filepath.Join(dir, durable.SegmentFileName(999))
	if _, err := durable.WriteSegmentFileV2(orphan, &durable.SegmentData{ID: 999}); err != nil {
		t.Fatal(err)
	}
	s2, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan segment file survived recovery")
	}
	if got := eventStrings(s2); !reflect.DeepEqual(got, want) {
		t.Fatal("events differ after orphan cleanup")
	}
}

// Once a flush seals everything and the manifest edition covers it,
// the WAL must be empty: reopening performs zero replay.
func TestWALTruncatedWhenFullySealed(t *testing.T) {
	dir := t.TempDir()
	s, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(s, 20, 0)
	if st := s.DurableStats(); st.WALBytes == 0 {
		t.Fatal("expected WAL to cover the unsealed tail before the flush")
	}
	s.Flush()
	st := s.DurableStats()
	if st.WALBytes != 0 || st.WALRecords != 0 {
		t.Fatalf("WAL not truncated after full seal: %d bytes, %d records", st.WALBytes, st.WALRecords)
	}
	if st.SegmentFiles == 0 || st.ManifestEdition == 0 {
		t.Fatalf("expected segment files and a manifest edition, got %+v", st)
	}
	if st.LastError != "" {
		t.Fatalf("durable error: %s", st.LastError)
	}
}

// The directory is single-writer: a second Open while the first store
// still holds the flock must be rejected, and Close must release the
// lock so a successor can take over.
func TestOpenEnforcesSingleWriter(t *testing.T) {
	dir := t.TempDir()
	s, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	fill(s, 5, 0)
	if _, err := small(Open(durableOpts(dir))); err == nil || !strings.Contains(err.Error(), "already open") {
		t.Fatalf("second Open on a live directory: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	s2.Close()
}

// The store has one layout. A manifest naming any other — unchunked,
// entities not interned, or chunks of another width — fails Open as
// corrupt.
func TestOpenRejectsMismatchedLayout(t *testing.T) {
	for _, tc := range []struct {
		name string
		// mutate edits the layout marker: partitioned (1 byte), chunk
		// width (8), interned entities (1).
		mutate func(marker []byte)
	}{
		{"unpartitioned", func(b []byte) { b[0] = 0 }},
		{"no dedup", func(b []byte) { b[9] = 0 }},
		{"2h chunks", func(b []byte) { binary.LittleEndian.PutUint64(b[1:], uint64(2*time.Hour)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := small(Open(durableOpts(dir)))
			if err != nil {
				t.Fatal(err)
			}
			fill(s, 10, 0)
			s.Flush()
			s.Close()
			own, err := small(Open(durableOpts(dir)))
			if err != nil {
				t.Fatalf("own layout rejected: %v", err)
			}
			own.Close()

			rewriteManifest(t, dir, func(m *durable.Manifest, body []byte) {
				// the marker follows the three counters and the
				// sequence table
				tc.mutate(body[3*8+4+12*len(m.NextSeq):])
			})
			if _, err := small(Open(durableOpts(dir))); !errors.Is(err, durable.ErrCorrupt) {
				t.Fatalf("foreign layout: err=%v, want ErrCorrupt", err)
			}
		})
	}
}

// rewriteManifest lets edit change the body of dir's MANIFEST — the
// bytes between its magic and version and its trailing crc32 — and
// seals the result with a matching crc, so only the edit can make it
// unreadable. m is the manifest as it decoded before the edit.
func rewriteManifest(t *testing.T, dir string, edit func(m *durable.Manifest, body []byte)) {
	t.Helper()
	path := filepath.Join(dir, durable.ManifestName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := durable.DecodeManifest(buf)
	if err != nil {
		t.Fatal(err)
	}
	body := buf[8 : len(buf)-4]
	edit(m, body)
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// sealMany builds a store with many deliberately tiny segments, whose
// compaction merges toward target events.
func sealMany(t *testing.T, opts Options, target, batches, perBatch int) *Store {
	t.Helper()
	var s *Store
	var err error
	if opts.Dir != "" {
		s, err = Open(opts)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		s = New(opts)
	}
	s.compactTarget = target
	for b := 0; b < batches; b++ {
		fill(s, perBatch, b*perBatch)
		s.Flush() // every flush seals → tiny segments pile up
	}
	return s
}

func TestCompactionReducesSegmentsWithoutChangingResults(t *testing.T) {
	for _, durableStore := range []bool{false, true} {
		name := map[bool]string{false: "memory", true: "durable"}[durableStore]
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			if durableStore {
				opts.Dir = t.TempDir()
			}
			s := sealMany(t, opts, 64, 16, 4) // 64 events in ≥16 tiny segments
			defer s.Close()

			before := s.NumSegments()
			if before < 16 {
				t.Fatalf("setup produced only %d segments", before)
			}
			wantEvents := eventStrings(s)
			filter := &EventFilter{Ops: []sysmon.Operation{sysmon.OpWrite}}
			wantMatches := len(collect(s, filter))

			res := s.Compact()
			if res.Passes == 0 || res.SegmentsRetired == 0 {
				t.Fatalf("compaction did nothing: %+v", res)
			}
			after := s.NumSegments()
			if after >= before {
				t.Fatalf("segments %d → %d, expected a reduction", before, after)
			}
			// 64 events with a 64-event target: each chunk compacts to
			// its minimal chain (fan-in bounded), far below the input
			if after > before/2 {
				t.Fatalf("segments %d → %d, expected at least a 2x reduction", before, after)
			}
			if got := eventStrings(s); !reflect.DeepEqual(got, wantEvents) {
				t.Fatal("compaction changed the event set")
			}
			if got := len(collect(s, filter)); got != wantMatches {
				t.Fatalf("filtered scan after compaction: %d matches, want %d", got, wantMatches)
			}
			if st := s.DurableStats(); st.Compactions == 0 || st.SegmentsCompacted == 0 {
				t.Fatalf("compaction counters not bumped: %+v", st)
			}

			if durableStore {
				// the new manifest edition must reflect the merged set;
				// reopening sees the compacted layout and the same data
				st := s.DurableStats()
				if st.SegmentFiles != after {
					t.Fatalf("%d segment files on disk, %d segments in memory", st.SegmentFiles, after)
				}
				s.Close()
				s2, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer s2.Close()
				if s2.NumSegments() != after {
					t.Fatalf("reopened store has %d segments, want %d", s2.NumSegments(), after)
				}
				if got := eventStrings(s2); !reflect.DeepEqual(got, wantEvents) {
					t.Fatal("reopened compacted store lost events")
				}
			}
		})
	}
}

// Snapshots pinned before a compaction keep scanning the retired chain;
// the compactor must never mutate it. Run with -race.
func TestCompactionConcurrentWithScans(t *testing.T) {
	s := sealMany(t, DefaultOptions(), 128, 32, 4)
	defer s.Close()
	want := len(collect(s, &EventFilter{}))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				s.Scan(context.Background(), &EventFilter{}, func(*sysmon.Event) bool { n++; return true })
				if n < want {
					panic(fmt.Sprintf("scan during compaction saw %d events, want >= %d", n, want))
				}
			}
		}()
	}
	var retired []uint64
	var retiredMu sync.Mutex
	s.OnSegmentRetire(func(ids []uint64) {
		retiredMu.Lock()
		retired = append(retired, ids...)
		retiredMu.Unlock()
	})
	s.Compact()
	close(stop)
	wg.Wait()
	retiredMu.Lock()
	defer retiredMu.Unlock()
	if len(retired) == 0 {
		t.Fatal("no retirement notifications delivered")
	}
}

// The background compactor drains tiny segments on its own.
func TestBackgroundCompactor(t *testing.T) {
	s := sealMany(t, DefaultOptions(), 256, 16, 4)
	before := s.NumSegments()
	s.StartCompactor(time.Millisecond)
	defer s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.NumSegments() >= before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := s.NumSegments(); after >= before {
		t.Fatalf("background compactor made no progress: %d → %d", before, after)
	}
	s.StopCompactor()
	s.StopCompactor() // idempotent
}

// A bulk AppendAll under SyncWAL must group-commit: the batch spans
// many internal commits (commitBatch boundaries plus the tail), but the
// whole call costs exactly one WAL fsync. Before the fix every commit
// fsynced individually, cratering bulk-ingest throughput.
func TestAppendAllGroupCommitSingleSync(t *testing.T) {
	opts := durableOpts(t.TempDir())
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	recs := make([]Record, 3*commitBatch+100) // 3 full commits + the tail
	for i := range recs {
		recs[i] = mkRecord(uint32(1+i%2), fmt.Sprintf("exe%d", i%5), sysmon.OpWrite, fmt.Sprintf("f%d.txt", i%7), i)
	}
	before, commits := s.dur.wal.Syncs(), s.Commits()
	if err := s.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	if got := s.Commits() - commits; got != 4 {
		t.Fatalf("AppendAll of %d records made %d commits, want 4", len(recs), got)
	}
	if got := s.dur.wal.Syncs() - before; got != 1 {
		t.Fatalf("AppendAll of %d records issued %d WAL fsyncs, want exactly 1 (group commit)", len(recs), got)
	}
	// The batch must be fully committed (visible) at return, not parked
	// in the append buffer waiting for a commitBatch boundary.
	if s.Len() != len(recs) {
		t.Fatalf("after AppendAll: Len=%d, want %d (tail must commit)", s.Len(), len(recs))
	}
	if st := s.DurableStats(); st.WALSyncs == 0 {
		t.Fatalf("DurableStats.WALSyncs = 0, want > 0")
	}
}

// Writes against a closed store must fail with the typed ErrClosed —
// reachable when an HTTP ingest races a catalog hot-swap — and must not
// touch the closed WAL.
func TestAppendAfterCloseReturnsErrClosed(t *testing.T) {
	s, err := small(Open(durableOpts(t.TempDir())))
	if err != nil {
		t.Fatal(err)
	}
	fill(s, 10, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mkRecord(1, "late", sysmon.OpWrite, "late.txt", 0)
	if err := s.AppendAll([]Record{r, r}); !errors.Is(err, ErrClosed) {
		t.Fatalf("AppendAll after Close: err=%v, want ErrClosed", err)
	}
	if err := s.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: err=%v, want ErrClosed", err)
	}
	// The in-memory state stays readable.
	if s.Len() != 10 {
		t.Fatalf("Len after Close = %d, want 10", s.Len())
	}
}

// Concurrent appenders racing Close must each either succeed fully
// (their events are durable and visible) or fail with ErrClosed —
// never crash into the closed WAL. Run with -race.
func TestAppendRacesClose(t *testing.T) {
	s, err := small(Open(durableOpts(t.TempDir())))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				r := mkRecord(uint32(1+g), fmt.Sprintf("exe%d", i), sysmon.OpWrite, "f.txt", i)
				if err := s.AppendAll([]Record{r}); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("AppendAll: %v", err)
					}
					return
				}
			}
		}(g)
	}
	close(start)
	time.Sleep(time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// Replay rebuilds exactly the store the log recorded. The WAL holds a
// chunk whose chain is partly sealed and manifested (its sealed events
// are skipped), out-of-order commits within that chunk (the replayed
// slice must be sorted), a chunk sealed whole (it must come back with
// no memtable), and entities interned after the last manifest edition.
func TestReplayMatchesLiveStore(t *testing.T) {
	dir := t.TempDir()
	s, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	var sealed []Record
	for i := 0; i < 8; i++ {
		sealed = append(sealed, mkRecord(1, "a.exe", sysmon.OpWrite, fmt.Sprintf("a%d.txt", i), 10+i))
		sealed = append(sealed, mkRecord(2, "a.exe", sysmon.OpConnect, fmt.Sprintf("10.0.0.%d", i), 10+i))
	}
	if err := s.AppendAll(sealed); err != nil { // both chunks seal, a manifest lists them
		t.Fatal(err)
	}
	for _, minutes := range [][]int{{40, 41}, {20, 41}, {5, 5}} {
		var recs []Record
		for _, m := range minutes {
			recs = append(recs, mkRecord(1, fmt.Sprintf("late%d.exe", m), sysmon.OpRead, fmt.Sprintf("late%d.txt", m), m))
		}
		recs = append(recs, mkRecord(3, "c.exe", sysmon.OpStart, fmt.Sprintf("child%d.exe", minutes[0]), minutes[0]))
		if err := s.AppendAll(recs); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.dur.manifestedRows.procs; n == 0 || n >= s.dict.Count(sysmon.EntityProcess) {
		t.Fatalf("setup: manifest lists %d of %d processes, want some but not all",
			n, s.dict.Count(sysmon.EntityProcess))
	}
	memtables := func(s *Store) map[PartKey][]sysmon.Event {
		out := map[PartKey][]sysmon.Event{}
		for _, key := range s.order {
			if evs := s.parts[key].mem.events; len(evs) > 0 {
				out[key] = evs
			}
		}
		return out
	}
	filters := []EventFilter{
		{},
		{Agents: []uint32{1}},
		{Ops: []sysmon.Operation{sysmon.OpRead}, From: base.Add(20 * time.Minute).UnixNano()},
		{ObjType: sysmon.EntityNetconn},
	}
	answers := func(s *Store) [][]string {
		var out [][]string
		for i := range filters {
			var rows []string
			for _, ev := range collect(s, &filters[i]) {
				rows = append(rows, fmt.Sprintf("%d %s", ev.ID, s.dict.Attr(ev.ObjType, ev.Object, "name")))
			}
			out = append(out, rows)
		}
		return out
	}
	wantLen, wantParts, wantMem, wantAnswers := s.Len(), s.NumPartitions(), memtables(s), answers(s)
	wantMin, wantMax := s.TimeRange()
	var lastID, lastSeq uint64
	for _, ev := range collectAll(s) {
		lastID = max(lastID, ev.ID)
		if ev.AgentID == 1 {
			lastSeq = max(lastSeq, ev.Seq)
		}
	}
	if err := s.Close(); err != nil { // no Flush: the tails stay in the WAL
		t.Fatal(err)
	}

	s2, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != wantLen || s2.NumPartitions() != wantParts {
		t.Fatalf("reopened: %d events in %d partitions, want %d in %d", s2.Len(), s2.NumPartitions(), wantLen, wantParts)
	}
	if gotMin, gotMax := s2.TimeRange(); gotMin != wantMin || gotMax != wantMax {
		t.Fatalf("reopened time range [%d, %d], want [%d, %d]", gotMin, gotMax, wantMin, wantMax)
	}
	gotMem := memtables(s2)
	if !reflect.DeepEqual(gotMem, wantMem) {
		t.Fatalf("reopened memtables differ:\n got %v\nwant %v", gotMem, wantMem)
	}
	for key, evs := range gotMem {
		if m := s2.parts[key].mem; m.minTS != evs[0].StartTS || m.maxTS != evs[len(evs)-1].StartTS {
			t.Fatalf("memtable %v bounds [%d, %d], want [%d, %d]", key, m.minTS, m.maxTS, evs[0].StartTS, evs[len(evs)-1].StartTS)
		}
	}
	if got := answers(s2); !reflect.DeepEqual(got, wantAnswers) {
		t.Fatalf("reopened answers differ:\n got %v\nwant %v", got, wantAnswers)
	}
	if st := s2.DurableStats(); st.RecoveredEvents != len(wantMem[partKey(1, base.UnixNano())])+3 || st.RecoverMS < 0 {
		t.Fatalf("recovery stats: %d events in %.3f ms", st.RecoveredEvents, st.RecoverMS)
	}
	// New commits continue the counters and intern against the replayed
	// entities: an entity logged past the manifest keeps its ID.
	n := s2.dict.Count(sysmon.EntityProcess)
	if err := s2.AppendAll([]Record{mkRecord(1, "late40.exe", sysmon.OpRead, "late40.txt", 50)}); err != nil {
		t.Fatal(err)
	}
	if s2.dict.Count(sysmon.EntityProcess) != n {
		t.Fatalf("a replayed process was interned again: %d processes, want %d", s2.dict.Count(sysmon.EntityProcess), n)
	}
	got := collect(s2, &EventFilter{From: base.Add(50 * time.Minute).UnixNano()})
	if len(got) != 1 || got[0].ID != lastID+1 || got[0].Seq != lastSeq+1 {
		t.Fatalf("post-recovery append got %+v, want ID %d and seq %d", got, lastID+1, lastSeq+1)
	}
}

// A WAL frame is bounded only by the bytes the log holds: a record
// over 1 MiB (a long command line, which one ingest batch can carry)
// is replayed, not cut off with every record after it.
func TestWALRecordOverOneMiBSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		mkRecord(1, "a.exe", sysmon.OpWrite, "a.txt", 1),
		mkRecord(1, "big.exe", sysmon.OpWrite, "b.txt", 2),
		mkRecord(1, "c.exe", sysmon.OpWrite, "c.txt", 3),
	}
	long := strings.Repeat("x", 1<<20+100)
	recs[1].Subject.CmdLine = long
	if err := s.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	want := eventStrings(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := eventStrings(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened %d of %d acknowledged events", len(got), len(want))
	}
	if got := s2.Dict().Attr(sysmon.EntityProcess, collectAll(s2)[1].Subject, "cmdline"); got != long {
		t.Fatalf("reopened command line has %d bytes, want %d", len(got), len(long))
	}
}

// A MANIFEST.delta frame is bounded only by the bytes the log holds: a
// seal that interns tens of thousands of entities appends a frame of
// several MiB, and the WAL is truncated against it, so losing the frame
// would lose its events and delete its segment files as orphans.
func TestLargeManifestDeltaSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.sealEvents = 1 << 20 // seal only on Flush
	if err := s.AppendAll([]Record{mkRecord(1, "first.exe", sysmon.OpWrite, "first.txt", 0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // the first edition: a full manifest
		t.Fatal(err)
	}
	recs := make([]Record, 30000)
	for i := range recs {
		recs[i] = mkRecord(2, fmt.Sprintf("tool-%06d.exe", i), sysmon.OpWrite, fmt.Sprintf("/data/out-%06d.bin", i), i%60)
	}
	if err := s.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil { // one delta frame for the second seal
		t.Fatal(err)
	}
	st := s.DurableStats()
	if st.ManifestDeltas <= 1<<20 || st.WALBytes != 0 || st.LastError != "" {
		t.Fatalf("setup: %d-byte delta log, %d-byte WAL, error %q; want a frame over 1 MiB and a truncated WAL",
			st.ManifestDeltas, st.WALBytes, st.LastError)
	}
	want := eventStrings(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := eventStrings(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened %d of %d acknowledged events", len(got), len(want))
	}
	if got := s2.DurableStats().SegmentFiles; got != st.SegmentFiles {
		t.Fatalf("reopened with %d segment files, want %d", got, st.SegmentFiles)
	}
}

// A torn MANIFEST.delta tail that Open cannot truncate must not stay
// behind the frames later seals append: the next open would stop at the
// torn bytes and drop those frames, whose events the WAL no longer
// holds. Open fails instead, as it does when the WAL's torn tail cannot
// be cut, and a later open repairs the log.
func TestDeltaTailTruncateFailureKeepsLaterEditions(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	batch := func(s *Store, k int) {
		t.Helper()
		if err := s.AppendAll([]Record{mkRecord(1, fmt.Sprintf("b%d.exe", k), sysmon.OpWrite, fmt.Sprintf("b%d.txt", k), k)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	batch(s, 0) // full manifest
	batch(s, 1) // delta frame
	s.Close()
	// a torn frame: a header claiming 64 bytes, then 3 of them
	f, err := os.OpenFile(filepath.Join(dir, durable.ManifestDeltaName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{64, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Close()

	restore := durable.InjectFaults(func(site durable.IOSite) durable.Fault {
		if site == durable.SiteDeltaTruncate {
			return durable.FailOp
		}
		return durable.NoFault
	})
	acked := 2
	s, err = Open(opts)
	restore()
	if err == nil {
		batch(s, 2) // a delta frame behind the torn bytes; the WAL is truncated
		acked++
		s.Close()
	} else if !errors.Is(err, durable.ErrStorage) {
		t.Fatalf("open over an uncut torn tail: error %v, want a storage error", err)
	}
	s, err = Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(collectAll(s)); got != acked {
		t.Fatalf("reopened %d of %d acknowledged events", got, acked)
	}
}
