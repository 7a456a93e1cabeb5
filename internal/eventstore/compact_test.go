package eventstore

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/sysmon"
)

// amountRecords returns n records of one agent in the first hour whose
// Amounts run from first upward, so a recovered event names the record
// it came from.
func amountRecords(agent uint32, n, first int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = mkRecord(agent, fmt.Sprintf("exe%d", i%3), sysmon.OpWrite, fmt.Sprintf("f%d.txt", i), i)
		recs[i].Amount = uint64(first + i)
	}
	return recs
}

// A seal that lands between a merge's install and the manifest edition
// that retires the merge's inputs must not publish the merged segment
// on top of a base manifest that still lists those inputs: a crash
// right after it would recover every merged event twice. The seal runs
// from the retire listener, which fires after the install, and every
// durable write after it fails, as if the process died there.
func TestSealDuringCompactionRecoversOnce(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.SegmentEvents = 1 << 20
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Two seals of agent 1: a chain of two small segments, the first
	// listed by a full manifest and the second by a delta frame.
	for k := 0; k < 2; k++ {
		if err := s.AppendAll(amountRecords(1, 4, 100+10*k)); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	want := map[uint64]bool{}
	for _, ev := range s.Collect(&EventFilter{}) {
		want[ev.Amount] = true
	}
	restore := func() {}
	s.OnSegmentRetire(func([]uint64) {
		recs := amountRecords(2, 3, 500)
		if err := s.AppendAll(recs); err != nil {
			t.Error(err)
		}
		for i := range recs {
			want[recs[i].Amount] = true
		}
		if err := s.Flush(); err != nil {
			t.Error(err)
		}
		restore = durable.InjectFaults(func(durable.IOSite) durable.Fault { return durable.FailOp })
	})
	if _, ok := s.CompactOnce(); !ok {
		t.Fatal("no merge: the test needs a chain of two small segments")
	}
	s.Close()
	restore()

	s2, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	seen := map[uint64]int{}
	for _, ev := range s2.Collect(&EventFilter{}) {
		seen[ev.Amount]++
	}
	for a, n := range seen {
		if n != 1 || !want[a] {
			t.Errorf("event %d recovered %d times (appended: %v)", a, n, want[a])
		}
	}
	for a := range want {
		if seen[a] == 0 {
			t.Errorf("acknowledged event %d lost", a)
		}
	}
}

// Compact drains every eligible chain in one call and installs one
// manifest edition for all of its merges: the edition advances by
// exactly one, and the bytes of full manifests written are exactly the
// one MANIFEST the call left behind.
func TestCompactWritesOneEdition(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.SegmentEvents = 1 << 20
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Three seals over three agents: three chains of three segments.
	for k := 0; k < 3; k++ {
		var recs []Record
		for agent := uint32(1); agent <= 3; agent++ {
			recs = append(recs, amountRecords(agent, 2, 1000*int(agent)+10*k)...)
		}
		if err := s.AppendAll(recs); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := s.DurableStats()
	res := s.Compact()
	if res.Passes < 3 {
		t.Fatalf("Compact made %d passes, want one per chain (3)", res.Passes)
	}
	after := s.DurableStats()
	if after.ManifestEdition != before.ManifestEdition+1 {
		t.Fatalf("Compact advanced the manifest edition %d -> %d, want +1", before.ManifestEdition, after.ManifestEdition)
	}
	wrote := after.ManifestBytesWritten - before.ManifestBytesWritten
	if size := fileSize(t, filepath.Join(dir, durable.ManifestName)); wrote != size {
		t.Fatalf("Compact wrote %d bytes of full manifests, want one manifest (%d bytes)", wrote, size)
	}
	onDisk, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if after.SegmentFiles != 3 || s.NumSegments() != 3 || len(onDisk) != 3 {
		t.Fatalf("%d segment files listed, %d on disk, %d segments in memory; want 3 (retired files removed)",
			after.SegmentFiles, len(onDisk), s.NumSegments())
	}
	if after.LastError != "" {
		t.Fatal(after.LastError)
	}
}
