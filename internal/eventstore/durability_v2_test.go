package eventstore

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/sysmon"
)

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// Seals after the first full manifest write must append O(delta)
// frames to MANIFEST.delta instead of rewriting the whole manifest:
// the MANIFEST file's bytes stay fixed while editions advance, and a
// reopen replays the deltas (the WAL has been truncated against them,
// so the deltas are the only durable record of the sealed segments).
func TestManifestDeltaEditions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	fill(s, 16, 0) // first seal → full manifest; second seal → first delta
	st0 := s.DurableStats()
	if st0.ManifestEdition < 2 {
		t.Fatalf("after 16 events: edition %d, want >= 2", st0.ManifestEdition)
	}
	base := fileSize(t, filepath.Join(dir, durable.ManifestName))

	fill(s, 64, 100) // 8 more seals, all of them delta appends
	st := s.DurableStats()
	if st.ManifestEdition <= st0.ManifestEdition {
		t.Fatalf("edition did not advance: %d -> %d", st0.ManifestEdition, st.ManifestEdition)
	}
	if st.ManifestDeltas <= 0 {
		t.Fatalf("ManifestDeltas = %d, want > 0", st.ManifestDeltas)
	}
	if got := fileSize(t, filepath.Join(dir, durable.ManifestName)); got != base {
		t.Fatalf("MANIFEST grew %d -> %d bytes; seals must append deltas, not rewrite", base, got)
	}
	// Each frame carries only the per-seal delta, not the full segment
	// list: the whole log for ~10 editions stays small.
	if st.ManifestDeltas > 64<<10 {
		t.Fatalf("delta log is %d bytes for %d editions; frames are not O(delta)", st.ManifestDeltas, st.ManifestEdition)
	}
	want := eventStrings(s)
	wantLen := s.Len()
	crash(s)

	s2, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != wantLen {
		t.Fatalf("reopened store has %d events, want %d", s2.Len(), wantLen)
	}
	if got := eventStrings(s2); !reflect.DeepEqual(got, want) {
		t.Fatal("reopened events differ after delta replay")
	}
	if got := s2.DurableStats().ManifestEdition; got != st.ManifestEdition {
		t.Fatalf("reopened edition %d, want %d", got, st.ManifestEdition)
	}
	// The reopened store keeps appending deltas from the recovered edition.
	fill(s2, 16, 500)
	if got := s2.DurableStats().ManifestEdition; got <= st.ManifestEdition {
		t.Fatalf("post-recovery edition %d, want > %d", got, st.ManifestEdition)
	}
}

// A torn tail in MANIFEST.delta — a crash mid-append — must not lose
// the intact frames before it.
func TestManifestDeltaTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	fill(s, 48, 0)
	if s.DurableStats().ManifestDeltas <= 0 {
		t.Fatal("expected delta frames before tearing the log")
	}
	want := eventStrings(s)
	crash(s)

	f, err := os.OpenFile(filepath.Join(dir, durable.ManifestDeltaName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x7f, 0x03, 0xee, 0x41, 0x99}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := eventStrings(s2); !reflect.DeepEqual(got, want) {
		t.Fatal("reopened events differ after torn delta tail")
	}
	fill(s2, 16, 500)
	if e := s2.DurableStats().LastError; e != "" {
		t.Fatalf("post-recovery appends: %v", e)
	}
}

// A full manifest rewrite (compaction) removes the delta log. If a
// crash resurrects stale frames — editions at or below the rewritten
// manifest's — recovery must skip them rather than re-apply old state.
func TestManifestDeltaStaleFrames(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	fill(s, 48, 0)
	deltaPath := filepath.Join(dir, durable.ManifestDeltaName)
	stale, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}

	if res := s.Compact(); res.Passes == 0 {
		t.Fatal("compaction found no work; test needs a full manifest rewrite")
	}
	if _, err := os.Stat(deltaPath); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("delta log still present after compaction rewrite: %v", err)
	}
	// Resurrect the pre-compaction frames, as a crash that interleaved
	// badly with the rewrite could.
	if err := os.WriteFile(deltaPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	want := eventStrings(s)
	wantEdition := s.DurableStats().ManifestEdition
	crash(s)

	s2, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := eventStrings(s2); !reflect.DeepEqual(got, want) {
		t.Fatal("stale delta frames changed recovered state")
	}
	if got := s2.DurableStats().ManifestEdition; got != wantEdition {
		t.Fatalf("reopened edition %d, want %d (stale frames must be skipped)", got, wantEdition)
	}
	seen := map[uint64]bool{}
	for _, ev := range collectAll(s2) {
		if seen[ev.ID] {
			t.Fatalf("duplicate event ID %d after stale-frame recovery", ev.ID)
		}
		seen[ev.ID] = true
	}
}

// StorageStats reports mapped bytes for open v2 segments and block
// cache traffic once batch scans decode compressed columns.
func TestStorageStatsBlockCache(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	fill(s, 64, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	scan := func() int {
		cf := (&EventFilter{}).Compile()
		keep := func(*sysmon.Event) bool { return true }
		total := 0
		for _, u := range s2.Snapshot().Units(&EventFilter{}) {
			batch, _, err := u.CollectBatch(context.Background(), cf, keep)
			if err != nil {
				t.Fatal(err)
			}
			total += len(batch)
		}
		return total
	}
	if got := scan(); got != 64 {
		t.Fatalf("batch scan returned %d events, want 64", got)
	}
	st := s2.StorageStats()
	if st.BlockCache.Misses == 0 {
		t.Fatal("cold batch scan recorded no block-cache misses")
	}
	if st.BlockCache.Bytes <= 0 || st.BlockCache.Entries == 0 {
		t.Fatalf("block cache holds nothing after a scan: %+v", st.BlockCache)
	}
	if st.HeapBytes < st.BlockCache.Bytes {
		t.Fatalf("HeapBytes %d < cached block bytes %d", st.HeapBytes, st.BlockCache.Bytes)
	}
	scan()
	st2 := s2.StorageStats()
	if st2.BlockCache.Hits == 0 {
		t.Fatal("warm batch scan recorded no block-cache hits")
	}
	// On mmap-capable platforms the open segment files are mapped, not
	// heap-resident; the read-at fallback reports zero mapped bytes.
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg")); len(segs) == 0 {
		t.Fatal("expected segment files on disk")
	}
	if st2.MappedBytes < 0 {
		t.Fatalf("negative mapped bytes %d", st2.MappedBytes)
	}
}
