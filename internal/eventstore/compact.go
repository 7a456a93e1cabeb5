package eventstore

import (
	"sort"
	"time"

	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/sysmon"
)

// Compaction solves the small-segment accumulation problem: repeated
// small seals (frequent Flushes, trickling agents) leave chains of tiny
// segments whose per-segment overhead — scan-cache entries, manifest
// rows, file handles — dwarfs their data. A pass merges a chain of
// adjacent small segments into one (bounded by compactFanIn segments
// and compactTargetEvents merged events), installs the result by
// replacing the chain slice copy-on-write — snapshots pinned by
// in-flight queries keep scanning the retired segments, which stay
// immutable — and retires the old segment IDs through the store's
// retire listeners so the engine's scan cache re-points at the merged
// segment.
//
// Durable stores write each merged segment's file before installing
// it, and install one manifest edition per Compact call after its last
// pass; only then are the retired files deleted, so a crash at any
// point recovers either the old chains or the new ones, never neither
// and never both. A full manifest is O(dictionary), so one edition for
// a call's passes instead of one per pass is most of what a drain
// costs. Between an install and that
// edition a merge is pending: a seal then writes a full edition rather
// than a delta frame, which could list the merged segment on top of a
// base manifest that still lists its inputs. Lock order: compactMu,
// then durableState.mu, then Store.mu.
//
// Compaction moves no events in or out of the store and does not bump
// the commit counter: every result (and result-cache entry) computed
// before a pass remains valid after it.

// CompactionResult sums what compaction passes accomplished.
type CompactionResult struct {
	// Passes is the number of merges performed.
	Passes int
	// SegmentsRetired counts the input segments replaced by merges.
	SegmentsRetired int
	// EventsMerged counts the events rewritten into merged segments.
	EventsMerged int
}

// compactRun is one eligible chain of adjacent small segments.
type compactRun struct {
	key  PartKey
	segs []*Segment
}

// findCompactRunLocked returns the first chain of ≥2 adjacent segments,
// each smaller than the target, whose merged size stays within the
// target, taking at most compactFanIn inputs. A segment whose file
// failed to read is never an input: merging it would drop its rows.
// Caller holds mu (read).
func (s *Store) findCompactRunLocked() *compactRun {
	target := s.compactTarget
	small := func(g *Segment) bool { return g.Len() < target && g.err() == nil }
	for _, key := range s.order {
		p := s.parts[key]
		for i := 0; i < len(p.segs); i++ {
			if !small(p.segs[i]) {
				continue
			}
			total := 0
			j := i
			for j < len(p.segs) && j-i < compactFanIn && small(p.segs[j]) && total+p.segs[j].Len() <= target {
				total += p.segs[j].Len()
				j++
			}
			if j-i >= 2 {
				return &compactRun{key: key, segs: p.segs[i:j:j]}
			}
		}
	}
	return nil
}

// Compact runs passes until no chain is eligible, then installs one
// manifest edition for all of them, returning the sums. Safe to call
// concurrently with appends, seals, and queries.
func (s *Store) Compact() CompactionResult {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	var total CompactionResult
	if s.closed.Load() {
		return total
	}
	for s.compactPassLocked(&total) {
	}
	s.compactEditionLocked()
	return total
}

// compactPassLocked performs at most one merge, installs it in the
// chain (writing the merged segment's file first in a durable store),
// adds it to total and reports whether it merged. The manifest edition
// is left to compactEditionLocked. The caller holds compactMu. A Close that has begun stops the passes; it waits
// on compactMu, so the edition that follows still lands before the WAL
// closes.
func (s *Store) compactPassLocked(total *CompactionResult) bool {
	if s.closed.Load() {
		return false
	}
	s.mu.RLock()
	run := s.findCompactRunLocked()
	s.mu.RUnlock()
	if run == nil {
		return false
	}

	// Merge outside any lock: the inputs are immutable. An input whose
	// file turns out unreadable now aborts the pass (its error is
	// recorded) and is left out of every later run.
	merged := mergeSegmentEvents(run.segs)
	for _, g := range run.segs {
		if g.err() != nil {
			return false
		}
	}
	s.mu.Lock()
	s.nextSegID++
	id := s.nextSegID
	s.mu.Unlock()
	g := newSegment(id, run.key, merged)
	// A durable store persists the merged segment before installing it,
	// so any edition written once it is in the chain can list it.
	files, err := sealSegments(s.Dir(), []*Segment{g})
	if err != nil {
		s.dur.setErr(err)
		return false
	}

	// Install copy-on-write: pinned snapshots keep the old chain slice;
	// only compaction removes or reorders chain elements and compactMu
	// serializes it, so the run is still in place — seals can only have
	// appended behind it. A durable store swaps the chain and marks the
	// merge pending under d.mu, so a seal's edition sees either the old
	// chain or the new one with the merge pending.
	d := s.dur
	if d != nil {
		d.mu.Lock()
	}
	s.mu.Lock()
	p := s.parts[run.key]
	idx := runIndex(p.segs, run.segs)
	if idx < 0 {
		// No edition lists the merged file; the next Open's orphan
		// sweep deletes it.
		s.mu.Unlock()
		if d != nil {
			d.mu.Unlock()
		}
		return false
	}
	newSegs := make([]*Segment, 0, len(p.segs)-len(run.segs)+1)
	newSegs = append(newSegs, p.segs[:idx]...)
	newSegs = append(newSegs, g)
	newSegs = append(newSegs, p.segs[idx+len(run.segs):]...)
	p.segs = newSegs
	s.snap = nil // same data, new segment set; commits stay unchanged
	s.mu.Unlock()
	if d != nil {
		d.persisted[id] = files[0]
		for _, old := range run.segs {
			if ps, ok := d.persisted[old.id]; ok {
				d.retired = append(d.retired, ps.file)
				delete(d.persisted, old.id)
			}
		}
		d.mergePending = true
		d.mu.Unlock()
	}

	retired := make([]uint64, len(run.segs))
	for i, old := range run.segs {
		retired[i] = old.id
	}
	s.notifyRetire(retired)
	s.compactions.Add(1)
	s.segsCompacted.Add(uint64(len(run.segs)))
	total.Passes++
	total.SegmentsRetired += len(run.segs)
	total.EventsMerged += len(merged)
	return true
}

// compactEditionLocked installs one full manifest edition if a merge
// is pending, then deletes the retired files once an edition no longer
// lists them. Those can go at once: the merge opened each of them, and
// a pinned snapshot keeps reading through that open mapping or handle.
// A failed edition leaves them listed, so they stay (the merge stays
// pending, and the next edition retries); a failed removal leaves an
// orphan the next Open deletes. The caller holds compactMu and found
// the store open when it took it, so Close is at most waiting on it.
func (s *Store) compactEditionLocked() {
	d := s.dur
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.mergePending {
		s.writeManifestLocked()
	}
	var files []string
	if !d.mergePending {
		files, d.retired = d.retired, nil
	}
	d.mu.Unlock()
	for _, f := range files {
		durable.RemoveSegmentFile(d.dir, f)
	}
}

// runIndex locates run as a contiguous subsequence of segs by pointer
// identity; -1 if it is no longer there.
func runIndex(segs, run []*Segment) int {
	for i := 0; i+len(run) <= len(segs); i++ {
		if segs[i] != run[0] {
			continue
		}
		match := true
		for j := 1; j < len(run); j++ {
			if segs[i+j] != run[j] {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

// mergeSegmentEvents flattens the runs in chain order and stable-sorts
// by start timestamp: equal timestamps keep their chain (arrival)
// order, exactly as a stable k-way merge would.
func mergeSegmentEvents(segs []*Segment) []sysmon.Event {
	total := 0
	for _, g := range segs {
		total += g.Len()
	}
	out := make([]sysmon.Event, 0, total)
	for _, g := range segs {
		out = append(out, g.Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartTS < out[j].StartTS })
	return out
}

// StartCompactor runs Compact in the background every interval until
// StopCompactor (or Close). A second call while running is a no-op.
func (s *Store) StartCompactor(interval time.Duration) {
	if interval <= 0 {
		return
	}
	s.compactorMu.Lock()
	defer s.compactorMu.Unlock()
	if s.compactorStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.compactorStop, s.compactorDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.Compact()
			}
		}
	}()
}

// StopCompactor stops the background compactor and waits for the
// in-flight pass, if any, to finish. No-op when none is running.
func (s *Store) StopCompactor() {
	s.compactorMu.Lock()
	stop, done := s.compactorStop, s.compactorDone
	s.compactorStop, s.compactorDone = nil, nil
	s.compactorMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
