package eventstore

import (
	"context"
	"sort"

	"github.com/aiql/aiql/internal/sysmon"
)

// Snapshot is an immutable, epoch-pinned view of a store: for every
// hypertable chunk, the sealed segment chain plus a frozen view of the
// active memtable, captured at one commit boundary. Acquiring a snapshot
// takes the store lock only long enough to copy slice headers; every
// scan then runs entirely lock-free — concurrent appends, commits, and
// seals never move data under a reader, and a reader draining a slow
// client never stalls a writer.
//
// Queries execute against one snapshot end to end, so a cursor iterated
// while the store absorbs new data still sees exactly the segment set
// that existed when execution began.
type Snapshot struct {
	dict    *Dictionary
	commits uint64
	total   int
	minTS   int64
	maxTS   int64
	parts   []snapPart
}

// snapPart is one chunk's view: sealed segments plus the unsealed tail.
type snapPart struct {
	key  PartKey
	segs []*Segment
	mem  MemView
}

// Snapshot captures the store's current committed state. Snapshots are
// immutable and shared: repeated calls between commits return the same
// instance, so a read-mostly store pays the capture cost once per
// commit, not once per query.
func (s *Store) Snapshot() *Snapshot {
	s.mu.RLock()
	if sn := s.snap; sn != nil {
		s.mu.RUnlock()
		return sn
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap == nil {
		s.snap = s.buildSnapshotLocked()
	}
	return s.snap
}

// buildSnapshotLocked materializes the current view; the caller holds
// the write lock.
func (s *Store) buildSnapshotLocked() *Snapshot {
	sn := &Snapshot{
		dict:    s.dict,
		commits: s.commits,
		total:   s.total,
		minTS:   s.minTS,
		maxTS:   s.maxTS,
		parts:   make([]snapPart, 0, len(s.order)),
	}
	for _, key := range s.order {
		p := s.parts[key]
		// The seg slice header is shared, not copied: segment chains are
		// append-only (no compaction rewrites elements in place), so the
		// snapshot's [0:len) window stays immutable even while sealers
		// append past it.
		sn.parts = append(sn.parts, snapPart{key: key, segs: p.segs, mem: p.mem.view()})
	}
	return sn
}

// Dict returns the entity dictionary. The dictionary is append-only and
// shared with the live store: IDs referenced by snapshot events stay
// valid forever.
func (sn *Snapshot) Dict() *Dictionary { return sn.dict }

// Commits returns the store's commit counter at capture time.
func (sn *Snapshot) Commits() uint64 { return sn.commits }

// Len returns the number of committed events in the snapshot.
func (sn *Snapshot) Len() int { return sn.total }

// TimeRange returns the snapshot's [min, max] start timestamps.
func (sn *Snapshot) TimeRange() (int64, int64) { return sn.minTS, sn.maxTS }

// NumPartitions returns the number of hypertable chunks.
func (sn *Snapshot) NumPartitions() int { return len(sn.parts) }

// NumSegments returns the number of sealed segments.
func (sn *Snapshot) NumSegments() int {
	n := 0
	for i := range sn.parts {
		n += len(sn.parts[i].segs)
	}
	return n
}

// ScanUnit is one independently scannable piece of a snapshot: a sealed
// segment or a chunk's unsealed memtable tail. Sealed units have a
// stable identity (the segment id), which is what makes their scan
// results safely cacheable and reusable across appends.
type ScanUnit struct {
	key PartKey
	seg *Segment // exactly one of seg/mem is set
	mem *MemView
}

// Sealed reports whether the unit is an immutable sealed segment.
func (u *ScanUnit) Sealed() bool { return u.seg != nil }

// SegmentID returns the sealed segment's id; 0 for memtable tails.
func (u *ScanUnit) SegmentID() uint64 {
	if u.seg == nil {
		return 0
	}
	return u.seg.id
}

// Key returns the hypertable chunk the unit belongs to.
func (u *ScanUnit) Key() PartKey { return u.key }

// Len returns the number of events in the unit.
func (u *ScanUnit) Len() int {
	if u.seg != nil {
		return u.seg.Len()
	}
	return u.mem.Len()
}

// Scan calls fn for every event in the unit passing the filter, in
// start-timestamp order, and reports whether the unit was scanned to
// completion (fn never returned false).
func (u *ScanUnit) Scan(f *EventFilter, fn func(*sysmon.Event) bool) bool {
	ops := f.opSet()
	agents := f.agentSet()
	if u.seg != nil {
		return u.seg.scan(f, ops, agents, fn)
	}
	return u.mem.scan(f, ops, agents, fn)
}

// Estimate returns an upper bound on the unit's events matching f, and
// the number of posting-map probes computing it cost.
func (u *ScanUnit) Estimate(f *EventFilter) (n int, probes int64) {
	if u.seg != nil {
		return u.seg.estimate(f)
	}
	return u.mem.estimate(f), 0
}

// Units returns the scan units that can contain events matching the
// filter, pruned along the spatial (agent) and temporal (time range)
// dimensions, in deterministic order: chunks in insertion order, each
// chunk's segments oldest first, its memtable tail last.
func (sn *Snapshot) Units(f *EventFilter) []ScanUnit {
	agents := f.agentSet()
	out := make([]ScanUnit, 0, len(sn.parts))
	for i := range sn.parts {
		p := &sn.parts[i]
		if agents != nil {
			if _, ok := agents[p.key.AgentID]; !ok {
				continue
			}
		}
		for _, g := range p.segs {
			if g.overlaps(f.From, f.To) {
				out = append(out, ScanUnit{key: p.key, seg: g})
			}
		}
		if p.mem.overlaps(f.From, f.To) {
			out = append(out, ScanUnit{key: p.key, mem: &sn.parts[i].mem})
		}
	}
	return out
}

// Scan calls fn for every event matching the filter. Within a scan unit
// events arrive in start-time order; across units the order follows the
// deterministic unit order. fn returning false stops the scan.
//
// The scan honors ctx: it checks for cancellation before starting, at
// every unit boundary, and every scanCheckInterval visited events, and
// returns ctx.Err() when the scan was aborted by cancellation. A
// segment whose file cannot be opened or decoded ends the scan with
// that error.
func (sn *Snapshot) Scan(ctx context.Context, f *EventFilter, fn func(*sysmon.Event) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ops := f.opSet()
	agents := f.agentSet()
	visited := 0
	cancelled := false
	for _, u := range sn.Units(f) {
		scanFn := func(ev *sysmon.Event) bool {
			visited++
			if visited%scanCheckInterval == 0 && ctx.Err() != nil {
				cancelled = true
				return false
			}
			return fn(ev)
		}
		var ok bool
		if u.seg != nil {
			ok = u.seg.scan(f, ops, agents, scanFn)
			if err := u.seg.err(); err != nil {
				return err
			}
		} else {
			ok = u.mem.scan(f, ops, agents, scanFn)
		}
		if cancelled {
			return ctx.Err()
		}
		if !ok {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Collect returns all events matching the filter, or the error of the
// scan (see Scan) that read them.
func (sn *Snapshot) Collect(f *EventFilter) ([]sysmon.Event, error) {
	var out []sysmon.Event
	err := sn.Scan(context.Background(), f, func(ev *sysmon.Event) bool {
		out = append(out, *ev)
		return true
	})
	return out, err
}

// EstimateCost is the work one EstimateMatches call did: the scan units
// it asked and the posting-map probes they made.
type EstimateCost struct {
	Units  int64
	Probes int64
}

// EstimateMatches returns an upper-bound estimate of the number of
// events matching the filter — the optimizer's "pruning power" signal.
// Lower estimates mean higher pruning power.
func (sn *Snapshot) EstimateMatches(f *EventFilter) (total int, cost EstimateCost) {
	units := sn.Units(f)
	cost.Units = int64(len(units))
	for i := range units {
		n, probes := units[i].Estimate(f)
		total += n
		cost.Probes += probes
	}
	return total, cost
}

// Agents returns the distinct agent IDs present in the snapshot,
// ascending.
func (sn *Snapshot) Agents() []uint32 {
	seen := map[uint32]struct{}{}
	for i := range sn.parts {
		seen[sn.parts[i].key.AgentID] = struct{}{}
	}
	out := make([]uint32, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
