package eventstore

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/sysmon"
)

// Segment is one sealed, immutable run of events for a hypertable chunk:
// the unit of the store's LSM-style layout. A segment's events are sorted
// by start timestamp and never change after sealing, so readers touch it
// without any lock, and per-segment scan results can be cached by
// (filter, segment id) and reused verbatim across appends.
//
// A segment has two backings. Freshly sealed segments own their event
// array on the heap. Segments restored from their files keep only a
// durable.SegmentReader over the mmap'd file: count and bounds come
// from the manifest, the scan-key and timestamp columns are zero-copy
// views of the mapping, per-attribute columns decode lazily through the
// store's block cache, and the AoS event array materializes only if a
// caller actually needs whole events (compaction merges, posting-path
// scans). Resident memory for a cold dataset is therefore metadata, not
// data. A file that turns out unreadable fails every scan that reaches
// it with the read error; its data never silently reads as absent.
//
// Posting indexes (entity → event positions, operation histogram) are
// built once, outside the store's write lock, after the segment becomes
// visible: a seal never stalls concurrent appends or queries on index
// maintenance. Until the build finishes, scans fall back to the
// (time-bounded) sequential path; the ready flag publishes the indexes
// with release/acquire semantics. For reader-backed segments the
// "build" is a lazy load of the file's index section, triggered the
// first time a filter could profit from it.
type Segment struct {
	id    uint64
	key   PartKey
	count int
	// events is the AoS event array: always set for heap-sealed
	// segments, lazily materialized (evOnce/evDone) for reader-backed
	// ones. Read it through loadedEvents/materialize only.
	events []sysmon.Event
	minTS  int64
	maxTS  int64
	// minEventID/maxEventID bound the contained event IDs. Events are
	// routed to a chunk in ID (arrival) order and a seal moves the
	// whole memtable, so a chunk's sealed events are always an
	// ID-prefix of its event stream — which is what lets WAL recovery
	// skip exactly the records a persisted segment already covers.
	minEventID uint64
	maxEventID uint64

	indexed    bool // whether posting indexes are wanted at all
	buildOnce  sync.Once
	ready      atomic.Bool
	postingSub map[sysmon.EntityID][]int32
	postingObj map[sysmon.EntityID][]int32
	opCount    [sysmon.NumOperations]int
	// opsReady publishes opCount independently of the posting maps:
	// v2 files persist the histogram in the block directory, so
	// estimates use it without loading the index section. Atomic
	// because the heap build path sets it concurrently with estimates.
	opsReady atomic.Bool

	// keysOnce/scanKeys is the packed scan-key column for the batch
	// filter path (see batch.go), built lazily on the segment's first
	// batch scan: one word per event instead of the whole 56-byte
	// struct, so the dense predicate pass streams ~7x less memory. For
	// reader-backed segments it is a zero-copy cast of the file's key
	// column.
	keysOnce sync.Once
	scanKeys []uint64

	// File backing (nil for heap-sealed segments). For lazily restored
	// segments the pointer stays nil until openOnce runs: every bound a
	// cold segment needs (count, time range, ID range) came from the
	// manifest ref, so a reopening store defers even the file open —
	// and its syscalls — until a scan actually touches the segment.
	// Access through fileReader (forces the open) or reader (peeks).
	rd       atomic.Pointer[durable.SegmentReader]
	lazyPath string
	openOnce sync.Once
	bc       *BlockCache
	onErr    func(error)
	// readErr latches the first failure to open or decode the file.
	readErr atomic.Pointer[error]

	evOnce sync.Once
	evDone atomic.Bool

	tsOnce sync.Once
	tsCol  []int64
}

// fileBacked reports whether the segment's authoritative data lives in
// a segment file (opened or not) rather than on the heap.
func (g *Segment) fileBacked() bool { return g.lazyPath != "" || g.rd.Load() != nil }

// fileReader returns the segment's reader, opening the file on first
// use for lazily restored segments. It returns nil for heap-backed
// segments and after a failed open (the error is latched, see err).
func (g *Segment) fileReader() *durable.SegmentReader {
	if g.lazyPath == "" {
		return g.rd.Load()
	}
	g.openOnce.Do(func() {
		rd, err := durable.OpenSegmentReader(g.lazyPath)
		if err != nil {
			g.fail(err)
			return
		}
		if rd.ID != g.id || rd.Count != g.count {
			g.fail(fmt.Errorf("segment file %s does not match manifest (id %d vs %d, %d events vs %d): %w",
				g.lazyPath, rd.ID, g.id, rd.Count, g.count, durable.ErrCorrupt))
			return
		}
		if g.indexed && rd.Indexed {
			for op, c := range rd.OpCount {
				if op < sysmon.NumOperations {
					g.opCount[op] = c
				}
			}
			g.opsReady.Store(true)
		}
		g.rd.Store(rd)
	})
	return g.rd.Load()
}

// fail latches a failure to open or decode the segment's file (the
// first one wins), marked as a durable.ErrStorage fault, and reports it
// to the owning store. Every scan that reaches the segment afterwards
// returns it.
func (g *Segment) fail(err error) {
	err = fmt.Errorf("%w: %w", durable.ErrStorage, err)
	g.readErr.CompareAndSwap(nil, &err)
	if g.onErr != nil {
		g.onErr(err)
	}
}

// err returns the segment's latched read failure, nil if none.
func (g *Segment) err() error {
	if p := g.readErr.Load(); p != nil {
		return *p
	}
	return nil
}

// keyColumn returns the segment's packed scan-key column, building it
// on first use. Sealed segments are immutable, so the column is built
// once and shared by every concurrent scan. Reader-backed segments cast
// the mapped key column in place; nil is returned (and the error
// latched) if the column is unreadable.
func (g *Segment) keyColumn() []uint64 {
	g.keysOnce.Do(func() {
		if rd := g.fileReader(); rd != nil {
			col, err := rd.Column(durable.ColKey)
			if err != nil {
				g.fail(err)
				return
			}
			if keys, ok := durable.AsUint64s(col); ok {
				g.scanKeys = keys
				return
			}
			keys := make([]uint64, len(col)/8)
			for i := range keys {
				keys[i] = binary.LittleEndian.Uint64(col[i*8:])
			}
			g.scanKeys = keys
			return
		}
		keys := make([]uint64, len(g.events))
		for i := range g.events {
			ev := &g.events[i]
			keys[i] = scanKey(ev.AgentID, ev.Op, ev.ObjType)
		}
		g.scanKeys = keys
	})
	return g.scanKeys
}

// tsColumn returns the StartTS column for reader-backed segments
// (zero-copy from the mapping when aligned). Heap-backed segments use
// their event array directly and never call this.
func (g *Segment) tsColumn() []int64 {
	g.tsOnce.Do(func() {
		rd := g.fileReader()
		if rd == nil {
			return
		}
		col, err := rd.Column(durable.ColStartTS)
		if err != nil {
			g.fail(err)
			return
		}
		if ts, ok := durable.AsInt64s(col); ok {
			g.tsCol = ts
			return
		}
		ts := make([]int64, len(col)/8)
		for i := range ts {
			ts[i] = int64(binary.LittleEndian.Uint64(col[i*8:]))
		}
		g.tsCol = ts
	})
	return g.tsCol
}

// loadedEvents returns the AoS event array if it is resident, nil
// otherwise — the batch path's column view uses it to pick the AoS or
// the columnar backing, without forcing a materialize.
func (g *Segment) loadedEvents() []sysmon.Event {
	if !g.fileBacked() || g.evDone.Load() {
		return g.events
	}
	return nil
}

// materialize returns the full AoS event array, decoding the segment
// file on first call. On decode failure the error is latched (callers
// check err) and an empty array is returned.
func (g *Segment) materialize() []sysmon.Event {
	if !g.fileBacked() || g.evDone.Load() {
		return g.events
	}
	g.evOnce.Do(func() {
		rd := g.fileReader()
		if rd == nil {
			return // open failed; the error is latched
		}
		evs, err := rd.MaterializeEvents()
		if err != nil {
			g.fail(err)
			evs = nil
		}
		g.events = evs
		g.evDone.Store(true)
	})
	return g.events
}

// newSegment seals a sorted event run into an immutable segment. The
// caller must not retain write access to events.
func newSegment(id uint64, key PartKey, events []sysmon.Event, indexed bool) *Segment {
	g := &Segment{id: id, key: key, events: events, count: len(events), indexed: indexed}
	if len(events) > 0 {
		g.minTS = events[0].StartTS
		g.maxTS = events[len(events)-1].StartTS
		g.minEventID, g.maxEventID = events[0].ID, events[0].ID
		for i := range events {
			if id := events[i].ID; id < g.minEventID {
				g.minEventID = id
			} else if id > g.maxEventID {
				g.maxEventID = id
			}
		}
	}
	return g
}

// restoreSegmentLazy rebuilds a sealed segment from its manifest ref
// alone, without opening the segment file: count, time range, and ID
// bounds all come from the ref, so a reopening store pays zero per-file
// syscalls until a scan first touches the segment.
func restoreSegmentLazy(ref *durable.SegmentRef, path string, indexed bool, bc *BlockCache, onErr func(error)) *Segment {
	return &Segment{
		id:         ref.ID,
		key:        PartKey{AgentID: ref.AgentID, Bucket: ref.Bucket},
		count:      ref.Events,
		minTS:      ref.MinTS,
		maxTS:      ref.MaxTS,
		minEventID: ref.MinEventID,
		maxEventID: ref.MaxEventID,
		indexed:    indexed,
		lazyPath:   path,
		bc:         bc,
		onErr:      onErr,
	}
}

// reader peeks at the segment's file backing without forcing a lazy
// open (nil when heap-resident or not yet opened).
func (g *Segment) reader() *durable.SegmentReader { return g.rd.Load() }

// segmentData exports the segment's persisted form. The events and
// posting slices are shared, not copied: both sides are immutable.
// Reader-backed segments materialize first.
func (g *Segment) segmentData() *durable.SegmentData {
	d := &durable.SegmentData{
		ID:         g.id,
		AgentID:    g.key.AgentID,
		Bucket:     g.key.Bucket,
		Events:     g.materialize(),
		MinEventID: g.minEventID,
		MaxEventID: g.maxEventID,
	}
	if g.indexed && g.ready.Load() {
		d.Indexed = true
		d.PostingSub = g.postingSub
		d.PostingObj = g.postingObj
		d.OpCount = append([]int(nil), g.opCount[:]...)
	}
	return d
}

// ID returns the segment's store-wide unique, monotonically assigned id.
func (g *Segment) ID() uint64 { return g.id }

// Key returns the hypertable chunk the segment belongs to.
func (g *Segment) Key() PartKey { return g.key }

// Len returns the number of events in the segment.
func (g *Segment) Len() int { return g.count }

// TimeRange returns the minimum and maximum start timestamps.
func (g *Segment) TimeRange() (int64, int64) { return g.minTS, g.maxTS }

// Events exposes the segment's raw events, materializing a
// reader-backed segment on first call. The slice is immutable and must
// not be modified.
func (g *Segment) Events() []sysmon.Event { return g.materialize() }

// ApproxBytes estimates the segment's resident heap footprint for the
// event data (posting indexes excluded). A reader-backed segment that
// has not materialized holds no AoS array, so its heap cost is ~zero —
// the mapped file is accounted separately (see StorageStats).
func (g *Segment) ApproxBytes() uint64 {
	if g.fileBacked() && !g.evDone.Load() {
		return 0
	}
	return uint64(g.count) * uint64(unsafe.Sizeof(sysmon.Event{}))
}

// buildIndexes constructs the posting lists and operation histogram.
// It is idempotent and safe to call concurrently; the store calls it
// after sealing, with no locks held. Reader-backed segments whose file
// carries indexes defer to the lazy load instead of rebuilding.
func (g *Segment) buildIndexes() {
	if !g.indexed || g.ready.Load() {
		return // unindexed, or restored with prebuilt indexes
	}
	if g.fileBacked() {
		if rd := g.fileReader(); rd != nil && rd.Indexed {
			g.ensureIndexes()
			return
		}
	}
	g.buildOnce.Do(func() {
		events := g.materialize()
		g.postingSub = make(map[sysmon.EntityID][]int32)
		g.postingObj = make(map[sysmon.EntityID][]int32)
		for i := range events {
			ev := &events[i]
			g.postingSub[ev.Subject] = append(g.postingSub[ev.Subject], int32(i))
			g.postingObj[ev.Object] = append(g.postingObj[ev.Object], int32(i))
			g.opCount[ev.Op]++
		}
		g.opsReady.Store(true)
		g.ready.Store(true)
	})
}

// ensureIndexes makes the posting indexes available if they can be had
// without a rebuild, loading a reader-backed segment's index section on
// first need. Returns whether indexed scans may proceed.
func (g *Segment) ensureIndexes() bool {
	if !g.indexed {
		return false
	}
	if g.ready.Load() {
		return true
	}
	if !g.fileBacked() {
		return false // heap segments index in the background post-seal
	}
	rd := g.fileReader()
	if rd == nil || !rd.Indexed {
		return false
	}
	g.buildOnce.Do(func() {
		sub, obj, err := rd.ReadIndexes()
		if err != nil {
			g.fail(err)
			return
		}
		g.postingSub = sub
		g.postingObj = obj
		g.ready.Store(true)
	})
	return g.ready.Load()
}

// postingApplicable reports whether the filter constrains an entity set
// tightly enough for the posting path to win — the precondition for
// lazily loading a reader-backed segment's index section at all.
func (g *Segment) postingApplicable(f *EventFilter) bool {
	const postingLimit = 512
	subLen, objLen := f.Subjects.Len(), f.Objects.Len()
	return (subLen >= 0 && subLen <= postingLimit) || (objLen >= 0 && objLen <= postingLimit)
}

// overlaps reports whether the segment's time range intersects [from, to).
func (g *Segment) overlaps(from, to int64) bool {
	if g.count == 0 {
		return false
	}
	if from != 0 && g.maxTS < from {
		return false
	}
	if to != 0 && g.minTS >= to {
		return false
	}
	return true
}

// scan calls fn for every event passing the filter, in start-timestamp
// order. It returns false if fn aborted the scan.
//
// With indexes built, the scan picks the cheapest access path: the
// shorter of the subject/object posting lists restricted by the filter's
// entity sets, falling back to a (time-bounded) sequential scan. The
// callback shape needs whole events, so reader-backed segments
// materialize here. The engine never takes this path — it scans through
// CollectBatch, which gathers from columns; scan stays as the
// row-at-a-time reference the batch tests cross-check against and for
// Snapshot.Scan/Collect consumers (export, baseline loaders).
func (g *Segment) scan(f *EventFilter, ops *[sysmon.NumOperations]bool, agents map[uint32]struct{}, fn func(*sysmon.Event) bool) bool {
	if g.indexed && (g.ready.Load() || (g.fileBacked() && g.postingApplicable(f) && g.ensureIndexes())) {
		if list, ok := g.bestPostingList(f); ok {
			events := g.materialize()
			for _, pos := range list {
				if int(pos) >= len(events) {
					return true // materialize failed; the error is latched
				}
				ev := &events[pos]
				if f.matches(ev, ops, agents) {
					if !fn(ev) {
						return false
					}
				}
			}
			return true
		}
	}
	events := g.materialize()
	lo, hi := timeSlice(events, f.From, f.To)
	for i := lo; i < hi; i++ {
		ev := &events[i]
		if f.matches(ev, ops, agents) {
			if !fn(ev) {
				return false
			}
		}
	}
	return true
}

// bestPostingList merges the posting lists of the smaller bound entity
// set (subject or object) when the filter constrains one to a small set.
// The merged list preserves position order so scans stay time-ordered.
func (g *Segment) bestPostingList(f *EventFilter) ([]int32, bool) {
	const postingLimit = 512 // beyond this, sequential scan wins
	subLen, objLen := f.Subjects.Len(), f.Objects.Len()
	useSub := subLen >= 0 && subLen <= postingLimit
	useObj := objLen >= 0 && objLen <= postingLimit
	if useSub && useObj && objLen < subLen {
		useSub = false
	}
	switch {
	case useSub:
		return mergePostings(g.postingSub, f.Subjects), true
	case useObj:
		return mergePostings(g.postingObj, f.Objects), true
	}
	return nil, false
}

// eachPosting calls fn with the posting list of every entity of set the
// segment has postings for, and returns the map probes that took.
// Whichever of the set and the posting map is smaller is walked and
// probed into the other — the lists visited are those of their
// intersection either way — so a wide candidate set costs a segment no
// more than its own distinct entities: O(min(|set|, |postings|)).
func eachPosting(postings map[sysmon.EntityID][]int32, set *IDSet, fn func(list []int32)) (probes int64) {
	if len(postings) < len(set.m) {
		for id, list := range postings {
			if _, ok := set.m[id]; ok {
				fn(list)
			}
		}
		return int64(len(postings))
	}
	for id := range set.m {
		if list, ok := postings[id]; ok {
			fn(list)
		}
	}
	return int64(len(set.m))
}

// mergePostings concatenates the posting lists of the set's entities
// and sorts the positions. Every position sits in exactly one list, so
// the sorted result does not depend on the order the lists arrive in.
func mergePostings(postings map[sysmon.EntityID][]int32, set *IDSet) []int32 {
	var out []int32
	eachPosting(postings, set, func(list []int32) { out = append(out, list...) })
	slices.Sort(out)
	return out
}

// timeSliceIdx returns the [lo, hi) position range of events in
// [from, to), against whichever timestamp representation is resident:
// the AoS array for heap segments, the mapped StartTS column for
// reader-backed ones.
func (g *Segment) timeSliceIdx(from, to int64) (int, int) {
	// A window covering the whole segment needs no timestamp lookup at
	// all — in particular it never forces a lazy segment's file open.
	if (from == 0 || from <= g.minTS) && (to == 0 || to > g.maxTS) {
		return 0, g.count
	}
	if evs := g.loadedEvents(); evs != nil || !g.fileBacked() {
		return timeSlice(evs, from, to)
	}
	return timeSliceTS(g.tsColumn(), from, to)
}

// estimate returns an upper bound on how many events in the segment can
// match the filter, using the op histogram and posting-list lengths when
// available, else the (time-sliced) segment size. For reader-backed
// segments the histogram is free (persisted in the directory) and the
// posting clamp triggers the lazy index load only when the filter's
// entity sets could actually tighten the bound. probes counts the
// posting-map lookups the estimate cost.
func (g *Segment) estimate(f *EventFilter) (n int, probes int64) {
	lo, hi := g.timeSliceIdx(f.From, f.To)
	n = hi - lo
	if n <= 0 {
		return 0, 0
	}
	if !g.indexed {
		return n, 0
	}
	if len(f.Ops) > 0 && g.opsReady.Load() {
		opN := 0
		for _, op := range f.Ops {
			if int(op) < sysmon.NumOperations {
				opN += g.opCount[op]
			}
		}
		if opN < n {
			n = opN
		}
	}
	if !g.ready.Load() {
		if !g.postingApplicable(f) || !g.ensureIndexes() {
			return n, 0
		}
	}
	s, p := postingEstimate(g.postingSub, f.Subjects, lo, hi)
	if s >= 0 && s < n {
		n = s
	}
	probes += p
	s, p = postingEstimate(g.postingObj, f.Objects, lo, hi)
	if s >= 0 && s < n {
		n = s
	}
	return n, probes + p
}

// postingEstimate sums the posting-list lengths for the set's entities,
// clamped to the [lo, hi) position range of the filter's time slice:
// a window that excludes most of the segment must not be charged for
// postings it can never touch. Posting lists are position-sorted, so
// the clamp is two binary searches per list. probes is what the walk
// cost (see eachPosting).
func postingEstimate(postings map[sysmon.EntityID][]int32, set *IDSet, lo, hi int) (total int, probes int64) {
	l := set.Len()
	if l < 0 {
		return -1, 0
	}
	const estimateLimit = 4096 // cap the work spent estimating
	if l > estimateLimit {
		return -1, 0
	}
	probes = eachPosting(postings, set, func(list []int32) {
		if lo > 0 {
			list = list[sort.Search(len(list), func(i int) bool { return int(list[i]) >= lo }):]
		}
		if len(list) > 0 && int(list[len(list)-1]) >= hi {
			list = list[:sort.Search(len(list), func(i int) bool { return int(list[i]) >= hi })]
		}
		total += len(list)
	})
	return total, probes
}

// timeSlice returns the index range [lo, hi) of events whose start
// timestamps fall in [from, to), using binary search over a sorted run.
func timeSlice(events []sysmon.Event, from, to int64) (int, int) {
	lo, hi := 0, len(events)
	if from != 0 {
		lo = sort.Search(len(events), func(i int) bool { return events[i].StartTS >= from })
	}
	if to != 0 {
		hi = sort.Search(len(events), func(i int) bool { return events[i].StartTS >= to })
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// timeSliceTS is timeSlice over a bare timestamp column.
func timeSliceTS(ts []int64, from, to int64) (int, int) {
	lo, hi := 0, len(ts)
	if from != 0 {
		lo = sort.Search(len(ts), func(i int) bool { return ts[i] >= from })
	}
	if to != 0 {
		hi = sort.Search(len(ts), func(i int) bool { return ts[i] >= to })
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
