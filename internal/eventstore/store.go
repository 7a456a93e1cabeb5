package eventstore

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/aiql/aiql/internal/sysmon"
)

// ErrClosed reports a write against a closed store. Reachable when a
// live writer (an HTTP ingest, a loader) races a catalog hot-swap that
// closes the store it is about to append to: the write is refused
// cleanly instead of silently losing durability, and the caller retries
// against the swapped-in store.
var ErrClosed = errors.New("eventstore: store is closed")

// scanCheckInterval is how many visited events a scan processes between
// context-cancellation checks. Checking ctx.Err() takes a mutex, so the
// check is amortized over a block of events; unit boundaries are always
// checked.
const scanCheckInterval = 2048

// PartKey identifies a hypertable chunk: one agent over one hour.
type PartKey struct {
	AgentID uint32
	Bucket  int64 // StartTS / chunkDuration
}

// partState is one hypertable chunk's LSM state: the active memtable
// receiving committed events plus the chain of sealed immutable
// segments, oldest first.
type partState struct {
	key  PartKey
	mem  memtable
	segs []*Segment
}

// Store is the AIQL data store: an entity dictionary plus hypertable
// chunks of events in an LSM-style layout — per chunk, an active
// in-memory memtable and a chain of sealed, immutable segments. Readers
// obtain a lock-free Snapshot; the store's lock only serializes writers
// and snapshot capture. It is safe for concurrent readers and writers.
type Store struct {
	mu   sync.RWMutex
	opts Options
	dict *Dictionary

	parts map[PartKey]*partState
	order []PartKey // insertion-ordered keys for deterministic iteration

	// batch holds AppendAll's events up to the next commit boundary.
	// It is empty whenever the write lock is not held; its capacity is
	// reused across calls.
	batch       []sysmon.Event
	commits     uint64
	nextSegID   uint64
	nextEventID uint64
	nextSeq     map[uint32]uint64
	total       int
	minTS       int64
	maxTS       int64

	// snap memoizes the current Snapshot between mutations; commits and
	// seals clear it. Guarded by mu.
	snap *Snapshot

	// dur attaches the store to its durable directory; nil for
	// in-memory stores. Set once before the store is shared.
	dur *durableState

	// blockCache holds decompressed v2 segment column blocks, shared by
	// every mmap-backed segment of the store. nil when disabled.
	blockCache *BlockCache

	compactions   atomic.Uint64
	segsCompacted atomic.Uint64

	// compactorMu guards the background compactor's lifecycle;
	// compactMu serializes compaction passes themselves.
	compactorMu   sync.Mutex
	compactorStop chan struct{}
	compactorDone chan struct{}
	compactMu     sync.Mutex
	closed        atomic.Bool

	retireMu  sync.Mutex
	retireFns []func(segIDs []uint64)
}

// OnSegmentRetire registers fn to be called with the IDs of segments
// retired by compaction, after their replacement is installed. The
// engine uses this to drop the retired segments' scan-cache entries so
// the cache re-points at the merged segment.
func (s *Store) OnSegmentRetire(fn func(segIDs []uint64)) {
	s.retireMu.Lock()
	s.retireFns = append(s.retireFns, fn)
	s.retireMu.Unlock()
}

func (s *Store) notifyRetire(ids []uint64) {
	if len(ids) == 0 {
		return
	}
	s.retireMu.Lock()
	fns := append([]func(segIDs []uint64){}, s.retireFns...)
	s.retireMu.Unlock()
	for _, fn := range fns {
		fn(ids)
	}
}

// afterCommit finishes a commit outside the store lock: index builds
// for freshly sealed segments and, for durable stores, their files and
// a manifest edition.
func (s *Store) afterCommit(sealed []*Segment) {
	if s.dur == nil {
		sealSegments("", sealed)
		return
	}
	s.persistSealed(sealed)
}

// New creates a store with the given options.
func New(opts Options) *Store {
	opts = opts.normalized()
	return &Store{
		opts:       opts,
		dict:       newDictionary(),
		parts:      make(map[PartKey]*partState),
		nextSeq:    make(map[uint32]uint64),
		blockCache: NewBlockCache(opts.BlockCacheBytes),
	}
}

// Dict returns the entity dictionary.
func (s *Store) Dict() *Dictionary { return s.dict }

// Record is one raw monitoring record as produced by a collection agent:
// the subject process and object entity are given by value, and the store
// interns them: identical entities share one dictionary ID.
type Record struct {
	AgentID uint32
	Subject sysmon.Process
	Op      sysmon.Operation
	ObjProc sysmon.Process // used when Op's object is a process
	ObjFile sysmon.File    // used when Op's object is a file
	ObjConn sysmon.Netconn // used when Op's object is a connection
	ObjType sysmon.EntityType
	StartTS int64
	EndTS   int64
	Amount  uint64
}

// AppendAll is the store's one ingest path. It takes one acknowledged
// batch under a single lock acquisition: the batch commits in steps of
// commitBatch events, the tail commits before the call returns, and the
// whole batch is group-committed — with SyncWAL, every commit the call
// makes is covered by ONE WAL fsync instead of one per commit, so
// bulk-ingest durability costs a single syscall per batch. The append
// buffer never outlives the call. When the call returns nil
// the records are visible to queries and (with SyncWAL) durable.
// Returns ErrClosed after Close, and the write-ahead log's error when
// the batch could not be logged: the records are then visible but not
// acknowledged as durable, and a crash may lose any of them.
func (s *Store) AppendAll(rs []Record) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	var (
		sealed    []*Segment
		committed bool
		firstErr  error
	)
	commit := func() {
		segs, err := s.commitLocked()
		sealed = append(sealed, segs...)
		committed = true
		if firstErr == nil {
			firstErr = err
		}
	}
	for i := range rs {
		s.appendLocked(rs[i])
		if len(s.batch) >= commitBatch {
			commit()
		}
	}
	if len(s.batch) > 0 {
		commit()
	}
	if committed && firstErr == nil && s.dur != nil && s.dur.syncWAL {
		// Group commit: the per-commit WAL appends above skipped their
		// fsyncs; this one sync makes the entire batch durable.
		if err := s.dur.wal.Sync(); err != nil {
			s.dur.setErr(err)
			firstErr = err
		}
	}
	s.mu.Unlock()
	s.afterCommit(sealed)
	return firstErr
}

func (s *Store) appendLocked(r Record) {
	subj := s.dict.InternProcess(r.Subject)
	var obj sysmon.EntityID
	objType := r.ObjType
	if objType == sysmon.EntityInvalid {
		objType = r.Op.ObjectType()
	}
	switch objType {
	case sysmon.EntityProcess:
		obj = s.dict.InternProcess(r.ObjProc)
	case sysmon.EntityFile:
		obj = s.dict.InternFile(r.ObjFile)
	case sysmon.EntityNetconn:
		obj = s.dict.InternNetconn(r.ObjConn)
	}
	s.nextEventID++
	s.nextSeq[r.AgentID]++
	end := r.EndTS
	if end < r.StartTS {
		end = r.StartTS
	}
	s.batch = append(s.batch, sysmon.Event{
		ID:      s.nextEventID,
		AgentID: r.AgentID,
		Subject: subj,
		Op:      r.Op,
		ObjType: objType,
		Object:  obj,
		StartTS: r.StartTS,
		EndTS:   end,
		Amount:  r.Amount,
		Seq:     s.nextSeq[r.AgentID],
	})
}

// Flush seals every non-empty memtable into an immutable segment, so
// the whole store becomes reusable sealed state. Sealing moves no data
// and bumps no commit counter — results (and result-cache entries)
// computed before a seal stay valid — and segment index builds run
// after the store lock is released, so a seal never stalls concurrent
// appends or queries. Returns ErrClosed after Close.
func (s *Store) Flush() error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	sealed := s.sealAllLocked()
	s.mu.Unlock()
	s.afterCommit(sealed)
	return nil
}

// commitLocked makes AppendAll's pending batch visible: events are
// grouped by partition key and appended to each chunk's memtable;
// memtables that reach the seal threshold are sealed. Returns the segments sealed, for
// index building outside the lock, and the WAL append's error: the
// commit still becomes visible, but it is not durable. The WAL fsync is
// left to AppendAll's group commit after its last commit.
func (s *Store) commitLocked() ([]*Segment, error) {
	if len(s.batch) == 0 {
		return nil, nil
	}
	var err error
	if s.dur != nil {
		// WAL first: the commit is logged before it becomes visible,
		// and (with SyncWAL) fsynced before AppendAll acknowledges it.
		err = s.dur.logCommitLocked(s)
	}
	s.commits++
	s.snap = nil
	// group the batch by partition key, then append per chunk
	groups := make(map[PartKey][]sysmon.Event)
	var keys []PartKey
	for _, ev := range s.batch {
		key := partKey(ev.AgentID, ev.StartTS)
		if _, ok := groups[key]; !ok {
			keys = append(keys, key)
		}
		groups[key] = append(groups[key], ev)
		if s.total == 0 || ev.StartTS < s.minTS {
			s.minTS = ev.StartTS
		}
		if s.total == 0 || ev.StartTS > s.maxTS {
			s.maxTS = ev.StartTS
		}
		s.total++
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].AgentID != keys[j].AgentID {
			return keys[i].AgentID < keys[j].AgentID
		}
		return keys[i].Bucket < keys[j].Bucket
	})
	var sealed []*Segment
	for _, key := range keys {
		p := s.parts[key]
		if p == nil {
			p = &partState{key: key}
			s.parts[key] = p
			s.order = append(s.order, key)
		}
		evs := groups[key]
		// within a batch events may interleave; sort once before merging
		inOrder := true
		for i := 1; i < len(evs); i++ {
			if evs[i].StartTS < evs[i-1].StartTS {
				inOrder = false
				break
			}
		}
		if !inOrder {
			sort.SliceStable(evs, func(i, j int) bool { return evs[i].StartTS < evs[j].StartTS })
		}
		p.mem.appendBatch(evs)
		if len(p.mem.events) >= s.opts.SegmentEvents {
			sealed = append(sealed, s.sealPartLocked(p))
		}
	}
	s.batch = s.batch[:0]
	return sealed, err
}

// sealAllLocked seals every non-empty memtable.
func (s *Store) sealAllLocked() []*Segment {
	var sealed []*Segment
	for _, key := range s.order {
		p := s.parts[key]
		if len(p.mem.events) > 0 {
			sealed = append(sealed, s.sealPartLocked(p))
		}
	}
	return sealed
}

// sealPartLocked turns the chunk's memtable into an immutable segment
// and installs a fresh memtable. The segment is scannable immediately
// (its events are already sorted); posting indexes are built later,
// outside the store lock.
func (s *Store) sealPartLocked(p *partState) *Segment {
	s.nextSegID++
	s.snap = nil
	g := newSegment(s.nextSegID, p.key, p.mem.events)
	p.segs = append(p.segs, g)
	p.mem = memtable{}
	return g
}

func partKey(agent uint32, ts int64) PartKey {
	return PartKey{AgentID: agent, Bucket: ts / int64(chunkDuration)}
}

// Commits returns the number of commit boundaries so far — each is one
// WAL append in a durable store, which AppendAll's commitBatch steps
// amortize. Sealing does not bump the counter: it moves no
// data, so results computed before a seal remain valid.
func (s *Store) Commits() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.commits
}

// Closed reports whether the store has been closed. While a durable
// store is open its directory flock is held, so !Closed() doubles as
// "the WAL lock is held" for health reporting.
func (s *Store) Closed() bool { return s.closed.Load() }

// Len returns the number of committed events.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.total
}

// TimeRange returns the committed events' [min, max] start timestamps.
func (s *Store) TimeRange() (int64, int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.minTS, s.maxTS
}

// NumPartitions returns the number of hypertable chunks.
func (s *Store) NumPartitions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.parts)
}

// NumSegments returns the number of sealed segments.
func (s *Store) NumSegments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, key := range s.order {
		n += len(s.parts[key].segs)
	}
	return n
}

// Scan calls fn for every committed event matching the filter over a
// fresh snapshot; see Snapshot.Scan.
func (s *Store) Scan(ctx context.Context, f *EventFilter, fn func(*sysmon.Event) bool) error {
	return s.Snapshot().Scan(ctx, f, fn)
}

// Collect returns all events matching the filter.
func (s *Store) Collect(f *EventFilter) []sysmon.Event {
	return s.Snapshot().Collect(f)
}

// EstimateMatches returns an upper-bound estimate of the number of events
// matching the filter; see Snapshot.EstimateMatches.
func (s *Store) EstimateMatches(f *EventFilter) int {
	total, _ := s.Snapshot().EstimateMatches(f)
	return total
}

// Agents returns the distinct agent IDs present in the store, ascending.
func (s *Store) Agents() []uint32 {
	return s.Snapshot().Agents()
}
