package eventstore

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/sysmon"
)

// The durable storage subsystem layers crash-safe persistence under the
// LSM store without touching its read path: sealed segments are written
// exactly once as individual files and loaded back without re-indexing,
// a MANIFEST names the live segment set (plus the dictionary tables and
// ID counters), and a write-ahead log covers committed events that have
// not reached a sealed segment yet. Recovery is manifest load + WAL
// replay of the unsealed tail.
//
// Two invariants carry the whole design:
//
//  1. Chunk chains seal in arrival (event-ID) order, so a chunk's
//     persisted segments always cover an ID-prefix of its events. The
//     manifest lists the longest *persisted* prefix of each chain, and
//     WAL replay skips exactly the records whose event ID falls at or
//     below the listed segments' max event ID for their chunk.
//  2. The WAL is truncated only when a manifest edition covers every
//     committed event (all chains fully persisted, all memtables
//     empty; the append batch is empty by construction, since it never
//     outlives one AppendAll call under the store lock, and the
//     coverage checks run under that lock). Until then replay stays
//     idempotent:
//     entity records carry their dictionary ID and event records their
//     event ID, so records already captured by a newer manifest are
//     recognized and skipped.
//
// A crash between a seal and its manifest edition therefore loses
// nothing: the segment file is ignored (and deleted as an orphan on the
// next open) and its events are recovered from the WAL instead.

// persistedSeg records one segment's on-disk file and its size.
type persistedSeg struct {
	file  string
	bytes int64
}

// durableState is a Store's attachment to its directory.
type durableState struct {
	dir     string
	syncWAL bool
	wal     *durable.WAL
	lock    *durable.DirLock // exclusive flock; held until Close

	// mu serializes segment persistence, manifest editions, and WAL
	// truncation decisions. Lock order: mu before Store.mu (read).
	mu        sync.Mutex
	edition   uint64
	persisted map[uint64]persistedSeg

	// manifested tracks which persisted segments the on-disk manifest
	// (base + delta log) already lists, and manifestedRows how many
	// dictionary rows it carries — the baseline each delta frame appends
	// on top of. deltaBroken forces full rewrites after a failed delta
	// append (the log's tail state is then unknown). All guarded by mu.
	manifested     map[uint64]bool
	manifestedRows dictRows
	deltaBroken    bool

	// mergePending is set while a compaction merge is installed in the
	// chains but the on-disk manifest still lists its inputs; a delta
	// frame cannot retire them, so until the next full edition every
	// edition is a full one. retired holds the merged-away segments'
	// files, removed once an edition no longer lists them. manifestBytes
	// sums the bytes of full manifests written since Open. All guarded
	// by mu.
	mergePending  bool
	retired       []string
	manifestBytes int64

	// loggedRows counts the dictionary entries already appended to the
	// WAL; guarded by the Store's write lock (it is only touched inside
	// commitLocked).
	loggedRows dictRows

	// recoveredEvents and recoverMS describe Open's WAL replay: the
	// events it returned to memtables and its wall time. Set once by
	// Open.
	recoveredEvents int
	recoverMS       float64

	errMu   sync.Mutex
	lastErr error
}

// dictRows counts rows of the three dictionary tables.
type dictRows struct{ procs, files, conns int }

// setErr records the first durability failure; the store keeps serving
// from memory, and the error surfaces through DurableStats.
func (d *durableState) setErr(err error) {
	if err == nil {
		return
	}
	d.errMu.Lock()
	if d.lastErr == nil {
		d.lastErr = err
	}
	d.errMu.Unlock()
}

func (d *durableState) lastError() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.lastErr
}

// Open opens (creating or recovering) the durable store at opts.Dir:
// every manifest-listed segment restores from its ref alone — its file
// is opened, with its indexes, when a scan first touches it; nothing is
// re-chunked, re-interned, or re-indexed — and the WAL replays the
// committed-but-unsealed tail into memtables. A torn final WAL record
// (crash mid append) is truncated; every record before it is recovered.
//
// Replay costs a decode and an append per record. Logged entities past
// the manifest's tables are appended by position, and once the log
// ends the intern maps are built over the full tables in one pass;
// with no such entity they stay unbuilt until the first ingest. Events
// not covered by a listed segment are appended to their chunk's replay
// slice, which becomes the chunk's memtable (sorted by start time only
// if the log delivered it out of order).
//
// A manifest durable cannot decode (a version other than 3, a layout
// other than (agent, hour) chunks with interned entities, a ref to a
// segment format other than v2), a MANIFEST.delta frame that passed its
// checksum but does not decode or does not follow the editions before
// it, or a corrupt WAL record fails with an error wrapping
// durable.ErrCorrupt. A WAL record is corrupt when it passed
// its checksum but does not decode or could not have been logged: an
// entity whose ID skips a position, an entity repeating one already in
// its table, or an event referencing an entity the log has not reached.
func Open(opts Options) (*Store, error) {
	opts = opts.normalized()
	if opts.Dir == "" {
		return nil, fmt.Errorf("eventstore: Open requires Options.Dir (use New for an in-memory store)")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventstore: %w", err)
	}
	// The whole subsystem assumes one writer per directory: WAL frames,
	// manifest editions, and orphan cleanup would all tear under two.
	// The flock enforces it across processes (and across opens within
	// one process); a crashed owner releases it automatically.
	lock, err := durable.LockDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("eventstore: %w", err)
	}
	opened := false
	defer func() {
		if !opened {
			lock.Release()
		}
	}()
	s := New(opts)
	d := &durableState{
		dir:        opts.Dir,
		syncWAL:    opts.SyncWAL,
		lock:       lock,
		persisted:  make(map[uint64]persistedSeg),
		manifested: make(map[uint64]bool),
	}

	parts := make(map[PartKey]*replayPart)
	m, err := durable.ReadManifest(opts.Dir)
	switch {
	case err == nil:
		// Fold the incremental edition log into the base manifest first:
		// the WAL may already have been truncated against a delta-covered
		// edition, so serving the base alone could lose sealed segments.
		if _, err := durable.ApplyManifestDeltas(opts.Dir, m); err != nil {
			return nil, fmt.Errorf("eventstore: recover %s: %w", opts.Dir, err)
		}
		s.dict.restoreTables(m.Procs, m.Files, m.Conns)
		s.nextSegID = m.NextSegID
		s.nextEventID = m.NextEventID
		for agent, seq := range m.NextSeq {
			s.nextSeq[agent] = seq
		}
		d.edition = m.Edition
		// Every ref carries the bounds a cold segment needs, so no
		// segment file is opened here: one Stat confirms it exists (and
		// sizes the stats), and the open — syscalls, footer decode,
		// block directory — waits until a scan first touches the
		// segment. Chains assemble in manifest (scan) order.
		var loadErr error
		for i := range m.Segments {
			ref := &m.Segments[i]
			path := filepath.Join(opts.Dir, ref.File)
			fi, err := os.Stat(path)
			if err != nil {
				loadErr = fmt.Errorf("segment file %s: %w", ref.File, err)
				break
			}
			g := restoreSegmentLazy(ref, path, s.blockCache, d.setErr)
			p := s.parts[g.key]
			if p == nil {
				p = &partState{key: g.key}
				s.parts[g.key] = p
				s.order = append(s.order, g.key)
			}
			p.segs = append(p.segs, g)
			d.persisted[g.id] = persistedSeg{file: ref.File, bytes: fi.Size()}
			d.manifested[g.id] = true
			if rp := parts[g.key]; rp == nil {
				parts[g.key] = &replayPart{key: g.key, maxSealed: g.maxEventID}
			} else {
				rp.maxSealed = max(rp.maxSealed, g.maxEventID)
			}
			s.noteEventsLocked(g.Len(), g.minTS, g.maxTS)
		}
		if loadErr != nil {
			return nil, fmt.Errorf("eventstore: recover %s: %w", opts.Dir, loadErr)
		}
		d.manifestedRows = dictRows{len(m.Procs), len(m.Files), len(m.Conns)}
	case errors.Is(err, durable.ErrNoManifest):
		// fresh directory
	default:
		return nil, fmt.Errorf("eventstore: recover %s: %w", opts.Dir, err)
	}

	// Replay the WAL tail: entity deltas the manifest does not capture
	// extend the dictionary; events not covered by a listed segment go
	// back to their chunk's memtable.
	replayStart := time.Now()
	procs, files, conns := s.dict.tableHeaders()
	r := walReplay{parts: parts, nProcs: len(procs), nFiles: len(files), nConns: len(conns)}
	wal, err := durable.OpenWAL(filepath.Join(opts.Dir, durable.WALName), r.apply)
	if err != nil {
		return nil, fmt.Errorf("eventstore: recover %s: %w", opts.Dir, err)
	}
	d.wal = wal
	if err := r.install(s); err != nil {
		wal.Close()
		return nil, fmt.Errorf("eventstore: recover %s: WAL %w", opts.Dir, err)
	}
	d.recoveredEvents = r.events
	d.recoverMS = float64(time.Since(replayStart).Microseconds()) / 1000
	d.loggedRows = dictRows{s.dict.Count(sysmon.EntityProcess), s.dict.Count(sysmon.EntityFile), s.dict.Count(sysmon.EntityNetconn)}
	s.dur = d
	live := make(map[string]bool, len(d.persisted))
	for _, ps := range d.persisted {
		live[ps.file] = true
	}
	durable.RemoveOrphans(opts.Dir, live)
	opened = true
	return s, nil
}

// walReplay gathers what the WAL holds past the manifest, for Open to
// install in one step once the log ends. Replay costs a decode and an
// append per record: logged entities are appended by position (entity
// IDs are dense table positions), so no intern map is touched until
// install builds the maps once; each event costs one map lookup.
type walReplay struct {
	// procs/files/conns are the logged entities past the tables, in ID
	// order; the tables held nProcs/nFiles/nConns entities before.
	procs                  []sysmon.Process
	files                  []sysmon.File
	conns                  []sysmon.Netconn
	nProcs, nFiles, nConns int

	// parts holds every chunk with sealed segments in the manifest and
	// every chunk replay gave events; order lists the latter, in the
	// order their first event arrived.
	parts map[PartKey]*replayPart
	order []*replayPart
	// maxEventID is the highest recovered event ID; events counts the
	// recovered events once installed.
	maxEventID uint64
	events     int
}

// replayPart is one chunk's replay state.
type replayPart struct {
	key PartKey
	// maxSealed is the highest event ID the chunk's manifest-listed
	// segments cover: a logged event at or below it is already durable.
	maxSealed uint64
	// events are the chunk's recovered events in log order; maxSeq is
	// the highest per-agent sequence among them.
	events []sysmon.Event
	maxSeq uint64
}

// apply consumes one WAL record. rec is only valid during the call.
func (r *walReplay) apply(rec *durable.Rec) error {
	switch rec.Kind {
	case durable.RecProc:
		return appendLogged(&r.procs, r.nProcs, rec.ID, &rec.Proc, sysmon.EntityProcess)
	case durable.RecFile:
		return appendLogged(&r.files, r.nFiles, rec.ID, &rec.File, sysmon.EntityFile)
	case durable.RecConn:
		return appendLogged(&r.conns, r.nConns, rec.ID, &rec.Conn, sysmon.EntityNetconn)
	case durable.RecEvent:
		ev := &rec.Event
		if err := r.checkEventRefs(ev); err != nil {
			return err
		}
		key := partKey(ev.AgentID, ev.StartTS)
		p := r.parts[key]
		if p == nil {
			p = &replayPart{key: key}
			r.parts[key] = p
		}
		if ev.ID <= p.maxSealed {
			return nil // already durable in a manifest-listed segment
		}
		if len(p.events) == 0 {
			r.order = append(r.order, p)
		}
		p.events = append(p.events, *ev)
		p.maxSeq = max(p.maxSeq, ev.Seq)
		r.maxEventID = max(r.maxEventID, ev.ID)
	}
	return nil
}

// appendLogged appends a logged entity to its replay-local table when
// its ID is the next position. An ID already within the table (base
// plus what replay appended) was captured by the manifest or an earlier
// record and is skipped. Any other ID leaves a gap no commit could
// have logged, so the record is corrupt.
func appendLogged[E any](pending *[]E, base int, id sysmon.EntityID, e *E, t sysmon.EntityType) error {
	switch n := base + len(*pending); {
	case int(id) <= n:
		return nil
	case int(id) == n+1:
		*pending = append(*pending, *e)
		return nil
	default:
		return fmt.Errorf("WAL %s entity logged as id %d, next id is %d: %w", t, id, n+1, durable.ErrCorrupt)
	}
}

// checkEventRefs rejects a replayed event whose entity references fall
// outside the dictionary as of its place in the log. Every commit logs
// its entities before its events, so such a record passed its checksum
// but is corrupt: recovery must fail rather than serve dangling
// references.
func (r *walReplay) checkEventRefs(ev *sysmon.Event) error {
	if n := r.count(sysmon.EntityProcess); int(ev.Subject) > n {
		return fmt.Errorf("WAL event %d references process %d of %d: %w",
			ev.ID, ev.Subject, n, durable.ErrCorrupt)
	}
	switch ev.ObjType {
	case sysmon.EntityProcess, sysmon.EntityFile, sysmon.EntityNetconn:
		if n := r.count(ev.ObjType); int(ev.Object) > n {
			return fmt.Errorf("WAL event %d references %s object %d of %d: %w", ev.ID, ev.ObjType, ev.Object, n, durable.ErrCorrupt)
		}
	case sysmon.EntityInvalid:
		// an operation whose object type was never resolved carries no
		// object reference
	default:
		return fmt.Errorf("WAL event %d has object type %d: %w", ev.ID, ev.ObjType, durable.ErrCorrupt)
	}
	return nil
}

// count returns how many entities of type t the dictionary holds at
// this point of the replay.
func (r *walReplay) count(t sysmon.EntityType) int {
	switch t {
	case sysmon.EntityProcess:
		return r.nProcs + len(r.procs)
	case sysmon.EntityFile:
		return r.nFiles + len(r.files)
	case sysmon.EntityNetconn:
		return r.nConns + len(r.conns)
	default:
		return 0
	}
}

// install appends the recovered entities to the dictionary and makes
// each chunk's recovered events its memtable: the replayed slice itself,
// sorted by start time only when the log delivered it out of order.
func (r *walReplay) install(s *Store) error {
	if err := s.dict.appendReplayed(r.procs, r.files, r.conns); err != nil {
		return err
	}
	for _, rp := range r.order {
		evs := rp.events
		if !slices.IsSortedFunc(evs, byStartTS) {
			slices.SortStableFunc(evs, byStartTS)
		}
		p := s.parts[rp.key]
		if p == nil {
			p = &partState{key: rp.key}
			s.parts[rp.key] = p
			s.order = append(s.order, rp.key)
		}
		p.mem = memtable{events: evs, minTS: evs[0].StartTS, maxTS: evs[len(evs)-1].StartTS}
		s.noteEventsLocked(len(evs), p.mem.minTS, p.mem.maxTS)
		s.nextSeq[rp.key.AgentID] = max(s.nextSeq[rp.key.AgentID], rp.maxSeq)
		r.events += len(evs)
	}
	s.nextEventID = max(s.nextEventID, r.maxEventID)
	return nil
}

func byStartTS(a, b sysmon.Event) int { return cmp.Compare(a.StartTS, b.StartTS) }

// noteEventsLocked accounts n restored events with the given time range
// into the store's totals. Open runs single-threaded, so "locked" is by
// construction rather than by mutex.
func (s *Store) noteEventsLocked(n int, minTS, maxTS int64) {
	if n == 0 {
		return
	}
	if s.total == 0 || minTS < s.minTS {
		s.minTS = minTS
	}
	if s.total == 0 || maxTS > s.maxTS {
		s.maxTS = maxTS
	}
	s.total += n
}

// logCommitLocked appends the commit to the WAL before it becomes
// visible: first the dictionary entries interned since the last logged
// point (replay must be able to resolve the events' entity IDs), then
// the batch's events. Runs under the store's write lock, which is what
// guarantees WAL order equals commit order. The append never fsyncs:
// AppendAll group-commits, issuing one Sync for the whole batch after
// its final commit. A failed append is returned (and recorded): the
// commit must not be acknowledged as durable.
func (d *durableState) logCommitLocked(s *Store) error {
	procs, files, conns := s.dict.tableHeaders()
	logged := d.loggedRows
	recs := make([]durable.Rec, 0,
		len(s.batch)+(len(procs)-logged.procs)+(len(files)-logged.files)+(len(conns)-logged.conns))
	for i := logged.procs; i < len(procs); i++ {
		recs = append(recs, durable.Rec{Kind: durable.RecProc, ID: sysmon.EntityID(i + 1), Proc: procs[i]})
	}
	for i := logged.files; i < len(files); i++ {
		recs = append(recs, durable.Rec{Kind: durable.RecFile, ID: sysmon.EntityID(i + 1), File: files[i]})
	}
	for i := logged.conns; i < len(conns); i++ {
		recs = append(recs, durable.Rec{Kind: durable.RecConn, ID: sysmon.EntityID(i + 1), Conn: conns[i]})
	}
	d.loggedRows = dictRows{len(procs), len(files), len(conns)}
	for i := range s.batch {
		recs = append(recs, durable.Rec{Kind: durable.RecEvent, Event: s.batch[i]})
	}
	err := d.wal.Append(recs)
	d.setErr(err)
	return err
}

// sealWriters is how many goroutines build the indexes of one batch of
// sealed segments and encode, write and fsync their files. The files
// are independent, and the disk overlaps their fsyncs.
const sealWriters = 8

// sealSegments builds each segment's indexes and, when dir is not
// empty, writes it into dir as its own fsynced file, on up to
// sealWriters goroutines. It returns the files written, in segs order
// (a zero entry for a segment left unwritten), and the first error;
// after an error no further file is started, but every index is still
// built, since the segments stay in memory either way.
func sealSegments(dir string, segs []*Segment) ([]persistedSeg, error) {
	files := make([]persistedSeg, len(segs))
	var (
		next     atomic.Int64
		errMu    sync.Mutex
		firstErr error
	)
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(segs); i = int(next.Add(1)) - 1 {
			g := segs[i]
			g.buildIndexes()
			if dir == "" || failed() {
				continue
			}
			name := durable.SegmentFileName(g.id)
			n, err := durable.WriteSegmentFileV2(filepath.Join(dir, name), g.segmentData())
			if err != nil {
				errMu.Lock()
				firstErr = cmp.Or(firstErr, err)
				errMu.Unlock()
				continue
			}
			files[i] = persistedSeg{file: name, bytes: n}
		}
	}
	var wg sync.WaitGroup
	for range min(sealWriters, len(segs)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return files, firstErr
}

// ref is the manifest's reference to the segment stored as file.
func (g *Segment) ref(file string) durable.SegmentRef {
	return durable.SegmentRef{
		ID:         g.id,
		AgentID:    g.key.AgentID,
		Bucket:     g.key.Bucket,
		File:       file,
		Events:     g.Len(),
		MinTS:      g.minTS,
		MaxTS:      g.maxTS,
		MinEventID: g.minEventID,
		MaxEventID: g.maxEventID,
	}
}

// persistSealed writes freshly sealed segments as individual files and
// installs one manifest edition covering them. Called with no store
// locks held, so a seal's index builds and disk work never stall
// appends or queries. Every file is durable before the edition that
// names it; after a failed write no edition is installed.
func (s *Store) persistSealed(segs []*Segment) {
	d := s.dur
	if len(segs) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Re-checked under d.mu: Close drains this mutex after setting the
	// flag, so once Close returns no straggler can touch the directory.
	if s.closed.Load() {
		sealSegments("", segs)
		return
	}
	files, err := sealSegments(d.dir, segs)
	for i, ps := range files {
		if ps.file != "" {
			d.persisted[segs[i].id] = ps
		}
	}
	if err != nil {
		d.setErr(err)
		return
	}
	if !s.appendManifestDeltaLocked() {
		s.writeManifestLocked()
	}
}

// nextEdition builds manifest edition ed over the chunks parts: the
// store's ID counters, the dictionary rows past from, and the longest
// prefix of each chain whose segments have a file in files, except the
// segments in listed, which the editions below it name already. covered
// reports whether the edition, with those below it, lists every
// committed event: no chunk holds unsealed events and no chain stops
// short. The caller holds s.mu (read).
func (s *Store) nextEdition(ed uint64, parts []snapPart, files map[uint64]persistedSeg, from dictRows, listed map[uint64]bool) (*durable.Manifest, bool) {
	m := &durable.Manifest{
		Edition:     ed,
		NextSegID:   s.nextSegID,
		NextEventID: s.nextEventID,
		NextSeq:     maps.Clone(s.nextSeq),
	}
	procs, fileRows, conns := s.dict.tableHeaders()
	m.Procs, m.Files, m.Conns = procs[from.procs:], fileRows[from.files:], conns[from.conns:]
	covered := true
	for i := range parts {
		p := &parts[i]
		if p.mem.Len() > 0 {
			covered = false
		}
		for _, g := range p.segs {
			if listed[g.id] {
				continue
			}
			ps, ok := files[g.id]
			if !ok {
				// List only the longest persisted prefix of the chain:
				// recovery's ID-prefix skip rule depends on no gaps.
				covered = false
				break
			}
			m.Segments = append(m.Segments, g.ref(ps.file))
		}
	}
	return m, covered
}

// installed records edition m, now durable, as the newest the directory
// holds: it lists m's segments and dictionary rows on top of what the
// editions below it list, and the WAL is truncated if covered. The
// caller holds d.mu and s.mu (read) from nextEdition on, so no commit
// slips records into the WAL between the coverage check and the
// truncation.
func (d *durableState) installed(m *durable.Manifest, covered bool) {
	d.edition = m.Edition
	for i := range m.Segments {
		d.manifested[m.Segments[i].ID] = true
	}
	d.manifestedRows.procs += len(m.Procs)
	d.manifestedRows.files += len(m.Files)
	d.manifestedRows.conns += len(m.Conns)
	if covered {
		if err := d.wal.Truncate(); err != nil {
			d.setErr(err)
		}
	}
}

// appendManifestDeltaLocked installs the next manifest edition as one
// appended delta frame instead of a full rewrite, carrying only the
// segment refs and dictionary rows added since the last edition. Returns
// false when a full rewrite is required instead: no base manifest exists
// yet, a previous append failed (the log tail is suspect), a merge
// awaits the edition that retires its inputs (a frame listing the
// merged segment over a base that lists the inputs would recover their
// events twice), or the append itself errors. The caller holds d.mu.
func (s *Store) appendManifestDeltaLocked() bool {
	d := s.dur
	if d.edition == 0 || d.deltaBroken || d.mergePending {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	delta, covered := s.nextEdition(d.edition+1, s.partsLocked(), d.persisted, d.manifestedRows, d.manifested)
	if err := durable.AppendManifestDelta(d.dir, delta); err != nil {
		// Fall back to a full rewrite (which truncates the suspect log);
		// only if that also fails does an error surface.
		d.deltaBroken = true
		return false
	}
	d.installed(delta, covered)
	return true
}

// writeManifestLocked installs a full manifest edition reflecting the
// store's current persisted state. A failure is recorded and leaves the
// state as it was (a pending merge stays pending). The caller holds
// d.mu.
func (s *Store) writeManifestLocked() {
	d := s.dur
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, covered := s.nextEdition(d.edition+1, s.partsLocked(), d.persisted, dictRows{}, nil)
	n, err := durable.WriteManifest(d.dir, m)
	d.manifestBytes += n
	if err != nil {
		d.setErr(err)
		return
	}
	// The edition lists the chains as they stand, merged segments in
	// place of their inputs.
	d.mergePending = false
	// The full rewrite captured everything the delta log carried, so the
	// log restarts empty. Ordering matters: the new base is durable
	// first, so a crash here leaves stale frames recovery skips by
	// edition.
	if err := durable.RemoveManifestDelta(d.dir); err != nil {
		d.setErr(err)
	} else {
		d.deltaBroken = false
	}
	d.manifested = make(map[uint64]bool, len(m.Segments))
	d.manifestedRows = dictRows{}
	d.installed(m, covered)
}

// SaveDir writes the store's sealed state into dir as a durable store
// directory: every chunk is sealed, each segment becomes one file, and
// a first manifest edition lists them all (so the WAL starts empty).
// The target must not already contain a durable store. Writers may keep
// appending meanwhile: the directory holds at least every event
// committed before the call. This is how an in-memory store (a
// generated dataset, say) becomes a directory that Open serves.
func (s *Store) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("eventstore: %w", err)
	}
	if _, err := durable.ReadManifest(dir); err == nil {
		return fmt.Errorf("eventstore: SaveDir target %s already contains a durable store", dir)
	} else if !errors.Is(err, durable.ErrNoManifest) {
		return err
	}
	// a store that has not sealed yet has a WAL but no manifest
	if _, err := os.Stat(filepath.Join(dir, durable.WALName)); err == nil {
		return fmt.Errorf("eventstore: SaveDir target %s already contains a durable store's WAL", dir)
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("eventstore: %w", err)
	}
	if err := s.Flush(); err != nil {
		return err
	}
	sn := s.Snapshot()
	var segs []*Segment
	for i := range sn.parts {
		segs = append(segs, sn.parts[i].segs...)
	}
	files, err := sealSegments(dir, segs)
	if err != nil {
		return err
	}
	written := make(map[uint64]persistedSeg, len(segs))
	for i, g := range segs {
		written[g.id] = files[i]
	}
	s.mu.RLock()
	m, _ := s.nextEdition(1, sn.parts, written, dictRows{}, nil)
	s.mu.RUnlock()
	_, err = durable.WriteManifest(dir, m)
	return err
}

// Dir returns the durable directory backing the store; empty for
// in-memory stores.
func (s *Store) Dir() string {
	if s.dur == nil {
		return ""
	}
	return s.dur.dir
}

// Close stops the background compactor, waits for any in-flight
// compaction pass to finish its manifest edition, prevents further
// passes and persistence, and closes the write-ahead log. After Close
// the directory has exactly one consistent owner-less state, so another
// Open (a hot-swap reload) can take it over safely. The in-memory state
// stays readable — in-flight queries on pinned snapshots are unaffected
// — but later appends are no longer made durable.
func (s *Store) Close() error {
	s.StopCompactor()
	s.closed.Store(true)
	// Drain barriers: an in-flight direct Compact call holds compactMu
	// through its manifest write, and an in-flight persistSealed holds
	// d.mu through its file writes. Once both are acquired here, every
	// writer that slipped past the closed flag has finished and every
	// later one re-checks the flag under the mutex it holds.
	s.compactMu.Lock()
	s.compactMu.Unlock() //nolint:staticcheck // empty critical section is the point
	// AppendAll and Flush check the closed flag under s.mu before
	// touching the WAL, so draining s.mu here guarantees no straggler
	// ingest write reaches the log after it closes below; the writer
	// instead observes the flag and returns ErrClosed.
	s.mu.Lock()
	s.mu.Unlock() //nolint:staticcheck // empty critical section is the point
	if s.dur == nil {
		return nil
	}
	s.dur.mu.Lock()
	s.dur.mu.Unlock() //nolint:staticcheck // empty critical section is the point
	err := s.dur.wal.Close()
	if lerr := s.dur.lock.Release(); err == nil {
		err = lerr
	}
	return err
}

// DurableStats describes the store's on-disk footprint and the durable
// subsystem's activity. Zero-valued (except compaction counters) for
// in-memory stores.
type DurableStats struct {
	Dir              string `json:"dir,omitempty"`
	SegmentFiles     int    `json:"segment_files"`
	SegmentFileBytes int64  `json:"segment_file_bytes"`
	WALBytes         int64  `json:"wal_bytes"`
	WALRecords       uint64 `json:"wal_records"`
	WALSyncs         uint64 `json:"wal_syncs"`
	ManifestEdition  uint64 `json:"manifest_edition"`
	ManifestDeltas   int64  `json:"manifest_delta_bytes"`
	// ManifestBytesWritten sums the bytes of the full manifests written
	// since Open (delta frames not included).
	ManifestBytesWritten int64  `json:"manifest_bytes_written"`
	Compactions          uint64 `json:"compactions"`
	SegmentsCompacted    uint64 `json:"segments_compacted"`
	// RecoveredEvents and RecoverMS describe the WAL replay of the
	// Open that produced the store: the events it returned to
	// memtables and its wall time in milliseconds.
	RecoveredEvents int     `json:"recovered_events"`
	RecoverMS       float64 `json:"recover_ms"`
	LastError       string  `json:"last_error,omitempty"`
}

// DurableStats reports the durable subsystem's figures.
func (s *Store) DurableStats() DurableStats {
	st := DurableStats{
		Compactions:       s.compactions.Load(),
		SegmentsCompacted: s.segsCompacted.Load(),
	}
	d := s.dur
	if d == nil {
		return st
	}
	st.Dir = d.dir
	st.RecoveredEvents, st.RecoverMS = d.recoveredEvents, d.recoverMS
	d.mu.Lock()
	st.ManifestEdition = d.edition
	st.ManifestBytesWritten = d.manifestBytes
	st.SegmentFiles = len(d.persisted)
	for _, ps := range d.persisted {
		st.SegmentFileBytes += ps.bytes
	}
	d.mu.Unlock()
	st.ManifestDeltas = durable.ManifestDeltaSize(d.dir)
	st.WALBytes = d.wal.Size()
	st.WALRecords = d.wal.Records()
	st.WALSyncs = d.wal.Syncs()
	if err := d.lastError(); err != nil {
		st.LastError = err.Error()
	}
	return st
}
