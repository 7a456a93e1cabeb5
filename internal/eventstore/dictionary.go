package eventstore

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/aiql/aiql/internal/like"
	"github.com/aiql/aiql/internal/sysmon"
)

// Dictionary holds the entity tables. With deduplication enabled,
// structurally identical entities are interned to a single ID; with
// attribute indexes enabled, exact-value hash indexes and sorted-value
// lists support fast lookup and prefix range scans.
//
// Interning always runs under the Store's write lock, but the streaming
// execution pipeline projects rows (reading Attr) while partitions are
// being scanned outside the store lock, concurrently with writers. The
// dictionary's own RWMutex makes those reads safe; entries are
// immutable once interned, so readers only need the lock to snapshot
// the table headers.
type Dictionary struct {
	mu      sync.RWMutex
	dedup   bool
	indexed bool

	// needsBuild marks a restored dictionary whose intern maps and
	// attribute indexes have not been hydrated yet (see restoreTables).
	needsBuild atomic.Bool

	procs []sysmon.Process // index = EntityID-1
	files []sysmon.File
	conns []sysmon.Netconn

	procIntern map[sysmon.Process]sysmon.EntityID
	fileIntern map[sysmon.File]sysmon.EntityID
	connIntern map[sysmon.Netconn]sysmon.EntityID

	// exact-value indexes: attr → lowercased value → IDs
	procIdx map[string]map[string][]sysmon.EntityID
	fileIdx map[string]map[string][]sysmon.EntityID
	connIdx map[string]map[string][]sysmon.EntityID
}

func newDictionary(dedup, indexed bool) *Dictionary {
	d := &Dictionary{dedup: dedup, indexed: indexed}
	if dedup {
		d.procIntern = make(map[sysmon.Process]sysmon.EntityID)
		d.fileIntern = make(map[sysmon.File]sysmon.EntityID)
		d.connIntern = make(map[sysmon.Netconn]sysmon.EntityID)
	}
	if indexed {
		d.procIdx = make(map[string]map[string][]sysmon.EntityID)
		d.fileIdx = make(map[string]map[string][]sysmon.EntityID)
		d.connIdx = make(map[string]map[string][]sysmon.EntityID)
	}
	return d
}

// tableHeaders snapshots the entity table slice headers. Tables are
// append-only and entries immutable, so the returned slices stay valid
// while the dictionary keeps interning; callers may read them with no
// lock held but must not mutate them.
func (d *Dictionary) tableHeaders() (procs []sysmon.Process, files []sysmon.File, conns []sysmon.Netconn) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.procs, d.files, d.conns
}

// restoreTables installs persisted entity tables into an empty
// dictionary. Entity IDs are table positions, so restoring the tables
// verbatim preserves every ID referenced by persisted events.
//
// The derived structures — intern maps and attribute hash indexes —
// are NOT rebuilt here: they hydrate lazily on first use (an intern, or
// an exact-match index lookup), keeping dataset open latency down to
// reading the tables themselves. Everything else works on the raw
// tables: ID→entity lookups index directly, and every other attribute
// filter is resolved by walking the table once and then, through the
// engine's memo, only over the entities interned since (see
// ResolveEntities).
func (d *Dictionary) restoreTables(procs []sysmon.Process, files []sysmon.File, conns []sysmon.Netconn) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.procs, d.files, d.conns = procs, files, conns
	if d.dedup || d.indexed {
		d.needsBuild.Store(true)
	}
}

// ensureBuilt hydrates the derived structures deferred by
// restoreTables; a no-op (one atomic load) once built.
func (d *Dictionary) ensureBuilt() {
	if !d.needsBuild.Load() {
		return
	}
	d.mu.Lock()
	d.buildLocked()
	d.mu.Unlock()
}

// buildLocked rebuilds intern maps and attribute indexes from the
// restored tables. The three entity types rebuild concurrently — their
// maps are disjoint. Caller holds the write lock.
func (d *Dictionary) buildLocked() {
	if !d.needsBuild.Load() {
		return
	}
	procs, files, conns := d.procs, d.files, d.conns
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		if d.dedup {
			d.procIntern = make(map[sysmon.Process]sysmon.EntityID, len(procs))
		}
		for i := range procs {
			id := sysmon.EntityID(i + 1)
			if d.dedup {
				d.procIntern[procs[i]] = id
			}
			if d.indexed {
				for _, attr := range sysmon.Attrs(sysmon.EntityProcess) {
					addIdx(d.procIdx, attr, sysmon.ProcessAttr(&procs[i], attr), id)
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		if d.dedup {
			d.fileIntern = make(map[sysmon.File]sysmon.EntityID, len(files))
		}
		for i := range files {
			id := sysmon.EntityID(i + 1)
			if d.dedup {
				d.fileIntern[files[i]] = id
			}
			if d.indexed {
				for _, attr := range sysmon.Attrs(sysmon.EntityFile) {
					addIdx(d.fileIdx, attr, sysmon.FileAttr(&files[i], attr), id)
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		if d.dedup {
			d.connIntern = make(map[sysmon.Netconn]sysmon.EntityID, len(conns))
		}
		for i := range conns {
			id := sysmon.EntityID(i + 1)
			if d.dedup {
				d.connIntern[conns[i]] = id
			}
			if d.indexed {
				for _, attr := range sysmon.Attrs(sysmon.EntityNetconn) {
					addIdx(d.connIdx, attr, sysmon.NetconnAttr(&conns[i], attr), id)
				}
			}
		}
	}()
	wg.Wait()
	d.needsBuild.Store(false)
}

// InternProcess returns the ID for p, creating (and indexing) it if new.
func (d *Dictionary) InternProcess(p sysmon.Process) sysmon.EntityID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buildLocked()
	if d.dedup {
		if id, ok := d.procIntern[p]; ok {
			return id
		}
	}
	d.procs = append(d.procs, p)
	id := sysmon.EntityID(len(d.procs))
	if d.dedup {
		d.procIntern[p] = id
	}
	if d.indexed {
		for _, attr := range sysmon.Attrs(sysmon.EntityProcess) {
			addIdx(d.procIdx, attr, sysmon.ProcessAttr(&p, attr), id)
		}
	}
	return id
}

// InternFile returns the ID for f, creating (and indexing) it if new.
func (d *Dictionary) InternFile(f sysmon.File) sysmon.EntityID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buildLocked()
	if d.dedup {
		if id, ok := d.fileIntern[f]; ok {
			return id
		}
	}
	d.files = append(d.files, f)
	id := sysmon.EntityID(len(d.files))
	if d.dedup {
		d.fileIntern[f] = id
	}
	if d.indexed {
		for _, attr := range sysmon.Attrs(sysmon.EntityFile) {
			addIdx(d.fileIdx, attr, sysmon.FileAttr(&f, attr), id)
		}
	}
	return id
}

// InternNetconn returns the ID for n, creating (and indexing) it if new.
func (d *Dictionary) InternNetconn(n sysmon.Netconn) sysmon.EntityID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buildLocked()
	if d.dedup {
		if id, ok := d.connIntern[n]; ok {
			return id
		}
	}
	d.conns = append(d.conns, n)
	id := sysmon.EntityID(len(d.conns))
	if d.dedup {
		d.connIntern[n] = id
	}
	if d.indexed {
		for _, attr := range sysmon.Attrs(sysmon.EntityNetconn) {
			addIdx(d.connIdx, attr, sysmon.NetconnAttr(&n, attr), id)
		}
	}
	return id
}

func addIdx(idx map[string]map[string][]sysmon.EntityID, attr, val string, id sysmon.EntityID) {
	val = strings.ToLower(val)
	m := idx[attr]
	if m == nil {
		m = make(map[string][]sysmon.EntityID)
		idx[attr] = m
	}
	m[val] = append(m[val], id)
}

// Process returns the process entity for id, or nil if out of range.
func (d *Dictionary) Process(id sysmon.EntityID) *sysmon.Process {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == 0 || int(id) > len(d.procs) {
		return nil
	}
	return &d.procs[id-1]
}

// File returns the file entity for id, or nil if out of range.
func (d *Dictionary) File(id sysmon.EntityID) *sysmon.File {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == 0 || int(id) > len(d.files) {
		return nil
	}
	return &d.files[id-1]
}

// Netconn returns the connection entity for id, or nil if out of range.
func (d *Dictionary) Netconn(id sysmon.EntityID) *sysmon.Netconn {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == 0 || int(id) > len(d.conns) {
		return nil
	}
	return &d.conns[id-1]
}

// Attr returns the string value of attr for the entity (t, id).
func (d *Dictionary) Attr(t sysmon.EntityType, id sysmon.EntityID, attr string) string {
	switch t {
	case sysmon.EntityProcess:
		if p := d.Process(id); p != nil {
			return sysmon.ProcessAttr(p, attr)
		}
	case sysmon.EntityFile:
		if f := d.File(id); f != nil {
			return sysmon.FileAttr(f, attr)
		}
	case sysmon.EntityNetconn:
		if n := d.Netconn(id); n != nil {
			return sysmon.NetconnAttr(n, attr)
		}
	}
	return ""
}

// Count returns the number of entities of type t.
func (d *Dictionary) Count(t sysmon.EntityType) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	switch t {
	case sysmon.EntityProcess:
		return len(d.procs)
	case sysmon.EntityFile:
		return len(d.files)
	case sysmon.EntityNetconn:
		return len(d.conns)
	default:
		return 0
	}
}

// AttrFilter is one compiled entity-attribute filter: a LIKE pattern
// (the string forms of LIKE and =), its negation (string !=), or, with
// no pattern, a numeric comparison of the attribute value parsed as a
// number (a value that does not parse never matches).
type AttrFilter struct {
	Pattern *like.Pattern
	Negate  bool
	Op      NumOp
	Num     float64
}

// NumOp is the comparison of a numeric AttrFilter.
type NumOp uint8

// The numeric comparisons, value Op Num.
const (
	NumEQ NumOp = iota
	NumNE
	NumLT
	NumLE
	NumGT
	NumGE
)

func (f *AttrFilter) match(v string) bool {
	if f.Pattern != nil {
		return f.Pattern.Match(v) != f.Negate
	}
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return false
	}
	switch f.Op {
	case NumEQ:
		return x == f.Num
	case NumNE:
		return x != f.Num
	case NumLT:
		return x < f.Num
	case NumLE:
		return x <= f.Num
	case NumGT:
		return x > f.Num
	case NumGE:
		return x >= f.Num
	}
	return false
}

// ResolveEntities resolves an attribute filter incrementally. prev is
// the filter's resolution over entity IDs 1..from of type t (nil with
// from 0 to start from scratch); the result is its resolution over
// 1..upto, the table size when the call began, and only IDs
// from+1..upto are examined. Entity IDs are dense table positions and
// the tables are append-only with immutable entries, so a set resolved
// over 1..n' with n' at least the count read after a store snapshot
// is exact for that snapshot. prev is left untouched (see IDSet), and
// callers must not extend one version from two goroutines at once.
//
// An exact LIKE pattern on an indexed dictionary reads the hash index;
// every other filter walks the new table entries without holding the
// dictionary lock.
func (d *Dictionary) ResolveEntities(t sysmon.EntityType, attr string, f *AttrFilter, prev *IDSet, from int) (set *IDSet, upto int) {
	attr, known := sysmon.CanonicalAttr(t, attr)
	exact := d.indexed && f.Pattern != nil && !f.Negate && f.Pattern.Exact()
	if exact {
		d.ensureBuilt() // only the exact path consults the hash indexes
	}
	d.mu.RLock()
	procs, files, conns := d.procs, d.files, d.conns
	var hits []sysmon.EntityID
	if exact {
		switch t {
		case sysmon.EntityProcess:
			hits = d.procIdx[attr][f.Pattern.ExactValue()]
		case sysmon.EntityFile:
			hits = d.fileIdx[attr][f.Pattern.ExactValue()]
		case sysmon.EntityNetconn:
			hits = d.connIdx[attr][f.Pattern.ExactValue()]
		}
	}
	d.mu.RUnlock()
	var value func(i int) string // attr of the entity at table position i
	switch t {
	case sysmon.EntityProcess:
		upto, value = len(procs), func(i int) string { return sysmon.ProcessAttr(&procs[i], attr) }
	case sysmon.EntityFile:
		upto, value = len(files), func(i int) string { return sysmon.FileAttr(&files[i], attr) }
	case sysmon.EntityNetconn:
		upto, value = len(conns), func(i int) string { return sysmon.NetconnAttr(&conns[i], attr) }
	}
	set = prev.grow()
	switch {
	case !known || value == nil:
	case exact:
		// index lists ascend and were read with the tables: every hit
		// past from is at most upto
		i, _ := slices.BinarySearch(hits, sysmon.EntityID(from+1))
		for _, id := range hits[i:] {
			set.add(id)
		}
	default:
		for i := from; i < upto; i++ {
			if f.match(value(i)) {
				set.add(sysmon.EntityID(i + 1))
			}
		}
	}
	return set, upto
}

// AllValues returns the distinct lowercased values of attr over entities of
// type t, sorted; used by tools and tests.
func (d *Dictionary) AllValues(t sysmon.EntityType, attr string) []string {
	seen := map[string]struct{}{}
	n := d.Count(t)
	for i := 1; i <= n; i++ {
		seen[strings.ToLower(d.Attr(t, sysmon.EntityID(i), attr))] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
