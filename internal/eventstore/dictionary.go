package eventstore

import (
	"fmt"
	"strconv"
	"sync"

	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/like"
	"github.com/aiql/aiql/internal/sysmon"
)

// Dictionary holds the entity tables. Structurally identical entities
// are interned to a single ID, which is the identity shared-variable
// joins match on. Entity IDs are dense table positions: ID→entity
// lookups index the tables directly, and attribute filters resolve by
// walking them (see ResolveEntities).
//
// Interning always runs under the Store's write lock, but the streaming
// execution pipeline projects rows (reading Attr) while partitions are
// being scanned outside the store lock, concurrently with writers. The
// dictionary's own RWMutex makes those reads safe; entries are
// immutable once interned, so readers only need the lock to snapshot
// the table headers.
type Dictionary struct {
	mu sync.RWMutex

	// needsBuild marks a restored dictionary whose intern maps have not
	// been hydrated yet (see restoreTables). Guarded by mu's write lock.
	needsBuild bool

	procs []sysmon.Process // index = EntityID-1
	files []sysmon.File
	conns []sysmon.Netconn

	procIntern map[sysmon.Process]sysmon.EntityID
	fileIntern map[sysmon.File]sysmon.EntityID
	connIntern map[sysmon.Netconn]sysmon.EntityID
}

func newDictionary() *Dictionary {
	return &Dictionary{
		procIntern: make(map[sysmon.Process]sysmon.EntityID),
		fileIntern: make(map[sysmon.File]sysmon.EntityID),
		connIntern: make(map[sysmon.Netconn]sysmon.EntityID),
	}
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

// Tables is a view of the entity tables at one instant: position i of a
// table holds the entity whose ID is i+1. The tables are append-only and
// their entries immutable, so a view stays exact for every ID it covers
// while the dictionary keeps interning, and it is read with no lock
// held. Its slices must not be mutated.
type Tables struct {
	Procs []sysmon.Process
	Files []sysmon.File
	Conns []sysmon.Netconn
}

// Tables snapshots the entity tables: one read lock, no copy.
func (d *Dictionary) Tables() Tables {
	procs, files, conns := d.tableHeaders()
	return Tables{Procs: procs, Files: files, Conns: conns}
}

// restoreTables installs persisted entity tables into an empty
// dictionary. Entity IDs are table positions, so restoring the tables
// verbatim preserves every ID referenced by persisted events.
//
// The intern maps are NOT rebuilt here: they hydrate at open when WAL
// replay appends entities (appendReplayed), and otherwise on the first
// ingest, keeping dataset open latency down to reading the tables
// themselves. Queries never need them: ID→entity lookups index the
// tables directly, and every attribute filter is resolved by walking
// the table once and then, through the engine's memo, only over the
// entities interned since (see ResolveEntities).
func (d *Dictionary) restoreTables(procs []sysmon.Process, files []sysmon.File, conns []sysmon.Netconn) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.procs, d.files, d.conns = procs, files, conns
	d.needsBuild = true
}

// appendReplayed appends the entities WAL replay recovered past the
// tables, each already checked to sit at its logged ID, and builds the
// intern maps over the full tables, presized. The live store never
// interns an entity twice, so a repeat fails with durable.ErrCorrupt.
// A no-op when replay recovered no entity: the maps then stay lazy.
func (d *Dictionary) appendReplayed(procs []sysmon.Process, files []sysmon.File, conns []sysmon.Netconn) error {
	if len(procs)+len(files)+len(conns) == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.procs = append(d.procs, procs...)
	d.files = append(d.files, files...)
	d.conns = append(d.conns, conns...)
	d.needsBuild = true
	return d.buildLocked()
}

// buildLocked hydrates the intern maps deferred by restoreTables (or
// extended by appendReplayed); a no-op once built. The three entity
// types rebuild concurrently — their maps are disjoint. It reports the
// first entity that repeats an earlier one of its table. Caller holds
// the write lock.
func (d *Dictionary) buildLocked() error {
	if !d.needsBuild {
		return nil
	}
	var wg sync.WaitGroup
	var procDup, fileDup, connDup sysmon.EntityID
	wg.Add(3)
	go func() {
		defer wg.Done()
		d.procIntern, procDup = internMap(d.procs)
	}()
	go func() {
		defer wg.Done()
		d.fileIntern, fileDup = internMap(d.files)
	}()
	go func() {
		defer wg.Done()
		d.connIntern, connDup = internMap(d.conns)
	}()
	wg.Wait()
	d.needsBuild = false
	for _, dup := range []struct {
		t  sysmon.EntityType
		id sysmon.EntityID
	}{{sysmon.EntityProcess, procDup}, {sysmon.EntityFile, fileDup}, {sysmon.EntityNetconn, connDup}} {
		if dup.id != 0 {
			return fmt.Errorf("%s entity %d repeats an earlier one: %w", dup.t, dup.id, durable.ErrCorrupt)
		}
	}
	return nil
}

// hydrateLocked builds the intern maps before an ingest interns. Ingest
// has no recovery error path, so a repeat in restored tables is not
// reported here: the map keeps the later ID. Open rejects one whenever
// replay builds the maps (appendReplayed). Caller holds the write lock.
func (d *Dictionary) hydrateLocked() {
	_ = d.buildLocked()
}

// internMap maps every entity of a table to its ID. dup is the ID of
// the first entity that repeats an earlier one, or 0.
func internMap[E comparable](table []E) (ids map[E]sysmon.EntityID, dup sysmon.EntityID) {
	ids = make(map[E]sysmon.EntityID, len(table))
	for i, e := range table {
		ids[e] = sysmon.EntityID(i + 1)
		if dup == 0 && len(ids) != i+1 {
			dup = sysmon.EntityID(i + 1)
		}
	}
	return ids, dup
}

// intern returns e's ID, appending e to its table if new.
func intern[E comparable](table *[]E, ids map[E]sysmon.EntityID, e E) sysmon.EntityID {
	if id, ok := ids[e]; ok {
		return id
	}
	*table = append(*table, e)
	id := sysmon.EntityID(len(*table))
	ids[e] = id
	return id
}

// InternProcess returns the ID for p, creating it if new.
func (d *Dictionary) InternProcess(p sysmon.Process) sysmon.EntityID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hydrateLocked()
	return intern(&d.procs, d.procIntern, p)
}

// InternFile returns the ID for f, creating it if new.
func (d *Dictionary) InternFile(f sysmon.File) sysmon.EntityID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hydrateLocked()
	return intern(&d.files, d.fileIntern, f)
}

// InternNetconn returns the ID for n, creating it if new.
func (d *Dictionary) InternNetconn(n sysmon.Netconn) sysmon.EntityID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hydrateLocked()
	return intern(&d.conns, d.connIntern, n)
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
		if p, field := d.Process(id), sysmon.ProcessField(attr); p != nil && field != nil {
			return field(p)
		}
	case sysmon.EntityFile:
		if f, field := d.File(id), sysmon.FileField(attr); f != nil && field != nil {
			return field(f)
		}
	case sysmon.EntityNetconn:
		if n, field := d.Netconn(id), sysmon.NetconnField(attr); n != nil && field != nil {
			return field(n)
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
// Every filter kind — LIKE, =, != and numeric — walks the new table
// entries the same way, without holding the dictionary lock.
func (d *Dictionary) ResolveEntities(t sysmon.EntityType, attr string, f *AttrFilter, prev *IDSet, from int) (set *IDSet, upto int) {
	attr, _ = sysmon.CanonicalAttr(t, attr) // "" when unknown: no field, no match
	procs, files, conns := d.tableHeaders()
	set = prev.grow()
	switch t {
	case sysmon.EntityProcess:
		upto = len(procs)
		matchTable(set, procs, from, sysmon.ProcessField(attr), f)
	case sysmon.EntityFile:
		upto = len(files)
		matchTable(set, files, from, sysmon.FileField(attr), f)
	case sysmon.EntityNetconn:
		upto = len(conns)
		matchTable(set, conns, from, sysmon.NetconnField(attr), f)
	}
	return set, upto
}

// matchTable adds to set the ID of every entity of table from position
// from on whose field matches f; a nil field (an unknown attribute)
// matches nothing.
func matchTable[E any](set *IDSet, table []E, from int, field func(*E) string, f *AttrFilter) {
	if field == nil {
		return
	}
	for i := from; i < len(table); i++ {
		if f.match(field(&table[i])) {
			set.add(sysmon.EntityID(i + 1))
		}
	}
}
