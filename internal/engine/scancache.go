package engine

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
)

// The segment scan cache is what turns the store's immutable segments
// into reusable work: a pattern scan's filtered output over one sealed
// segment is a pure function of (filter, predicates, segment), so it is
// cached under (filter fingerprint, segment id) and served verbatim on
// the next execution. An append only creates new segments and memtable
// events — it never rewrites a sealed segment — so a re-run after an
// append re-scans just the unsealed tail and the fresh segments while
// every sealed-segment result is reused. This is the segment-granular
// replacement for invalidating whole query results on every commit.
//
// Entries are only written for scans that ran to completion (a
// cancelled mid-unit scan yields a partial batch that must not be
// served later), and segments are immutable for their lifetime, so
// entries never go stale; they only age out of the byte-bounded LRU.
//
// What a scan gathers of each event is the consumer's column demand,
// which is not part of the key: two queries sharing a pattern share its
// entries whatever they return. An entry records the columns it was
// gathered with and serves any scan demanding a subset of them.

// scanFP fingerprints one pattern scan: every field of the (narrowed)
// event filter plus the compiled per-event predicates. 128 bits keeps
// accidental collisions out of reach for cache-sized key populations.
type scanFP [16]byte

// scanFingerprint hashes the filter and predicates into a scanFP. The
// inputs are built deterministically by the planner (agent and op lists
// in query order, entity sets by their length and member digest), so
// equal scans always produce equal fingerprints.
func scanFingerprint(f *eventstore.EventFilter, preds []evtPred) scanFP {
	h := fnv.New128a()
	var b [8]byte
	wr := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	ws := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	wr(uint64(f.From))
	wr(uint64(f.To))
	wr(uint64(f.ObjType))
	wr(f.MinAmount)
	wr(uint64(len(f.Agents)))
	for _, a := range f.Agents {
		wr(uint64(a))
	}
	wr(uint64(len(f.Ops)))
	for _, op := range f.Ops {
		wr(uint64(op))
	}
	writeSet := func(set *eventstore.IDSet) {
		if set == nil {
			wr(^uint64(0))
			return
		}
		hi, lo := set.Digest()
		wr(uint64(set.Len()))
		wr(hi)
		wr(lo)
	}
	writeSet(f.Subjects)
	writeSet(f.Objects)
	wr(uint64(len(preds)))
	for i := range preds {
		p := &preds[i]
		ws(p.attr)
		wr(uint64(p.op))
		wr(math.Float64bits(p.num))
		ws(p.str)
	}
	var fp scanFP
	copy(fp[:], h.Sum(nil))
	return fp
}

// ScanCacheStats are the segment scan cache's counters and gauges.
type ScanCacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

type scanCacheKey struct {
	fp  scanFP
	seg uint64
}

type scanCacheEntry struct {
	key    scanCacheKey
	events []sysmon.Event     // filtered batch; shared, read-only
	cols   eventstore.ColMask // the columns the batch was gathered with
	bytes  int64
	used   bool // second-chance bit; set on hit, cleared by the evictor
}

// scanCache is a byte-bounded cache over per-segment filtered scan
// results with CLOCK (second-chance) eviction: a hit only sets the
// entry's used bit — no list surgery — so the fully warm path, which
// touches hundreds of entries per query, stays cheap; the evictor
// recycles entries whose bit has not been set since its last pass.
// Hit/miss counters are monotonic across the engine's lifetime.
type scanCache struct {
	hits   atomic.Uint64
	misses atomic.Uint64

	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[scanCacheKey]*list.Element
	order    *list.List // front = most recently used
}

func newScanCache(maxBytes int64) *scanCache {
	if maxBytes <= 0 {
		return nil
	}
	return &scanCache{
		maxBytes: maxBytes,
		entries:  make(map[scanCacheKey]*list.Element),
		order:    list.New(),
	}
}

// entryBytes approximates an entry's resident size: the event array
// plus fixed bookkeeping overhead (so empty batches — the common case
// for selective filters — still cost something and cannot grow the map
// unboundedly for free).
func entryBytes(events []sysmon.Event) int64 {
	const overhead = 96
	return int64(len(events))*int64(unsafe.Sizeof(sysmon.Event{})) + overhead
}

// cachedBatch is peekAll's answer for one unit: events is the batch when
// an entry can serve the demand (never nil then — put normalizes empty
// batches to a sentinel); otherwise cols is what a present but too
// narrow entry was gathered with, for the rescan to widen.
type cachedBatch struct {
	events []sysmon.Event
	cols   eventstore.ColMask
}

// peekAll looks up every sealed unit's batch under one lock acquisition
// — the warm path touches hundreds of segments, so per-unit locking
// would dominate a fully cached scan. Memtable tails and uncached units
// come back zero. It does no hit/miss accounting: the ordered-merge
// executor prefetches up front but attributes a hit or miss only when a
// unit's result is actually consumed (via note), so the reuse counters
// never count units a satisfied limit left unconsumed.
func (c *scanCache) peekAll(fp scanFP, units []eventstore.ScanUnit, cols eventstore.ColMask) []cachedBatch {
	if c == nil {
		return nil
	}
	out := make([]cachedBatch, len(units))
	c.mu.Lock()
	for i := range units {
		if !units[i].Sealed() {
			continue
		}
		if el, ok := c.entries[scanCacheKey{fp: fp, seg: units[i].SegmentID()}]; ok {
			entry := el.Value.(*scanCacheEntry)
			if entry.cols&cols != cols {
				out[i].cols = entry.cols
				continue
			}
			entry.used = true
			out[i].events = entry.events
		}
	}
	c.mu.Unlock()
	return out
}

// note records the consume-time outcome for one sealed unit served
// through peekAll: a hit for a prefetched batch, a miss for a unit that
// had to be scanned.
func (c *scanCache) note(hit bool) {
	if c == nil {
		return
	}
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// emptyBatch is the shared non-nil value cached for scans that matched
// nothing, so peekAll can use nil events for "not served".
var emptyBatch = make([]sysmon.Event, 0)

func (c *scanCache) put(fp scanFP, seg uint64, events []sysmon.Event, cols eventstore.ColMask) {
	if c == nil {
		return
	}
	if events == nil {
		events = emptyBatch
	}
	entry := &scanCacheEntry{
		key:    scanCacheKey{fp: fp, seg: seg},
		events: events,
		cols:   cols,
		bytes:  entryBytes(events),
	}
	if entry.bytes > c.maxBytes {
		return // would evict everything and still not fit
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[entry.key]; ok {
		if old := el.Value.(*scanCacheEntry); old.cols&cols == cols && old.cols != cols {
			return // a racing wider scan got here first; it serves this demand too
		}
		c.bytes += entry.bytes - el.Value.(*scanCacheEntry).bytes
		entry.used = true
		el.Value = entry
	} else {
		c.entries[entry.key] = c.order.PushFront(entry)
		c.bytes += entry.bytes
	}
	// CLOCK sweep: recycle from the back; recently used entries get a
	// second chance at the front with their bit cleared. Each pass over
	// a used entry clears its bit, so the loop terminates.
	for c.bytes > c.maxBytes {
		oldest := c.order.Back()
		old := oldest.Value.(*scanCacheEntry)
		if old.used {
			old.used = false
			c.order.MoveToFront(oldest)
			continue
		}
		c.order.Remove(oldest)
		c.bytes -= old.bytes
		delete(c.entries, old.key)
	}
}

// retire drops every entry keyed to one of the given segment IDs:
// compaction replaced those segments with a merged one, so their
// batches can never be requested again — the merged segment is scanned
// (and cached) fresh under its own ID. A late put from a query still
// scanning a pinned pre-compaction snapshot may re-add one entry; it is
// bounded garbage that ages out with the LRU.
func (c *scanCache) retire(segIDs []uint64) {
	if c == nil || len(segIDs) == 0 {
		return
	}
	retired := make(map[uint64]bool, len(segIDs))
	for _, id := range segIDs {
		retired[id] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if retired[key.seg] {
			c.bytes -= el.Value.(*scanCacheEntry).bytes
			c.order.Remove(el)
			delete(c.entries, key)
		}
	}
}

func (c *scanCache) stats() ScanCacheStats {
	if c == nil {
		return ScanCacheStats{}
	}
	c.mu.Lock()
	entries, bytes := c.order.Len(), c.bytes
	c.mu.Unlock()
	return ScanCacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: entries,
		Bytes:   bytes,
	}
}
