package service

import (
	"container/list"
	"sync"

	"github.com/aiql/aiql/internal/engine"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/qtext"
)

// cacheKey identifies one query result: the normalized query text plus
// the store's commit counter at execution time. Because every append
// commit bumps the counter, entries computed over an older store version
// become unreachable (and age out of the LRU) the moment new data lands —
// invalidation by key, not by scanning.
type cacheKey struct {
	query   string
	commits uint64
}

// cacheEntry is one cached execution outcome. The Result is shared by
// every client that hits the entry and must be treated as read-only;
// response shaping (limit truncation, pagination) slices, never mutates.
type cacheEntry struct {
	key    cacheKey
	result *engine.Result
	kind   string
	bytes  int64 // approximate memory footprint, fixed at creation
	// trace is the producing execution's span tree; responses expose it
	// only when the request asked to be traced.
	trace *obs.SpanNode
	// warnings names shard members that could not contribute; a
	// non-empty list marks the result partial and bars the entry from
	// the cache (shared skips the put).
	warnings []ShardWarning
}

// approxResultBytes estimates the resident size of a result: the string
// bytes of every cell and column plus slice/header overhead. It is the
// unit the cache's byte budget is accounted in.
func approxResultBytes(res *engine.Result) int64 {
	const (
		stringOverhead = 16 // string header
		rowOverhead    = 24 // slice header per row
	)
	var n int64
	for _, c := range res.Columns {
		n += int64(len(c)) + stringOverhead
	}
	for _, row := range res.Rows {
		n += rowOverhead
		for _, cell := range row {
			n += int64(len(cell)) + stringOverhead
		}
	}
	return n
}

// resultCache is a mutex-guarded LRU over executed query results,
// bounded both by entry count and by the approximate memory footprint of
// the cached rows. Whichever bound is exceeded first drives eviction, so
// one enormous result cannot pin the budget the way it could under a
// pure entry-count policy.
type resultCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64
	bytes    int64
	entries  map[cacheKey]*list.Element
	order    *list.List // front = most recently used
}

func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{
		cap:      resultCacheEntries,
		maxBytes: maxBytes,
		entries:  make(map[cacheKey]*list.Element, resultCacheEntries),
		order:    list.New(),
	}
}

func (c *resultCache) get(key cacheKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

func (c *resultCache) put(entry *cacheEntry) {
	if entry.bytes == 0 {
		entry.bytes = approxResultBytes(entry.result)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// an entry larger than the whole budget would evict everything and
	// still not fit; don't admit it
	if entry.bytes > c.maxBytes {
		return
	}
	if el, ok := c.entries[entry.key]; ok {
		c.order.MoveToFront(el)
		c.bytes += entry.bytes - el.Value.(*cacheEntry).bytes
		el.Value = entry
	} else {
		c.entries[entry.key] = c.order.PushFront(entry)
		c.bytes += entry.bytes
	}
	for c.order.Len() > c.cap || c.bytes > c.maxBytes {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		old := oldest.Value.(*cacheEntry)
		c.bytes -= old.bytes
		delete(c.entries, old.key)
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func (c *resultCache) sizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// normalizeQuery canonicalizes query text for cache keying, so
// reformatting a query (line breaks, indentation) still hits the cache.
// The same normalization fingerprints prepared-statement templates.
func normalizeQuery(src string) string { return qtext.Normalize(src) }
