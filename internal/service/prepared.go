package service

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	aiql "github.com/aiql/aiql"
)

// ErrStmtNotFound reports a stmt_id the registry does not hold: never
// issued, expired past its TTL, or evicted by the LRU. The client
// re-prepares and retries.
var ErrStmtNotFound = errors.New("service: unknown or expired statement id, prepare again")

// PreparedStats are the prepared-statement registry's figures: the
// statements currently held plus monotonic hit/miss/eviction counters.
type PreparedStats struct {
	Statements int    `json:"statements"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Expired    uint64 `json:"expired"`
}

// ParamInfo is the wire form of one signature entry.
type ParamInfo struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// PreparedInfo is the wire-ready description of a registered statement.
type PreparedInfo struct {
	StmtID  string      `json:"stmt_id"`
	Kind    string      `json:"kind"`
	Params  []ParamInfo `json:"params"`
	Columns []string    `json:"columns,omitempty"`
}

// PreparedSeed carries one statement across a dataset hot-swap: the
// catalog re-prepares the source against the swapped-in database under
// the same id, so clients' handles survive the swap.
type PreparedSeed struct {
	ID     string
	Source string
}

// stmtEntry is one registered statement.
type stmtEntry struct {
	id       string
	stmt     *aiql.Stmt
	lastUsed time.Time
}

// preparedRegistry is a mutex-guarded LRU of prepared statements with
// idle-TTL expiry. Expired entries are pruned lazily on access and on
// insert; a stmt_id that has expired or been evicted answers
// ErrStmtNotFound.
type preparedRegistry struct {
	mu      sync.Mutex
	cap     int
	ttl     time.Duration
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits, misses, evictions, expired uint64
}

func newPreparedRegistry() *preparedRegistry {
	return &preparedRegistry{
		cap:     preparedEntries,
		ttl:     preparedTTL,
		entries: make(map[string]*list.Element, preparedEntries),
		order:   list.New(),
	}
}

// newStmtID mints an unguessable statement handle.
func newStmtID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: stmt id entropy: %v", err))
	}
	return "stmt_" + hex.EncodeToString(b[:])
}

// put registers a statement under a fresh id (or the given id, for
// hot-swap adoption) and returns the id.
func (r *preparedRegistry) put(id string, stmt *aiql.Stmt, now time.Time) string {
	if id == "" {
		id = newStmtID()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneExpired(now)
	if el, ok := r.entries[id]; ok {
		el.Value = &stmtEntry{id: id, stmt: stmt, lastUsed: now}
		r.order.MoveToFront(el)
		return id
	}
	r.entries[id] = r.order.PushFront(&stmtEntry{id: id, stmt: stmt, lastUsed: now})
	for r.order.Len() > r.cap {
		oldest := r.order.Back()
		r.order.Remove(oldest)
		delete(r.entries, oldest.Value.(*stmtEntry).id)
		r.evictions++
	}
	return id
}

// get looks up a statement, refreshing its LRU position and idle TTL.
func (r *preparedRegistry) get(id string, now time.Time) (*aiql.Stmt, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.entries[id]; ok {
		e := el.Value.(*stmtEntry)
		if now.Sub(e.lastUsed) <= r.ttl {
			e.lastUsed = now
			r.order.MoveToFront(el)
			r.hits++
			return e.stmt, nil
		}
		r.order.Remove(el)
		delete(r.entries, id)
		r.expired++
	}
	r.misses++
	return nil, fmt.Errorf("%w: %q", ErrStmtNotFound, id)
}

// pruneExpired drops idle-expired entries; the caller holds the lock.
func (r *preparedRegistry) pruneExpired(now time.Time) {
	for el := r.order.Back(); el != nil; {
		e := el.Value.(*stmtEntry)
		if now.Sub(e.lastUsed) <= r.ttl {
			return // LRU order bounds idleness: everything in front is fresher
		}
		prev := el.Prev()
		r.order.Remove(el)
		delete(r.entries, e.id)
		r.expired++
		el = prev
	}
}

// stats snapshots the registry counters.
func (r *preparedRegistry) stats(now time.Time) PreparedStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneExpired(now)
	return PreparedStats{
		Statements: r.order.Len(),
		Hits:       r.hits,
		Misses:     r.misses,
		Evictions:  r.evictions,
		Expired:    r.expired,
	}
}

// seeds exports the held statements (most recently used first) for
// hot-swap adoption.
func (r *preparedRegistry) seeds() []PreparedSeed {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PreparedSeed, 0, r.order.Len())
	for el := r.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*stmtEntry)
		out = append(out, PreparedSeed{ID: e.id, Source: e.stmt.Source()})
	}
	return out
}

// Prepare compiles a query into the per-dataset registry and returns
// its handle and typed parameter signature.
func (s *Service) Prepare(src string) (PreparedInfo, error) {
	stmt, err := s.db.Prepare(src)
	if err != nil {
		return PreparedInfo{}, err
	}
	id := s.prepared.put("", stmt, time.Now())
	return stmtInfo(id, stmt), nil
}

func stmtInfo(id string, stmt *aiql.Stmt) PreparedInfo {
	info := PreparedInfo{StmtID: id, Kind: stmt.Kind(), Params: []ParamInfo{}, Columns: stmt.Columns()}
	for _, p := range stmt.Params() {
		info.Params = append(info.Params, ParamInfo{Name: p.Name, Type: string(p.Type)})
	}
	return info
}

// PreparedStats reports the registry's figures.
func (s *Service) PreparedStats() PreparedStats {
	return s.prepared.stats(time.Now())
}

// PreparedSeeds exports the registered statements for hot-swap
// adoption by a successor service.
func (s *Service) PreparedSeeds() []PreparedSeed {
	return s.prepared.seeds()
}

// AdoptPrepared re-prepares seeds against this service's database under
// their original ids, so statement handles survive a dataset hot-swap.
// Seeds that no longer compile are dropped silently (their ids answer
// stmt_not_found, the same contract as expiry).
func (s *Service) AdoptPrepared(seeds []PreparedSeed) {
	now := time.Now()
	// Insert in reverse so the most recently used seed ends up at the
	// front of the adopted LRU.
	for i := len(seeds) - 1; i >= 0; i-- {
		stmt, err := s.db.Prepare(seeds[i].Source)
		if err != nil {
			continue
		}
		s.prepared.put(seeds[i].ID, stmt, now)
	}
}

// canonBindings renders params in canonical form for cache keying:
// names sorted, values rendered unambiguously, so two requests with the
// same bindings in different order (or formatting) share one cache
// entry while any differing value separates them.
func canonBindings(params aiql.Params) string {
	if len(params) == 0 {
		return ""
	}
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte('\x00')
		}
		b.WriteString(name)
		b.WriteByte('=')
		switch v := params[name].(type) {
		case string:
			b.WriteString(strconv.Quote(v))
		case float64:
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		case int:
			b.WriteString(strconv.Itoa(v))
		default:
			fmt.Fprintf(&b, "%v", v)
		}
	}
	return b.String()
}

// stmtCacheKey builds the canonical cache-key text for a prepared
// execution: the normalized template text (collision-proof, unlike the
// 64-bit fingerprint alone) plus the canonicalized bindings. The
// leading NUL keeps the namespace disjoint from plain normalized query
// text, and the inner NUL separates template from bindings (NUL cannot
// appear in normalized query text outside string literals, whose
// quoting disambiguates).
func stmtCacheKey(stmt *aiql.Stmt, params aiql.Params) string {
	return fmt.Sprintf("\x00stmt:%s\x00%s", normalizeQuery(stmt.Source()), canonBindings(params))
}
