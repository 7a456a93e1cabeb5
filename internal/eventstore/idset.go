package eventstore

import (
	"slices"
	"sync/atomic"

	"github.com/aiql/aiql/internal/sysmon"
)

// IDSet is a set of entity IDs, used to carry entity bindings between
// event patterns during query execution (e.g. "the same file f1").
// Concurrent readers are safe once the set is no longer being added to,
// which is how the engine shares resolved candidate sets across queries.
type IDSet struct {
	m map[sysmon.EntityID]struct{}
	// sorted memoizes IDs(): one candidate set is fingerprinted by every
	// scan it narrows, and re-sorting a few thousand IDs each time shows
	// up in profiles. Add invalidates it.
	sorted atomic.Pointer[[]sysmon.EntityID]
}

// NewIDSet creates a set containing the given IDs.
func NewIDSet(ids ...sysmon.EntityID) *IDSet {
	s := &IDSet{m: make(map[sysmon.EntityID]struct{}, len(ids))}
	for _, id := range ids {
		s.m[id] = struct{}{}
	}
	return s
}

// Add inserts id into the set.
func (s *IDSet) Add(id sysmon.EntityID) {
	s.m[id] = struct{}{}
	if s.sorted.Load() != nil {
		s.sorted.Store(nil)
	}
}

// Has reports whether id is in the set. A nil set contains everything,
// matching the "unconstrained" meaning used by event filters.
func (s *IDSet) Has(id sysmon.EntityID) bool {
	if s == nil {
		return true
	}
	_, ok := s.m[id]
	return ok
}

// Len returns the number of IDs in the set; a nil set has length -1,
// meaning "unbounded".
func (s *IDSet) Len() int {
	if s == nil {
		return -1
	}
	return len(s.m)
}

// Empty reports whether the set is non-nil and has no members.
func (s *IDSet) Empty() bool { return s != nil && len(s.m) == 0 }

// IDs returns the members in ascending order. The slice is shared
// between callers and must not be modified.
func (s *IDSet) IDs() []sysmon.EntityID {
	if s == nil {
		return nil
	}
	if p := s.sorted.Load(); p != nil {
		return *p
	}
	out := make([]sysmon.EntityID, 0, len(s.m))
	for id := range s.m {
		out = append(out, id)
	}
	slices.Sort(out)
	s.sorted.Store(&out)
	return out
}

// Intersect returns the intersection of s and t. Either may be nil
// (meaning unbounded); the intersection with nil is the other set.
func (s *IDSet) Intersect(t *IDSet) *IDSet {
	if s == nil {
		return t
	}
	if t == nil {
		return s
	}
	small, large := s, t
	if len(large.m) < len(small.m) {
		small, large = large, small
	}
	out := &IDSet{m: make(map[sysmon.EntityID]struct{})}
	for id := range small.m {
		if _, ok := large.m[id]; ok {
			out.m[id] = struct{}{}
		}
	}
	return out
}
