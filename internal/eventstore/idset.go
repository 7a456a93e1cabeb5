package eventstore

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"github.com/aiql/aiql/internal/sysmon"
)

// IDSet is an immutable set of entity IDs, used to carry entity
// bindings between event patterns during query execution (e.g. "the
// same file f1") and as the candidate set an attribute filter resolves
// to. It holds its members three ways:
//
//   - an ascending ID slice, so IDs needs no sort;
//   - a bitmap in fixed-size chunks, so Has is O(1) for the scan kernel;
//   - a running FNV-128a digest of the members, so a scan fingerprint
//     hashes the set's length and digest instead of every ID.
//
// Sets only ever grow at the top: a resolved candidate set over IDs
// 1..n is extended to 1..n' by appending the matches among n+1..n'
// (see Dictionary.ResolveEntities). An extension is a new IDSet that
// shares its predecessor's storage — the ID slice and chunk list are
// appended past the predecessor's length, and only the last, partial
// bitmap chunk is copied before it is written — so extending never
// copies the whole set, and a reader holding an earlier version keeps
// reading exactly the members it had, concurrently with the extension.
type IDSet struct {
	ids []sysmon.EntityID // ascending
	// chunks[c] holds the members in [c<<idChunkShift, (c+1)<<idChunkShift);
	// last is chunk len(chunks), the one holding the largest member.
	// Chunks below last never change once an ID above them is added;
	// a nil chunk holds no members.
	chunks []*idChunk
	last   *idChunk
	// lastShared marks last as also referenced by the version this one
	// grew from, which may have readers: it is copied before a write.
	lastShared bool
	digest     [2]uint64 // FNV-128a state over the members, high word first
	// grown is set once a successor appends into this set's storage; a
	// second successor then copies instead of clobbering the first's.
	grown atomic.Bool
}

const (
	idChunkShift = 10
	idChunkWords = 1 << idChunkShift / 64
)

type idChunk [idChunkWords]uint64

// FNV-128a parameters, as in hash/fnv.
const (
	fnvOffsetHigh = 0x6c62272e07bb0142
	fnvOffsetLow  = 0x62b821756295c58d
	fnvPrimeLow   = 0x13b
	fnvPrimeShift = 24
)

func emptyIDSet(capacity int) *IDSet {
	return &IDSet{ids: make([]sysmon.EntityID, 0, capacity), digest: [2]uint64{fnvOffsetHigh, fnvOffsetLow}}
}

// NewIDSet creates a set containing the given IDs, in any order and
// with any repetition.
func NewIDSet(ids ...sysmon.EntityID) *IDSet {
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	s := emptyIDSet(len(sorted))
	for _, id := range sorted {
		s.add(id)
	}
	return s
}

// grow returns a new version of s to extend with add: it holds s's
// members and shares s's storage (see IDSet). A nil s grows into an
// empty set. Each version is meant to be grown once; growing one again
// still yields a correct set, by copying.
func (s *IDSet) grow() *IDSet {
	if s == nil {
		return emptyIDSet(0)
	}
	n := &IDSet{ids: s.ids, chunks: s.chunks, last: s.last, lastShared: s.last != nil, digest: s.digest}
	if !s.grown.CompareAndSwap(false, true) {
		n.ids = slices.Clip(n.ids)
		n.chunks = slices.Clip(n.chunks)
	}
	return n
}

// add appends id, which must exceed every member, to a set that has
// not been published to readers yet.
func (s *IDSet) add(id sysmon.EntityID) {
	if k := len(s.ids); k > 0 && id <= s.ids[k-1] {
		panic("eventstore: IDSet members must be added in ascending order")
	}
	s.ids = append(s.ids, id)
	for c := int(id >> idChunkShift); len(s.chunks) < c; {
		s.chunks = append(s.chunks, s.last)
		s.last, s.lastShared = nil, false
	}
	switch {
	case s.last == nil:
		s.last = new(idChunk)
	case s.lastShared:
		cp := *s.last
		s.last, s.lastShared = &cp, false
	}
	s.last[id>>6%idChunkWords] |= 1 << (id % 64)
	for v, i := uint32(id), 0; i < 4; v, i = v>>8, i+1 {
		s.digest[1] ^= uint64(v & 0xff)
		hi, lo := bits.Mul64(fnvPrimeLow, s.digest[1])
		s.digest[0] = hi + s.digest[1]<<fnvPrimeShift + fnvPrimeLow*s.digest[0]
		s.digest[1] = lo
	}
}

// Has reports whether id is in the set. A nil set contains everything,
// matching the "unconstrained" meaning used by event filters.
func (s *IDSet) Has(id sysmon.EntityID) bool {
	if s == nil {
		return true
	}
	var ch *idChunk
	switch c := int(id >> idChunkShift); {
	case c < len(s.chunks):
		ch = s.chunks[c]
	case c == len(s.chunks):
		ch = s.last
	}
	return ch != nil && ch[id>>6%idChunkWords]&(1<<(id%64)) != 0
}

// Len returns the number of IDs in the set; a nil set has length -1,
// meaning "unbounded".
func (s *IDSet) Len() int {
	if s == nil {
		return -1
	}
	return len(s.ids)
}

// Empty reports whether the set is non-nil and has no members.
func (s *IDSet) Empty() bool { return s != nil && len(s.ids) == 0 }

// IDs returns the members in ascending order. The slice is shared
// between callers and must not be modified.
func (s *IDSet) IDs() []sysmon.EntityID {
	if s == nil {
		return nil
	}
	return s.ids
}

// Digest returns the running FNV-128a digest of the members (each as
// four little-endian bytes, in ascending order). Equal sets have equal
// digests.
func (s *IDSet) Digest() (hi, lo uint64) { return s.digest[0], s.digest[1] }

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
	if len(large.ids) < len(small.ids) {
		small, large = large, small
	}
	out := emptyIDSet(0)
	for _, id := range small.ids {
		if large.Has(id) {
			out.add(id)
		}
	}
	return out
}
