package eventstore

import (
	"unsafe"

	"github.com/aiql/aiql/internal/sysmon"
)

// Stats summarizes a store's contents and footprint.
type Stats struct {
	Events     int
	Partitions int
	Processes  int
	Files      int
	Netconns   int
	// ApproxBytes is an estimate of in-memory footprint: event array plus
	// entity tables plus string payloads (index overhead excluded).
	ApproxBytes uint64
}

// SegmentStats describes the store's LSM layout: how much committed
// data sits in sealed (immutable, cache-reusable) segments versus
// active memtables.
type SegmentStats struct {
	Partitions     int    `json:"partitions"`
	Segments       int    `json:"segments"`
	SealedEvents   int    `json:"sealed_events"`
	SealedBytes    uint64 `json:"sealed_bytes"`
	MemtableEvents int    `json:"memtable_events"`
	MemtableBytes  uint64 `json:"memtable_bytes"`
}

// SegmentStats computes the store's segment-layout statistics.
func (s *Store) SegmentStats() SegmentStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := SegmentStats{Partitions: len(s.parts)}
	for _, key := range s.order {
		p := s.parts[key]
		st.Segments += len(p.segs)
		for _, g := range p.segs {
			st.SealedEvents += g.Len()
			st.SealedBytes += g.ApproxBytes()
		}
		st.MemtableEvents += len(p.mem.events)
		st.MemtableBytes += uint64(len(p.mem.events)) * uint64(unsafe.Sizeof(sysmon.Event{}))
	}
	return st
}

// StorageStats describes where sealed-segment bytes live: mapped
// (segment files served through mmap — resident only as the page cache
// decides), heap (segments sealed in this process and not yet reopened,
// lazily materialized events, and cached decompressed blocks), and the
// block cache's hit/miss/eviction counters.
type StorageStats struct {
	MappedBytes int64           `json:"mapped_bytes"`
	HeapBytes   int64           `json:"heap_bytes"`
	BlockCache  BlockCacheStats `json:"block_cache"`
}

// StorageStats computes the store's storage-residency statistics.
func (s *Store) StorageStats() StorageStats {
	sn := s.Snapshot()
	var st StorageStats
	for i := range sn.parts {
		for _, g := range sn.parts[i].segs {
			if rd := g.reader(); rd != nil {
				st.MappedBytes += rd.MappedBytes()
			}
			st.HeapBytes += int64(g.ApproxBytes())
		}
	}
	st.BlockCache = s.blockCache.Stats()
	st.HeapBytes += st.BlockCache.Bytes
	return st
}

// BlockCacheStats reports the decompressed-block cache's counters
// without walking the snapshot — cheap enough for per-span deltas in
// the query tracer (StorageStats, by contrast, visits every segment).
func (s *Store) BlockCacheStats() BlockCacheStats {
	return s.blockCache.Stats()
}

// Stats computes summary statistics for the store.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Events:     s.total,
		Partitions: len(s.parts),
		Processes:  len(s.dict.procs),
		Files:      len(s.dict.files),
		Netconns:   len(s.dict.conns),
	}
	st.ApproxBytes = uint64(s.total) * uint64(unsafe.Sizeof(sysmon.Event{}))
	for i := range s.dict.procs {
		p := &s.dict.procs[i]
		st.ApproxBytes += uint64(unsafe.Sizeof(*p)) +
			uint64(len(p.ExeName)+len(p.Path)+len(p.User)+len(p.CmdLine))
	}
	for i := range s.dict.files {
		f := &s.dict.files[i]
		st.ApproxBytes += uint64(unsafe.Sizeof(*f)) + uint64(len(f.Path)+len(f.Owner))
	}
	for i := range s.dict.conns {
		c := &s.dict.conns[i]
		st.ApproxBytes += uint64(unsafe.Sizeof(*c)) +
			uint64(len(c.SrcIP)+len(c.DstIP)+len(c.Protocol))
	}
	return st
}
