// Package eventstore implements the AIQL domain-specific data model and
// storage for system monitoring data.
//
// The store exploits the strong spatial and temporal properties of the
// data: every event occurs on one host (agent) at one time, so events are
// organized into hypertable-style chunks keyed by (agent, time bucket).
// Entities are deduplicated into a dictionary whose IDs are dense table
// positions, so an attribute filter resolves to candidate entity IDs by
// one incremental walk of the table, and per-chunk posting lists map
// entities to the events that reference them. These structures give the
// query engine both fast access paths and the statistics it needs to
// estimate the pruning power of event patterns.
//
// Every optimization the paper describes (deduplication, posting
// indexes, time/space partitioning, batch commit) can be toggled through
// Options so the benchmark harness can ablate each one.
package eventstore

import "time"

// Options control which storage optimizations are active.
type Options struct {
	// Dedup enables entity deduplication (interning): identical entities
	// observed by different events share one dictionary entry. Interning
	// is also what gives entities identity across events — multievent
	// queries joining on shared entity variables require it; disabling it
	// is meant for storage/ingest ablations.
	Dedup bool
	// Indexes enables the per-segment entity→event posting lists, which
	// turn resolved entity candidates into event positions without a
	// scan. Entity attribute filters resolve the same way either way
	// (see Dictionary.ResolveEntities).
	Indexes bool
	// Partitioning enables hypertable-style chunking by (agent, time
	// bucket). When disabled all events land in a single heap chunk.
	Partitioning bool
	// BatchCommit buffers appended events and commits them in batches,
	// amortizing sort and index maintenance.
	BatchCommit bool
	// ChunkDuration is the time width of a hypertable chunk.
	ChunkDuration time.Duration
	// BatchSize is the number of buffered events per batch commit.
	BatchSize int
	// SegmentEvents is the seal threshold: a chunk's memtable reaching
	// this many events at a commit boundary is sealed into an immutable
	// segment. Flush additionally seals every non-empty memtable
	// regardless of size. Smaller segments seal (and become cacheable)
	// sooner; larger ones amortize per-segment overhead.
	SegmentEvents int

	// Dir enables the durable storage subsystem: sealed segments are
	// written once as individual files under Dir, a MANIFEST records
	// the live segment set plus the dictionary tables, and a
	// write-ahead log covers committed-but-unsealed events. Open the
	// store with Open (New ignores Dir). Empty keeps the store purely
	// in-memory.
	Dir string
	// SyncWAL fsyncs the write-ahead log on every commit, making
	// acknowledged appends durable against power loss (not just
	// process crashes) at the cost of one fsync per commit batch.
	SyncWAL bool
	// CompactFanIn caps how many adjacent small segments one
	// compaction merges into a single segment. Default 8.
	CompactFanIn int
	// CompactTargetEvents is the compactor's target segment size:
	// chains of adjacent sealed segments smaller than the target are
	// merged until the merged segment would exceed it. Default
	// 4×SegmentEvents.
	CompactTargetEvents int
	// BlockCacheBytes bounds the cache of decompressed segment column
	// blocks shared by all segments of the store. 0 selects
	// DefaultBlockCacheBytes; negative disables the cache.
	BlockCacheBytes int64
}

// DefaultOptions returns the fully optimized configuration used by the
// AIQL system (all optimizations on, 1-hour chunks, 4096-event batches).
func DefaultOptions() Options {
	return Options{
		Dedup:         true,
		Indexes:       true,
		Partitioning:  true,
		BatchCommit:   true,
		ChunkDuration: time.Hour,
		BatchSize:     4096,
		SegmentEvents: 8192,
	}
}

// PlainOptions returns the unoptimized configuration: a single append-only
// heap with no dedup, no indexes, no partitioning, and per-event commits.
// This models the "w/o our optimized storage" baseline of the paper.
func PlainOptions() Options {
	return Options{ChunkDuration: time.Hour, BatchSize: 1}
}

func (o Options) normalized() Options {
	if o.ChunkDuration <= 0 {
		o.ChunkDuration = time.Hour
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 1
	}
	if o.SegmentEvents <= 0 {
		o.SegmentEvents = 8192
	}
	if o.CompactFanIn <= 1 {
		o.CompactFanIn = 8
	}
	if o.CompactTargetEvents <= 0 {
		o.CompactTargetEvents = 4 * o.SegmentEvents
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = DefaultBlockCacheBytes
	}
	return o
}
