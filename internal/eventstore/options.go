// Package eventstore implements the AIQL domain-specific data model and
// storage for system monitoring data.
//
// The store exploits the strong spatial and temporal properties of the
// data: every event occurs on one host (agent) at one time, so events are
// organized into hypertable-style chunks keyed by (agent, hour).
// Entities are deduplicated into a dictionary whose IDs are dense table
// positions, so an attribute filter resolves to candidate entity IDs by
// one incremental walk of the table, and per-segment posting lists map
// entities to the events that reference them. These structures give the
// query engine both fast access paths and the statistics it needs to
// estimate the pruning power of event patterns.
//
// The optimizations the paper describes (deduplication, posting indexes,
// time/space partitioning, batch commit) are the data model itself, not
// options: every store interns entities, indexes sealed segments, chunks
// by (agent, hour) and commits AppendAll batches in 4096-event steps.
// Segment sizes are fixed too: a chunk seals at 8192 events, and
// compaction merges up to 8 adjacent small segments toward 32768
// events. Options keep only the directory, the WAL fsync and the block
// cache's size.
package eventstore

import "github.com/aiql/aiql/internal/durable"

// chunkDuration is the time width of a hypertable chunk: the one layout
// durable manifests record.
const chunkDuration = durable.ChunkDuration

// commitBatch is how many events one commit boundary of AppendAll
// carries: a longer call commits in steps of this size, amortizing
// sort and index maintenance, and commits its tail before returning.
const commitBatch = 4096

// The segment sizes are constants of the data model. New copies the
// seal threshold and the compaction target into unexported Store
// fields, which only this package's tests lower.
const (
	// sealEvents is the seal threshold: a chunk's memtable reaching this
	// many events at a commit boundary is sealed into an immutable
	// segment. Flush additionally seals every non-empty memtable
	// regardless of size.
	sealEvents = 8192
	// compactFanIn caps how many adjacent small segments one compaction
	// merges into a single segment.
	compactFanIn = 8
	// compactTargetEvents is the compactor's target segment size:
	// chains of adjacent sealed segments smaller than the target are
	// merged until the merged segment would exceed it.
	compactTargetEvents = 4 * sealEvents
)

// Options configure a store's durability and block cache. The data
// layout and the segment sizes have one configuration each (see the
// package doc).
type Options struct {
	// Dir enables the durable storage subsystem: sealed segments are
	// written once as individual files under Dir, a MANIFEST records
	// the live segment set plus the dictionary tables, and a
	// write-ahead log covers committed-but-unsealed events. Open the
	// store with Open (New ignores Dir). Empty keeps the store purely
	// in-memory.
	Dir string
	// SyncWAL fsyncs the write-ahead log once per AppendAll call,
	// making acknowledged appends durable against power loss (not just
	// process crashes) at the cost of one fsync per call.
	SyncWAL bool
	// BlockCacheBytes bounds the cache of decompressed segment column
	// blocks shared by all segments of the store. 0 selects
	// DefaultBlockCacheBytes; negative disables the cache.
	BlockCacheBytes int64
}

// DefaultOptions returns the configuration used by the AIQL system: in
// memory; with Dir set, a durable store that acknowledges an AppendAll
// only after its WAL fsync.
func DefaultOptions() Options {
	return Options{SyncWAL: true}
}
