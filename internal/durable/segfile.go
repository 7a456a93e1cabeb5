package durable

import (
	"fmt"
	"sort"

	"github.com/aiql/aiql/internal/sysmon"
)

// segFlagIndexed marks a segment file that carries its posting
// indexes (the header and footer flags byte).
const segFlagIndexed = 1

// SegmentData is the serializable content of one sealed segment.
type SegmentData struct {
	ID      uint64
	AgentID uint32
	Bucket  int64
	Events  []sysmon.Event

	// MinEventID/MaxEventID bound the event IDs contained in the
	// segment; both zero for an empty segment. Filled by
	// EncodeSegmentV2 when left zero.
	MinEventID uint64
	MaxEventID uint64

	// Indexed carries the posting indexes so a load restores them
	// without rebuilding.
	Indexed    bool
	PostingSub map[sysmon.EntityID][]int32
	PostingObj map[sysmon.EntityID][]int32
	OpCount    []int
}

// fillEventIDBounds computes MinEventID/MaxEventID from the events.
func (d *SegmentData) fillEventIDBounds() {
	if d.MinEventID != 0 || d.MaxEventID != 0 || len(d.Events) == 0 {
		return
	}
	d.MinEventID, d.MaxEventID = d.Events[0].ID, d.Events[0].ID
	for i := range d.Events {
		id := d.Events[i].ID
		if id < d.MinEventID {
			d.MinEventID = id
		}
		if id > d.MaxEventID {
			d.MaxEventID = id
		}
	}
}

// writePostings serializes one posting table: entity count, then per
// entity (ascending ID) its ID, list length and event positions.
func writePostings(w *byteWriter, postings map[sysmon.EntityID][]int32) {
	ids := make([]sysmon.EntityID, 0, len(postings))
	for id := range postings {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.u32(uint32(len(ids)))
	for _, id := range ids {
		list := postings[id]
		w.u32(uint32(id))
		w.u32(uint32(len(list)))
		for _, pos := range list {
			w.u32(uint32(pos))
		}
	}
}

// readPostings parses a posting table written by writePostings,
// rejecting positions outside a segment of maxPos events.
func readPostings(r *byteReader, maxPos int) (map[sysmon.EntityID][]int32, error) {
	n := int(r.u32())
	if r.fail {
		return nil, fmt.Errorf("truncated posting table")
	}
	postings := make(map[sysmon.EntityID][]int32, n)
	// Every event contributes exactly one position per posting table,
	// so the lists sum to the segment's event count: one slab backs all
	// of them, sparing a per-entity allocation.
	slab := make([]int32, 0, maxPos)
	for i := 0; i < n; i++ {
		id := sysmon.EntityID(r.u32())
		l := int(r.u32())
		if r.fail || l > maxPos {
			return nil, fmt.Errorf("corrupt posting list")
		}
		var list []int32
		if len(slab)+l <= cap(slab) {
			list = slab[len(slab) : len(slab)+l : len(slab)+l]
			slab = slab[:len(slab)+l]
		} else {
			list = make([]int32, l) // corrupt counts; stay safe
		}
		for j := 0; j < l; j++ {
			pos := r.u32()
			if int(pos) >= maxPos {
				return nil, fmt.Errorf("posting position %d out of range", pos)
			}
			list[j] = int32(pos)
		}
		postings[id] = list
	}
	if r.fail {
		return nil, fmt.Errorf("truncated posting table")
	}
	return postings, nil
}
