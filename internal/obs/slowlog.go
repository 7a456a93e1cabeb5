package obs

import (
	"sync"
	"time"
)

// SlowEntry is one recorded slow query.
type SlowEntry struct {
	Time    time.Time `json:"time"`
	Dataset string    `json:"dataset,omitempty"`
	Kind    string    `json:"kind,omitempty"`
	// Query is the normalized query text (whitespace-canonical, so
	// formatting variants of one investigation collapse together).
	Query string `json:"query"`
	// Bindings fingerprints the parameter bindings of a prepared
	// execution, so repeats of one template with different `$name`
	// values are tellable apart without logging the values themselves.
	Bindings      string        `json:"bindings,omitempty"`
	DurationMS    float64       `json:"duration_ms"`
	Rows          int           `json:"rows"`
	ScannedEvents int64         `json:"scanned_events"`
	Cached        bool          `json:"cached,omitempty"`
	Error         string        `json:"error,omitempty"`
	Spans         []SpanSummary `json:"spans,omitempty"`
}

// SlowLog is a bounded in-memory ring of queries slower than a
// threshold. One log is shared across a whole catalog (entries carry
// their dataset), so it survives dataset hot-swaps. The nil SlowLog is
// valid and discards records.
type SlowLog struct {
	thresholdMS int64
	capacity    int

	mu    sync.Mutex
	ring  []SlowEntry
	next  int
	total uint64
}

// slowLogCapacity is how many of the most recent slow queries a log
// keeps.
const slowLogCapacity = 128

// NewSlowLog creates a slow-query log keeping the most recent 128
// entries at or above thresholdMS milliseconds. A negative threshold
// disables recording (the log stays queryable, always empty); zero
// records every query.
func NewSlowLog(thresholdMS int64) *SlowLog {
	return &SlowLog{thresholdMS: thresholdMS, capacity: slowLogCapacity}
}

// ThresholdMS returns the configured threshold (-1 for a nil log).
func (l *SlowLog) ThresholdMS() int64 {
	if l == nil {
		return -1
	}
	return l.thresholdMS
}

// Record adds e when it meets the threshold, evicting the oldest entry
// past capacity.
func (l *SlowLog) Record(e SlowEntry) {
	if l == nil || l.thresholdMS < 0 || e.DurationMS < float64(l.thresholdMS) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	if len(l.ring) < l.capacity {
		l.ring = append(l.ring, e)
		l.next = len(l.ring) % l.capacity
		return
	}
	l.ring[l.next] = e
	l.next = (l.next + 1) % l.capacity
}

// Snapshot returns the retained entries newest-first plus the total
// number of slow queries ever recorded (including evicted ones).
func (l *SlowLog) Snapshot() ([]SlowEntry, uint64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, len(l.ring))
	for i := 0; i < len(l.ring); i++ {
		// walk backwards from the slot before next, wrapping
		idx := (l.next - 1 - i + 2*len(l.ring)) % len(l.ring)
		out = append(out, l.ring[idx])
	}
	return out, l.total
}
