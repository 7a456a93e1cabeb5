package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Trace is one query's span tree. The service creates a trace per
// execution and threads its root span through the engine via context;
// the engine hangs parse/plan/scan/join spans off it. All mutation is
// guarded by one per-trace mutex — span fan-out within a query is a
// handful of nodes, so a single lock is cheaper than per-span state.
type Trace struct {
	mu    sync.Mutex
	start time.Time
	root  *Span
}

// Span is one timed region of a trace with integer attributes. The nil
// Span is valid: every method no-ops, so untraced executions pay one
// context lookup and nothing else.
type Span struct {
	t        *Trace
	name     string
	start    time.Time
	end      time.Time
	attrs    []spanAttr
	children []*Span
}

type spanAttr struct {
	key string
	val int64
}

// NewTrace starts a trace whose root span is named name.
func NewTrace(name string) *Trace {
	t := &Trace{start: time.Now()}
	t.root = &Span{t: t, name: name, start: t.start}
	return t
}

// Root returns the trace's root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Child starts a sub-span of s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{t: s.t, name: name, start: time.Now()}
	s.t.mu.Lock()
	s.children = append(s.children, c)
	s.t.mu.Unlock()
	return c
}

// End marks the span finished. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	s.t.mu.Unlock()
}

// SetInt records (or replaces) an integer attribute on the span.
func (s *Span) SetInt(key string, v int64) { s.updateInt(key, v, false) }

// AddInt adds v to an integer attribute of the span (absent reads as
// 0): a count that several executions under one span contribute to,
// such as the member cursors of an in-process scatter-gather query.
func (s *Span) AddInt(key string, v int64) { s.updateInt(key, v, true) }

func (s *Span) updateInt(key string, v int64, add bool) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			if add {
				v += s.attrs[i].val
			}
			s.attrs[i].val = v
			return
		}
	}
	s.attrs = append(s.attrs, spanAttr{key, v})
}

type spanCtxKey struct{}

// WithSpan returns ctx carrying s as the current span. A nil span
// returns ctx unchanged, so "tracing off" is the absence of the key.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the current span, or nil when ctx carries
// none — the engine's single branch point between traced and untraced
// execution.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// SpanNode is the wire form of one finished span: offsets and
// durations in microseconds from the trace start, EXPLAIN ANALYZE
// style.
type SpanNode struct {
	Name       string           `json:"name"`
	StartUS    int64            `json:"start_us"`
	DurationUS int64            `json:"duration_us"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
	Children   []*SpanNode      `json:"children,omitempty"`
}

// Tree snapshots the trace as a SpanNode tree. Spans not yet ended are
// reported as running up to the snapshot instant.
func (t *Trace) Tree() *SpanNode {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.node(t.root, now)
}

func (t *Trace) node(s *Span, now time.Time) *SpanNode {
	end := s.end
	if end.IsZero() {
		end = now
	}
	n := &SpanNode{
		Name:       s.name,
		StartUS:    s.start.Sub(t.start).Microseconds(),
		DurationUS: end.Sub(s.start).Microseconds(),
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]int64, len(s.attrs))
		for _, a := range s.attrs {
			n.Attrs[a.key] = a.val
		}
	}
	for _, c := range s.children {
		n.Children = append(n.Children, t.node(c, now))
	}
	return n
}

// SpanSummary is one flattened span in a slow-query log entry.
type SpanSummary struct {
	Name       string           `json:"name"`
	DurationUS int64            `json:"duration_us"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
}

// TopSpans flattens a span tree (root excluded — its duration is the
// whole query) and returns the n longest spans, longest first.
func TopSpans(root *SpanNode, n int) []SpanSummary {
	if root == nil || n <= 0 {
		return nil
	}
	var all []SpanSummary
	var walk func(*SpanNode)
	walk = func(sn *SpanNode) {
		for _, c := range sn.Children {
			all = append(all, SpanSummary{Name: c.Name, DurationUS: c.DurationUS, Attrs: c.Attrs})
			walk(c)
		}
	}
	walk(root)
	sort.SliceStable(all, func(i, j int) bool { return all[i].DurationUS > all[j].DurationUS })
	if len(all) > n {
		all = all[:n]
	}
	return all
}
