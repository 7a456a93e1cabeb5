package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aiql/aiql/internal/service"
)

// collector plays a feed into one dataset: it registers the standing
// queries, subscribes to each over SSE, posts the batches on schedule
// and notes when each batch was acknowledged and when the match its
// planted event causes reached the subscriber.
type collector struct {
	srv     *server
	dataset string
	feed    *feed

	epoch time.Time
	// due, sent, acked and matched are offsets from epoch in
	// nanoseconds, one per batch; 0 = not yet.
	due     []int64
	sent    []int64
	acked   []int64
	matched []atomic.Int64
	errs    []error

	eventsBefore int
	subs         sync.WaitGroup
	stopSubs     context.CancelFunc
}

// newCollector registers the feed's standing queries on dataset and
// attaches one SSE subscriber to each. It returns once every subscriber
// is connected, so no match can be missed.
func newCollector(ctx context.Context, srv *server, dataset string, f *feed, hosts int) (*collector, error) {
	n := len(f.bodies)
	c := &collector{srv: srv, dataset: dataset, feed: f, epoch: time.Now(),
		due: make([]int64, n), sent: make([]int64, n), acked: make([]int64, n),
		matched: make([]atomic.Int64, n), errs: make([]error, n)}
	st, err := srv.stats(ctx, dataset)
	if err != nil {
		return nil, err
	}
	c.eventsBefore = st.Store.Events
	subCtx, cancel := context.WithCancel(ctx)
	c.stopSubs = cancel
	for k := 0; k < f.col.watches; k++ {
		body, _ := json.Marshal(service.WatchRequest{Query: watchQuery(k, hosts), Dataset: dataset})
		var cp capture
		cp.reset(1)
		if err := srv.post(ctx, &cp, "bench-setup", "/api/v1/watch", body); err != nil {
			c.stop()
			return nil, err
		}
		var info service.WatchInfo
		if err := json.Unmarshal(cp.buf, &info); err != nil || cp.code != http.StatusOK {
			c.stop()
			return nil, fmt.Errorf("watch %d: status %d: %s", k, cp.code, cp.buf)
		}
		sink := &sseSink{c: c, ready: make(chan struct{})}
		req, err := http.NewRequestWithContext(subCtx, http.MethodGet,
			"http://bench/api/v1/watch/"+info.WatchID+"/events?dataset="+dataset, nil)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.subs.Add(1)
		go func() {
			defer c.subs.Done()
			srv.handler.ServeHTTP(sink, req)
			sink.readyOnce.Do(func() { close(sink.ready) })
		}()
		select {
		case <-sink.ready:
		case <-ctx.Done():
			c.stop()
			return nil, ctx.Err()
		}
		if sink.code != http.StatusOK {
			c.stop()
			return nil, fmt.Errorf("subscribe %s: status %d", info.WatchID, sink.code)
		}
	}
	return c, nil
}

// stop disconnects the subscribers and waits for their handlers to return.
func (c *collector) stop() {
	c.stopSubs()
	c.subs.Wait()
}

// sseSink is the ResponseWriter of one SSE subscription.
type sseSink struct {
	c         *collector
	hdr       http.Header
	code      int
	ready     chan struct{}
	readyOnce sync.Once
}

func (s *sseSink) Header() http.Header {
	if s.hdr == nil {
		s.hdr = http.Header{}
	}
	return s.hdr
}
func (s *sseSink) WriteHeader(code int) { s.code = code }
func (s *sseSink) Flush()               {}

var (
	sseMatch  = []byte("event: match")
	batchMark = []byte("batch-")
)

// Write receives one SSE frame per call. A match frame's rows name the
// batches whose planted events caused them.
func (s *sseSink) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	s.readyOnce.Do(func() { close(s.ready) })
	if bytes.HasPrefix(p, sseMatch) {
		now := int64(time.Since(s.c.epoch))
		for rest := p; ; {
			i := bytes.Index(rest, batchMark)
			if i < 0 {
				break
			}
			rest = rest[i+len(batchMark):]
			b := 0
			for len(rest) > 0 && rest[0] >= '0' && rest[0] <= '9' {
				b, rest = b*10+int(rest[0]-'0'), rest[1:]
			}
			if b < len(s.c.matched) {
				s.c.matched[b].CompareAndSwap(0, now)
			}
		}
	}
	return len(p), nil
}

// run posts batches [from, to) and returns when the last is
// acknowledged. With a positive rate batch i is due at
// start + (i-from)/rate and is timed from then, however late the
// generator or an earlier acknowledgement made it; with rate 0 batches
// go back to back and are due when sent.
func (c *collector) run(ctx context.Context, start time.Time, from, to int) {
	var cp capture
	for i := from; i < to && ctx.Err() == nil; i++ {
		if c.feed.col.rate > 0 {
			due := start.Add(time.Duration(i-from) * time.Second / time.Duration(c.feed.col.rate))
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			c.due[i] = int64(due.Sub(c.epoch))
			c.sent[i] = int64(time.Since(c.epoch))
		} else {
			c.sent[i] = int64(time.Since(c.epoch))
			c.due[i] = c.sent[i]
		}
		c.errs[i] = c.ingest(ctx, &cp, i)
		c.acked[i] = int64(time.Since(c.epoch))
	}
}

func (c *collector) ingest(ctx context.Context, cp *capture, i int) error {
	cp.reset(1)
	if err := c.srv.post(ctx, cp, "bench-collector", "/api/v1/ingest?dataset="+c.dataset, c.feed.bodies[i]); err != nil {
		return err
	}
	var res service.IngestResult
	if err := json.Unmarshal(cp.buf, &res); err != nil || cp.code != http.StatusOK {
		return fmt.Errorf("ingest batch %d: status %d: %s", i, cp.code, bytes.TrimSpace(cp.buf))
	}
	if res.Ingested != len(c.feed.records[i]) {
		return fmt.Errorf("ingest batch %d: %d of %d events committed", i, res.Ingested, len(c.feed.records[i]))
	}
	return nil
}

// collected is what a collector measured over batches [from, to).
type collected struct {
	ackMS, lagMS, lateMS sample
	batches, events      int
	failed               int
	firstErr             error
	elapsed              time.Duration // first due time to last acknowledgement
}

// settle waits for the matches of every acknowledged batch to arrive
// (they are offered to subscribers before the acknowledgement; only the
// SSE goroutine's write is outstanding).
func (c *collector) settle(ctx context.Context) {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		missing := false
		for i := range c.acked {
			if c.errs[i] == nil && c.acked[i] != 0 && c.matched[i].Load() == 0 {
				missing = true
				break
			}
		}
		if !missing {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// measure summarises batches [from, to). A batch that failed, or whose
// match never arrived, counts as failed and contributes no latency.
func (c *collector) measure(from, to int) collected {
	var m collected
	var last int64
	for i := from; i < to; i++ {
		if c.acked[i] == 0 {
			continue // never attempted: the run was stopped
		}
		m.batches++
		lag := c.matched[i].Load()
		switch {
		case c.errs[i] != nil:
			m.failed++
			if m.firstErr == nil {
				m.firstErr = c.errs[i]
			}
			continue
		case lag == 0:
			m.failed++
			if m.firstErr == nil {
				m.firstErr = fmt.Errorf("batch %d: no standing-query match arrived", i)
			}
		default:
			m.lagMS = append(m.lagMS, float64(lag-c.due[i])/1e6)
		}
		m.events += len(c.feed.records[i])
		m.ackMS = append(m.ackMS, float64(c.acked[i]-c.due[i])/1e6)
		m.lateMS = append(m.lateMS, float64(c.sent[i]-c.due[i])/1e6)
		last = max(last, c.acked[i])
	}
	if m.batches > 0 {
		m.elapsed = time.Duration(last - c.due[from])
	}
	return m
}

// audit checks the end state: the store grew by exactly the
// acknowledged events, every planted trigger matched once, and no
// subscriber buffer overflowed.
func (c *collector) audit(ctx context.Context) error {
	st, err := c.srv.stats(ctx, c.dataset)
	if err != nil {
		return err
	}
	acked, batches := 0, 0
	for i := range c.acked {
		if c.acked[i] != 0 && c.errs[i] == nil {
			acked += len(c.feed.records[i])
			batches++
		}
	}
	if got := st.Store.Events - c.eventsBefore; got != acked {
		return fmt.Errorf("%s grew by %d events, %d were acknowledged", c.dataset, got, acked)
	}
	if st.Watch.Dropped != 0 {
		return fmt.Errorf("%s: %d standing-query matches dropped", c.dataset, st.Watch.Dropped)
	}
	if int(st.Watch.Matches) != batches {
		return fmt.Errorf("%s: %d standing-query matches, %d triggers planted", c.dataset, st.Watch.Matches, batches)
	}
	return nil
}
