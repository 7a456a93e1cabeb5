package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/sysmon"
)

// countdownCtx is a context whose Err starts failing after a fixed number
// of Err calls, making mid-scan cancellation deterministic: the test
// controls exactly how many cancellation checkpoints pass before the
// abort, independent of machine speed.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(allowChecks int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(allowChecks)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// buildWideStore commits n read/write file events spread over many agents
// and time buckets, so scans cross many partitions.
func buildWideStore(t testing.TB, n int) *eventstore.Store {
	t.Helper()
	s := eventstore.New(eventstore.DefaultOptions())
	recs := make([]eventstore.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, eventstore.Record{
			AgentID: uint32(1 + i%8),
			Subject: proc("worker.exe"),
			Op:      sysmon.OpWrite,
			ObjType: sysmon.EntityFile,
			ObjFile: sysmon.File{Path: fmt.Sprintf(`C:\data\out%d.log`, i)},
			StartTS: ts(i / 50),
			Amount:  uint64(i),
		})
	}
	s.AppendAll(recs)
	s.Flush()
	return s
}

const wideQuery = `proc p write file f as evt return p, f`

func TestExecuteCancellation(t *testing.T) {
	store := buildWideStore(t, 60000)
	total := int64(store.Len())

	t.Run("already cancelled context returns promptly without scanning", func(t *testing.T) {
		for _, cfg := range []Config{{}, {ScanWorkers: 1}} {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start := time.Now()
			res, err := NewWithConfig(store, cfg).Execute(ctx, wideQuery)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cfg %+v: want context.Canceled, got %v", cfg, err)
			}
			if res == nil {
				t.Fatalf("cfg %+v: want partial result with stats, got nil", cfg)
			}
			if res.Stats.ScannedEvents != 0 {
				t.Errorf("cfg %+v: scanned %d events under a pre-cancelled context, want 0", cfg, res.Stats.ScannedEvents)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("cfg %+v: pre-cancelled query took %s, want prompt return", cfg, elapsed)
			}
		}
	})

	t.Run("expired deadline returns deadline error without scanning", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
		defer cancel()
		res, err := New(store).Execute(ctx, wideQuery)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want context.DeadlineExceeded, got %v", err)
		}
		if res.Stats.ScannedEvents != 0 {
			t.Errorf("scanned %d events under an expired deadline, want 0", res.Stats.ScannedEvents)
		}
	})

	t.Run("mid-scan cancellation aborts before visiting every event", func(t *testing.T) {
		for _, cfg := range []Config{{}, {ScanWorkers: 1}} {
			ctx := newCountdownCtx(4)
			res, err := NewWithConfig(store, cfg).Execute(ctx, wideQuery)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cfg %+v: want context.Canceled, got %v", cfg, err)
			}
			if res.Stats.ScannedEvents == 0 {
				t.Errorf("cfg %+v: expected some events visited before the abort", cfg)
			}
			if res.Stats.ScannedEvents >= total {
				t.Errorf("cfg %+v: visited %d of %d events despite mid-scan cancellation", cfg, res.Stats.ScannedEvents, total)
			}
		}
	})

	t.Run("anomaly scan honors cancellation", func(t *testing.T) {
		ctx := newCountdownCtx(4)
		res, err := New(store).Execute(ctx, `window = 1 min, step = 1 min
proc p write file f as evt
return p, count(evt) as c
group by p
having c > 0`)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if res.Stats.ScannedEvents >= total {
			t.Errorf("visited %d of %d events despite mid-scan cancellation", res.Stats.ScannedEvents, total)
		}
	})

	t.Run("uncancelled context still returns full results", func(t *testing.T) {
		res, err := New(store).Execute(context.Background(), wideQuery)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if int64(len(res.Rows)) != total {
			t.Fatalf("got %d rows, want %d", len(res.Rows), total)
		}
	})
}
