package eventstore

import (
	"fmt"
	"sync"
	"testing"

	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/sysmon"
)

// crashPlan is a fault injector that lets the first `at` durable writes
// through, then fails or tears write number `at` and fails every one
// after it — the disk as a process sees it when it crashes there. It
// also counts the writes and records which sites it saw.
type crashPlan struct {
	at   int // -1: never fault
	mode durable.Fault

	mu      sync.Mutex
	ops     int
	crashed bool
	reached *[durable.NumIOSites]bool
}

func (p *crashPlan) decide(site durable.IOSite) durable.Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reached[site] = true
	n := p.ops
	p.ops++
	switch {
	case p.crashed:
		return durable.FailOp
	case n == p.at:
		p.crashed = true
		return p.mode
	}
	return durable.NoFault
}

// crashOutcome is what a workload run was told: the events of every
// AppendAll that returned nil (acknowledged) and of every one that
// failed, keyed by their Amount, which is unique per appended event,
// and the merges its Compact call made.
type crashOutcome struct {
	acked, failed map[uint64]bool
	passes        int
}

// crashWorkload drives one durable store through every kind of write
// the directory sees: acknowledged group commits under SyncWAL, seals
// of three chunks at once whose segment files are written in parallel,
// the first full manifest edition, delta appends, a Compact call whose
// three merges share one full manifest edition, delta-log removal, WAL
// truncation and retired-file deletion, and a tail left in the WAL at
// Close. Faults make calls fail; the workload carries on regardless, as
// a caller would until the process dies.
func crashWorkload(dir string) crashOutcome {
	out := crashOutcome{acked: map[uint64]bool{}, failed: map[uint64]bool{}}
	opts := durableOpts(dir)
	s, err := Open(opts)
	if err != nil {
		return out
	}
	appendBatch := func(k int) {
		recs := make([]Record, 6)
		for i := range recs {
			recs[i] = mkRecord(uint32(1+i%3), fmt.Sprintf("exe%d", i%3), sysmon.OpWrite, fmt.Sprintf("f%d.txt", k), k*10+i)
			recs[i].Amount = uint64(k*100 + i + 1)
		}
		to := out.acked
		if s.AppendAll(recs) != nil {
			to = out.failed
		}
		for i := range recs {
			to[recs[i].Amount] = true
		}
	}
	appendBatch(0)
	s.Flush() // seals three chunks; the first edition is a full manifest
	appendBatch(1)
	s.Flush() // a MANIFEST.delta frame
	appendBatch(2)
	s.Flush() // another delta frame
	out.passes = s.Compact().Passes
	appendBatch(3) // stays in the WAL
	s.Close()
	return out
}

// TestCrashPointSweep fails, then tears, every durable write of the
// workload in turn, each followed by a crash (every later write fails).
// Every run must reopen with the real filesystem, without a panic or
// an error, to exactly the acknowledged events: all of them, none
// twice, and nothing else but events of a failed AppendAll — whose
// records a failed fsync may or may not have left on disk. Across the
// sweep every declared write site must have been reached, so a new
// call site cannot hide from it.
func TestCrashPointSweep(t *testing.T) {
	var reached [durable.NumIOSites]bool
	run := func(at int, mode durable.Fault) (crashOutcome, int) {
		dir := t.TempDir()
		plan := &crashPlan{at: at, mode: mode, reached: &reached}
		restore := durable.InjectFaults(plan.decide)
		out := crashWorkload(dir)
		restore()

		// Reopen on the real filesystem, still noting the sites that
		// recovery itself writes through (torn-tail truncation, orphan
		// removal).
		observe := &crashPlan{at: -1, reached: &reached}
		defer durable.InjectFaults(observe.decide)()
		s, err := small(Open(durableOpts(dir)))
		if err != nil {
			t.Fatalf("op %d %v: reopen: %v", at, mode, err)
		}
		defer s.Close()
		seen := map[uint64]bool{}
		for _, ev := range collect(s, &EventFilter{}) {
			switch {
			case seen[ev.Amount]:
				t.Fatalf("op %d %v: event %d recovered twice", at, mode, ev.Amount)
			case !out.acked[ev.Amount] && !out.failed[ev.Amount]:
				t.Fatalf("op %d %v: recovered event %d was never appended", at, mode, ev.Amount)
			}
			seen[ev.Amount] = true
		}
		for a := range out.acked {
			if !seen[a] {
				t.Fatalf("op %d %v: acknowledged event %d lost (%d acknowledged, %d recovered)",
					at, mode, a, len(out.acked), len(seen))
			}
		}
		return out, plan.ops
	}

	clean, total := run(-1, durable.NoFault)
	t.Logf("workload issues %d durable writes", total)
	if len(clean.acked) != 24 || len(clean.failed) != 0 || clean.passes != 3 {
		t.Fatalf("fault-free run acknowledged %d events, failed %d, compacted in %d passes; want 24, 0, 3",
			len(clean.acked), len(clean.failed), clean.passes)
	}
	for _, mode := range []durable.Fault{durable.FailOp, durable.TearOp} {
		for at := 0; at < total; at++ {
			run(at, mode)
		}
	}
	for site, ok := range reached {
		if !ok {
			t.Errorf("sweep of %d ops never reached durable write site %v", total, durable.IOSite(site))
		}
	}
}
