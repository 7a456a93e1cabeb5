package eventstore

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/aiql/aiql/internal/sysmon"
)

// batchLayouts are the storage layouts a scan unit can present to the
// batch kernel. Each builds a store holding the same randomized event
// mix — several agents, ops across every family, varied amounts, chunks
// big enough to span more than one 1024-event block — so every filter
// shape is cross-checked over every layout the column view abstracts.
var batchLayouts = []struct {
	name  string
	build func(t *testing.T) *Store
	// columnar layouts must serve every batch scan from the column
	// vectors: no segment may have materialized its AoS array.
	columnar bool
}{
	// Unsealed memtable tails: no key column (packed per block), and the
	// second batch lands out of order, so the tails are merge products.
	{"memtable", func(t *testing.T) *Store {
		s := New(DefaultOptions())
		addBatchEvents(s, 11, 8000)
		addBatchEvents(s, 12, 4000)
		if s.NumSegments() != 0 {
			t.Fatalf("memtable layout sealed %d segments", s.NumSegments())
		}
		return s
	}, false},
	// Freshly sealed segments: AoS on the heap plus a built key column.
	{"heap", func(t *testing.T) *Store {
		s := New(DefaultOptions())
		addBatchEvents(s, 11, 8000)
		addBatchEvents(s, 12, 4000)
		s.Flush()
		return s
	}, false},
	// Reopened v2 segment files: mmap'd column vectors (the pread
	// fallback under -tags aiql_nommap), never materialized.
	{"reopened", func(t *testing.T) *Store {
		opts := DefaultOptions()
		opts.Dir = t.TempDir()
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		addBatchEvents(s, 11, 8000)
		addBatchEvents(s, 12, 4000)
		s.Flush()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}, true},
}

// addBatchEvents commits n randomized events spread over two hours, so
// four agents yield eight chunks of well over a block each.
func addBatchEvents(s *Store, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	exes := []string{"bash", "vim", "curl", "python", "sshd"}
	ops := []sysmon.Operation{
		sysmon.OpStart, sysmon.OpRead, sysmon.OpWrite, sysmon.OpDelete,
		sysmon.OpConnect, sysmon.OpSend,
	}
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		r := mkRecord(uint32(1+rng.Intn(4)), exes[rng.Intn(len(exes))],
			ops[rng.Intn(len(ops))], "obj.txt", rng.Intn(120))
		r.Amount = uint64(rng.Intn(200))
		recs = append(recs, r)
	}
	s.AppendAll(recs)
}

// project zeroes the maskable fields of ev that cols leaves out.
func project(ev sysmon.Event, cols ColMask) sysmon.Event {
	if cols&ColID == 0 {
		ev.ID = 0
	}
	if cols&ColSubject == 0 {
		ev.Subject = 0
	}
	if cols&ColObject == 0 {
		ev.Object = 0
	}
	if cols&ColEndTS == 0 {
		ev.EndTS = 0
	}
	if cols&ColAmount == 0 {
		ev.Amount = 0
	}
	if cols&ColSeq == 0 {
		ev.Seq = 0
	}
	return ev
}

// TestCollectBatchMatchesScan cross-checks the batch kernel — dense
// masked compare over the packed key column, residual probes through
// the column view, posting-list path, column-pruned gather — against the
// row-at-a-time Scan reference for every filter shape and column demand
// over every storage layout. Any divergence in membership or order, or
// in a demanded field, is a correctness bug in the vectorized path; a
// column-backed unit must moreover leave every field nobody asked for
// at zero — proof that its column was not read.
func TestCollectBatchMatchesScan(t *testing.T) {
	from := base.Add(25 * time.Minute).UnixNano()
	to := base.Add(95 * time.Minute).UnixNano()
	// Each keep comes with the columns it reads: they are part of any
	// demand it runs under.
	keeps := []struct {
		fn   func(*sysmon.Event) bool
		cols ColMask
	}{
		{nil, 0},
		{func(ev *sysmon.Event) bool { return ev.Amount%2 == 0 }, ColAmount},
	}
	masks := []ColMask{ColAll, 0, ColSubject | ColObject | ColAmount, ColID, ColObject | ColEndTS | ColSeq}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		masks = append(masks, ColMask(rng.Intn(int(ColAll)+1)))
	}
	for _, layout := range batchLayouts {
		t.Run(layout.name, func(t *testing.T) {
			s := layout.build(t)
			bash := resolveLike(s.Dict(), sysmon.EntityProcess, "exe_name", "bash")
			objs := resolveLike(s.Dict(), sysmon.EntityFile, "name", "%obj.txt")
			// Past 512 members no posting list applies, so a widened set
			// is probed per survivor on the dense path — on sealed
			// segments too.
			widen := func(set *IDSet) *IDSet {
				ids := slices.Clone(set.IDs())
				for i := 0; i < 600; i++ {
					ids = append(ids, sysmon.EntityID(1<<30+i))
				}
				return NewIDSet(ids...)
			}
			filters := []*EventFilter{
				{},
				{Agents: []uint32{2}},    // single agent: folded into the dense mask
				{Agents: []uint32{1, 3}}, // agent set: residual probe
				{Ops: []sysmon.Operation{sysmon.OpDelete}},               // single op: dense mask
				{Ops: []sysmon.Operation{sysmon.OpRead, sysmon.OpWrite}}, // op set: dense re-test
				{ObjType: sysmon.EntityFile},
				{MinAmount: 120},
				{From: from, To: to},
				{Agents: []uint32{2}, Ops: []sysmon.Operation{sysmon.OpWrite}, ObjType: sysmon.EntityFile},
				{Agents: []uint32{1, 4}, Ops: []sysmon.Operation{sysmon.OpSend, sysmon.OpConnect}, MinAmount: 40, From: from},
				{Subjects: bash}, // posting-list path on indexed segments
				{Subjects: bash, From: from, To: to},
				{Subjects: bash, Objects: objs, Ops: []sysmon.Operation{sysmon.OpRead, sysmon.OpWrite}, MinAmount: 60},
				{Subjects: widen(bash), Ops: []sysmon.Operation{sysmon.OpWrite}},
				{Objects: widen(objs), Agents: []uint32{2, 3}, MinAmount: 30},
				{Objects: NewIDSet()}, // empty set: must match nothing
			}
			// The Scan reference materializes reader-backed segments, so
			// every batch collect runs before the first reference scan.
			type result struct {
				events  []sysmon.Event
				visited int64
			}
			var got []result
			for fi, f := range filters {
				cf := f.Compile()
				for ki, keep := range keeps {
					for mi, mask := range masks {
						var r result
						units := s.Snapshot().Units(f)
						for i := range units {
							batch, v, err := units[i].CollectBatchInto(context.Background(), cf, keep.fn, mask|keep.cols, nil)
							if err != nil {
								t.Fatalf("filter %d keep %d mask %d: batch collect: %v", fi, ki, mi, err)
							}
							r.events = append(r.events, batch...)
							r.visited += v
							if layout.columnar && (!units[i].Sealed() || !units[i].seg.fileBacked()) {
								t.Fatalf("filter %d keep %d mask %d: unit %d (segment %d) is not column-backed", fi, ki, mi, i, units[i].SegmentID())
							}
						}
						got = append(got, r)
					}
				}
			}
			matched := 0
			for fi, f := range filters {
				// what the posting path may have fetched to re-check the filter
				var filterCols ColMask
				if f.Subjects != nil {
					filterCols |= ColSubject
				}
				if f.Objects != nil {
					filterCols |= ColObject
				}
				if f.MinAmount != 0 {
					filterCols |= ColAmount
				}
				for ki, keep := range keeps {
					var want []sysmon.Event
					units := s.Snapshot().Units(f)
					for i := range units {
						units[i].Scan(f, func(ev *sysmon.Event) bool {
							if keep.fn == nil || keep.fn(ev) {
								want = append(want, *ev)
							}
							return true
						})
					}
					for mi, mask := range masks {
						cols := mask | keep.cols
						r := got[(fi*len(keeps)+ki)*len(masks)+mi]
						if len(r.events) != len(want) {
							t.Fatalf("filter %d keep %d mask %#x: batch path found %d events, scan found %d", fi, ki, cols, len(r.events), len(want))
						}
						for j := range want {
							if project(r.events[j], cols) != project(want[j], cols) {
								t.Fatalf("filter %d keep %d mask %#x: event %d differs in a demanded field:\nbatch %+v\nscan  %+v", fi, ki, cols, j, r.events[j], want[j])
							}
							if layout.columnar && project(r.events[j], cols|filterCols) != r.events[j] {
								t.Fatalf("filter %d keep %d mask %#x: event %d carries an undemanded field: %+v", fi, ki, cols, j, r.events[j])
							}
						}
						if r.visited < int64(len(want)) {
							t.Errorf("filter %d keep %d mask %#x: visited %d < matched %d", fi, ki, cols, r.visited, len(want))
						}
					}
					matched += len(want)
				}
			}
			if matched == 0 {
				t.Fatal("no filter matched anything: the cross-check compared empty results")
			}
		})
	}
}

// TestCollectBatchDecodesOnlyDemandedColumns pins what column pruning
// is for: on a cold reopened store a scan fetches exactly one block per
// demanded column for every block of its time slice — every fetch is a
// block-cache miss — and nothing for the columns nobody asked for.
func TestCollectBatchDecodesOnlyDemandedColumns(t *testing.T) {
	from := base.Add(25 * time.Minute).UnixNano()
	to := base.Add(95 * time.Minute).UnixNano()
	for _, tc := range []struct {
		cols  ColMask
		ncols int
	}{
		{0, 0},
		{ColSubject, 1},
		{ColSubject | ColObject | ColAmount, 3},
		{ColAll, 6},
	} {
		s := batchLayouts[2].build(t) // a fresh reopened store each time: cold block cache
		f := &EventFilter{From: from, To: to}
		cf := f.Compile()
		units := s.Snapshot().Units(f)
		blocks, events := 0, 0
		for i := range units {
			batch, _, err := units[i].CollectBatchInto(context.Background(), cf, nil, tc.cols, nil)
			if err != nil {
				t.Fatal(err)
			}
			events += len(batch)
			if lo, hi := units[i].seg.timeSliceIdx(from, to); hi > lo {
				blocks += (hi-1)/batchBlockEvents - lo/batchBlockEvents + 1
			}
		}
		if events == 0 || blocks < len(units) {
			t.Fatalf("mask %#x: %d events over %d blocks of %d units: the slice is too small to tell", tc.cols, events, blocks, len(units))
		}
		if got, want := s.BlockCacheStats().Misses, uint64(blocks*tc.ncols); got != want {
			t.Errorf("mask %#x: %d blocks fetched, want %d (%d blocks in the slice x %d demanded columns)", tc.cols, got, want, blocks, tc.ncols)
		}
	}
}

// TestCollectBatchIntoReusesBuffer verifies the scratch-reuse contract:
// the returned batch aliases the passed-in buffer when capacity
// suffices, so a sequential walk can recycle one allocation across
// every unit.
func TestCollectBatchIntoReusesBuffer(t *testing.T) {
	s := New(DefaultOptions())
	addBatchEvents(s, 11, 2000)
	s.Flush()
	f := &EventFilter{Ops: []sysmon.Operation{sysmon.OpDelete}}
	cf := f.Compile()
	units := s.Snapshot().Units(f)
	if len(units) == 0 {
		t.Fatal("no scan units")
	}
	buf := make([]sysmon.Event, 0, 4096)
	for i := range units {
		batch, _, err := units[i].CollectBatchInto(context.Background(), cf, nil, ColAll, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) > 0 && cap(batch) <= cap(buf) && &batch[:1][0] != &buf[:1][0] {
			t.Fatalf("unit %d: batch did not reuse the scratch buffer", i)
		}
	}
}

// TestPostingEstimateClampsToTimeSlice pins the estimator fix: a
// narrow time window over an entity with postings spread across the
// whole segment must be charged only for the postings inside the
// window, not the full posting-list length — otherwise the planner
// ranks a cheap windowed pattern as expensive as an unbounded one.
func TestPostingEstimateClampsToTimeSlice(t *testing.T) {
	s := New(DefaultOptions())
	// One agent, one subject, 400 events at one-minute spacing: the
	// subject's posting list in the sealed segment covers everything.
	recs := make([]Record, 0, 400)
	for i := 0; i < 400; i++ {
		recs = append(recs, mkRecord(1, "bash", sysmon.OpWrite, "out.log", i))
	}
	s.AppendAll(recs)
	s.Flush()

	bash := resolveLike(s.Dict(), sysmon.EntityProcess, "exe_name", "bash")
	if bash.Len() != 1 {
		t.Fatalf("expected one interned bash process, got %d", bash.Len())
	}
	from := base.Add(100 * time.Minute).UnixNano()
	to := base.Add(110 * time.Minute).UnixNano()
	f := &EventFilter{Subjects: bash, From: from, To: to}

	actual := 0
	s.Scan(context.Background(), f, func(*sysmon.Event) bool { actual++; return true })
	if actual != 10 {
		t.Fatalf("windowed scan matched %d events, want 10", actual)
	}
	est := s.EstimateMatches(f)
	if est < actual {
		t.Fatalf("estimate %d undercounts actual %d", est, actual)
	}
	// Clamped to the window the bound is exact; pre-fix it was 400.
	if est > 2*actual {
		t.Errorf("estimate %d not clamped to the time slice (actual %d)", est, actual)
	}
}
