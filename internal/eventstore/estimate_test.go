package eventstore

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/aiql/aiql/internal/sysmon"
)

// referenceEstimate is the estimator as it was before the probe loop was
// inverted: every ID of the candidate set is looked up in the segment's
// posting map, hit or not. The inverted loop must return the same number
// for every unit — the planner orders patterns by these sums, so a
// different number could reorder a plan.
func referenceEstimate(g *Segment, f *EventFilter) int {
	lo, hi := g.timeSliceIdx(f.From, f.To)
	n := hi - lo
	if n <= 0 {
		return 0
	}
	if len(f.Ops) > 0 {
		opN := 0
		for _, op := range f.Ops {
			opN += g.opCount[op]
		}
		n = min(n, opN)
	}
	clamp := func(postings map[sysmon.EntityID][]int32, set *IDSet) int {
		total := 0
		for _, id := range set.IDs() {
			list := postings[id]
			list = list[sort.Search(len(list), func(i int) bool { return int(list[i]) >= lo }):]
			list = list[:sort.Search(len(list), func(i int) bool { return int(list[i]) >= hi })]
			total += len(list)
		}
		return total
	}
	if f.Subjects != nil {
		n = min(n, clamp(g.postingSub, f.Subjects))
	}
	if f.Objects != nil {
		n = min(n, clamp(g.postingObj, f.Objects))
	}
	return n
}

// TestEstimateProbesBoundedBySegmentSide builds the shape that made
// planning the dominant cost of a hunt — a wide candidate set (2000
// processes) against many small segments (520, 25 distinct subjects
// each) — and asserts both halves of the fix: the probes an estimate
// makes are bounded by the smaller of the set and each segment's posting
// map, and every unit's estimate is the one the set-side loop computed.
func TestEstimateProbesBoundedBySegmentSide(t *testing.T) {
	const (
		agents, hours = 52, 10
		perChunk      = 25   // distinct subjects per segment
		pool          = 3000 // processes overall; two in three are cmd.exe
	)
	s := New(DefaultOptions())
	var recs []Record
	chunk := 0
	for a := 1; a <= agents; a++ {
		for h := 0; h < hours; h++ {
			for j := 0; j < 2*perChunk; j++ {
				k := (chunk*perChunk + j%perChunk) % pool
				exe := "svc.exe"
				if k%3 != 0 {
					exe = "cmd.exe"
				}
				op := sysmon.OpWrite
				if j%5 == 0 {
					op = sysmon.OpRead
				}
				recs = append(recs, Record{
					AgentID: uint32(a),
					Subject: sysmon.Process{PID: uint32(1000 + k), ExeName: exe, Path: `C:\Windows\` + exe, User: "u"},
					Op:      op,
					ObjType: sysmon.EntityFile,
					ObjFile: sysmon.File{Path: fmt.Sprintf("/data/%d.txt", j%7)},
					StartTS: base.Add(time.Duration(h)*time.Hour + time.Duration(j)*time.Minute).UnixNano(),
					Amount:  64,
				})
			}
			chunk++
		}
	}
	if err := s.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	s.Flush()

	set := resolveLike(s.Dict(), sysmon.EntityProcess, "exe_name", "%cmd.exe")
	if set.Len() != 2000 {
		t.Fatalf("candidate set has %d processes, want 2000", set.Len())
	}
	// the window cuts every hour's segment: the clamp must agree too
	f := &EventFilter{
		Subjects: set,
		Ops:      []sysmon.Operation{sysmon.OpWrite},
		From:     base.Add(10 * time.Minute).UnixNano(),
		To:       base.Add(9*time.Hour + 40*time.Minute).UnixNano(),
	}
	sn := s.Snapshot()
	units := sn.Units(f)
	if len(units) < 500 {
		t.Fatalf("%d scan units, want >= 500", len(units))
	}
	var bound, probes int64
	total := 0
	for i := range units {
		g := units[i].seg
		g.buildIndexes()
		if len(g.postingSub) > 30 {
			t.Fatalf("segment %d has %d distinct subjects, want <= 30", g.id, len(g.postingSub))
		}
		n, p := units[i].Estimate(f)
		if want := referenceEstimate(g, f); n != want {
			t.Fatalf("unit %d: estimate %d, the set-side loop computed %d", i, n, want)
		}
		total += n
		probes += p
		bound += int64(min(set.Len(), len(g.postingSub)))
	}
	if total == 0 {
		t.Fatal("every estimate is zero: the comparison is vacuous")
	}
	if probes > bound {
		t.Errorf("%d probes, want <= sum of min(|set|, |postings|) = %d", probes, bound)
	}
	if perID := int64(set.Len()) * int64(len(units)); probes*20 > perID {
		t.Errorf("%d probes is not far below probing every ID into every segment (%d)", probes, perID)
	}
	gotTotal, cost := sn.EstimateMatches(f)
	if gotTotal != total || cost.Probes != probes || cost.Units != int64(len(units)) {
		t.Errorf("EstimateMatches = %d, %+v; per-unit sums are %d estimate, %d probes over %d units",
			gotTotal, cost, total, probes, len(units))
	}

	// A set smaller than a segment's posting map is still walked from
	// the set side.
	few := NewIDSet(set.IDs()[:3]...)
	ff := &EventFilter{Subjects: few}
	for i := range units {
		n, p := units[i].Estimate(ff)
		if want := referenceEstimate(units[i].seg, ff); n != want {
			t.Fatalf("unit %d, 3-ID set: estimate %d, want %d", i, n, want)
		}
		if p > 3 {
			t.Fatalf("unit %d, 3-ID set: %d probes", i, p)
		}
	}
}
