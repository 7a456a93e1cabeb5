package eventstore

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/aiql/aiql/internal/like"
	"github.com/aiql/aiql/internal/sysmon"
)

// resolveLike resolves a LIKE filter over the whole entity table.
func resolveLike(d *Dictionary, t sysmon.EntityType, attr, pattern string) *IDSet {
	set, _ := d.ResolveEntities(t, attr, &AttrFilter{Pattern: like.Compile(pattern)}, nil, 0)
	return set
}

// resolveFilters covers every kind of attribute filter: LIKE, exact =,
// != and numeric comparisons.
var resolveFilters = []struct {
	name string
	typ  sysmon.EntityType
	attr string
	f    AttrFilter
}{
	{"like", sysmon.EntityProcess, "exe_name", AttrFilter{Pattern: like.Compile("%WORKER-1%")}},
	{"like-underscore", sysmon.EntityFile, "name", AttrFilter{Pattern: like.Compile(`c:\data\_3%`)}},
	{"equal", sysmon.EntityProcess, "exe_name", AttrFilter{Pattern: like.Compile("Worker-7.EXE")}},
	{"not-equal", sysmon.EntityFile, "name", AttrFilter{Pattern: like.Compile(`%\a5%`), Negate: true}},
	{"numeric-ge", sysmon.EntityProcess, "pid", AttrFilter{Op: NumGE, Num: 1100}},
	{"numeric-ne", sysmon.EntityNetconn, "dst_port", AttrFilter{Op: NumNE, Num: 443}},
	{"numeric-eq", sysmon.EntityNetconn, "dstip", AttrFilter{Op: NumEQ, Num: 7}}, // never parses
}

// resolveBatch is commit k's records: every one interns a new process,
// and each alternates between a new file and a new connection.
func resolveBatch(k int) []Record {
	recs := make([]Record, 0, 8)
	for j := 0; j < 8; j++ {
		i := k*8 + j
		r := Record{
			AgentID: uint32(1 + i%3),
			Subject: sysmon.Process{PID: uint32(1000 + i), ExeName: fmt.Sprintf("Worker-%d.exe", i%13), User: "u"},
			StartTS: int64(i+1) * 1e9,
		}
		if i%2 == 0 {
			r.Op, r.ObjType = sysmon.OpWrite, sysmon.EntityFile
			r.ObjFile = sysmon.File{Path: fmt.Sprintf(`C:\Data\%c%d.log`, 'A'+rune(i%7), i)}
		} else {
			r.Op, r.ObjType = sysmon.OpConnect, sysmon.EntityNetconn
			r.ObjConn = sysmon.Netconn{SrcIP: "10.0.0.1", SrcPort: uint16(i), DstIP: "203.0.113.9", DstPort: uint16(440 + i%5), Protocol: "tcp"}
		}
		recs = append(recs, r)
	}
	return recs
}

// wantResolved is the reference resolution over IDs 1..upto: every
// entity's attribute value tested one by one.
func wantResolved(d *Dictionary, t sysmon.EntityType, attr string, f *AttrFilter, upto int) []sysmon.EntityID {
	var out []sysmon.EntityID
	for i := 1; i <= upto; i++ {
		if f.match(d.Attr(t, sysmon.EntityID(i), attr)) {
			out = append(out, sysmon.EntityID(i))
		}
	}
	return out
}

// TestResolveEntitiesIncrementalMatchesScratch: after each of k commits
// that intern entities, a resolution extended over only the new IDs
// equals one from scratch, for every filter kind, on a memtable-only, a
// sealed and a reopened store, while the commits race the resolution.
// Every earlier version of a set is read concurrently with its
// extensions and keeps exactly the members it had.
func TestResolveEntitiesIncrementalMatchesScratch(t *testing.T) {
	for _, layout := range []string{"memtable", "sealed", "reopened"} {
		t.Run(layout, func(t *testing.T) {
			var s *Store
			switch layout {
			case "memtable":
				s = New(DefaultOptions())
				if err := s.AppendAll(resolveBatch(0)); err != nil {
					t.Fatal(err)
				}
			case "sealed":
				s = New(DefaultOptions())
				if err := s.AppendAll(resolveBatch(0)); err != nil {
					t.Fatal(err)
				}
				s.Flush()
			case "reopened":
				dir := t.TempDir()
				first, err := small(Open(durableOpts(dir)))
				if err != nil {
					t.Fatal(err)
				}
				if err := first.AppendAll(resolveBatch(0)); err != nil {
					t.Fatal(err)
				}
				if err := first.Close(); err != nil {
					t.Fatal(err)
				}
				if s, err = small(Open(durableOpts(dir))); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
			}
			d := s.Dict()

			const commits = 24
			writerDone := make(chan struct{})
			go func() {
				defer close(writerDone)
				for k := 1; k <= commits; k++ {
					if err := s.AppendAll(resolveBatch(k)); err != nil {
						t.Error(err)
						return
					}
					if layout != "memtable" {
						s.Flush()
					}
				}
			}()

			// readers of every published version, racing the extensions
			type version struct {
				set  *IDSet
				want []sysmon.EntityID
			}
			var (
				mu        sync.Mutex
				published []version
				stop      = make(chan struct{})
				readers   sync.WaitGroup
			)
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					mu.Lock()
					vs := slices.Clone(published)
					mu.Unlock()
					for _, v := range vs {
						if !slices.Equal(v.set.IDs(), v.want) {
							t.Errorf("a published version changed: %v, want %v", v.set.IDs(), v.want)
							return
						}
						for _, id := range v.want {
							if !v.set.Has(id) || v.set.Has(id+1) && !slices.Contains(v.want, id+1) {
								t.Errorf("published version answers Has(%d) or Has(%d) wrongly", id, id+1)
								return
							}
						}
					}
				}
			}()

			sets := make([]*IDSet, len(resolveFilters))
			from := make([]int, len(resolveFilters))
			for round, finished := 0, false; !finished; round++ {
				select {
				case <-writerDone:
					finished = true // one more round sees the last commit
				default:
				}
				for i := range resolveFilters {
					rf := &resolveFilters[i]
					set, upto := d.ResolveEntities(rf.typ, rf.attr, &rf.f, sets[i], from[i])
					if upto < from[i] {
						t.Fatalf("%s: resolved up to %d, below the previous %d", rf.name, upto, from[i])
					}
					want := wantResolved(d, rf.typ, rf.attr, &rf.f, upto)
					if !slices.Equal(set.IDs(), want) {
						t.Fatalf("%s round %d: incremental %v, from scratch %v", rf.name, round, set.IDs(), want)
					}
					scratch, _ := d.ResolveEntities(rf.typ, rf.attr, &rf.f, nil, 0)
					if scratch.Len() < set.Len() || !slices.Equal(scratch.IDs()[:set.Len()], want) {
						t.Fatalf("%s round %d: from-scratch resolution %v disagrees with %v", rf.name, round, scratch.IDs(), want)
					}
					if hi, lo := set.Digest(); [2]uint64{hi, lo} != digestOf(NewIDSet(want...)) {
						t.Fatalf("%s round %d: digest differs from a set built from scratch", rf.name, round)
					}
					sets[i], from[i] = set, upto
					mu.Lock()
					published = append(published, version{set, slices.Clone(want)})
					mu.Unlock()
				}
			}
			close(stop)
			readers.Wait()
			for i, rf := range resolveFilters {
				if n := d.Count(rf.typ); from[i] != n {
					t.Errorf("%s: final resolution covers %d of %d entities", rf.name, from[i], n)
				}
				if sets[i].Empty() && rf.name != "numeric-eq" {
					t.Errorf("%s: resolved to nothing; the filter exercises no matches", rf.name)
				}
			}
		})
	}
}

func digestOf(s *IDSet) [2]uint64 {
	hi, lo := s.Digest()
	return [2]uint64{hi, lo}
}

// TestIDSetGrowth: extending a set across bitmap chunk boundaries keeps
// every earlier version intact, a version grown twice yields two
// independent correct sets, and Has, IDs and Digest agree with a set
// built from the same members at once.
func TestIDSetGrowth(t *testing.T) {
	var versions []*IDSet
	var members []sysmon.EntityID
	var s *IDSet
	for _, id := range []sysmon.EntityID{1, 2, 1023, 1024, 1025, 5000, 5001, 70000, 70001} {
		s = s.grow()
		s.add(id)
		members = append(members, id)
		versions = append(versions, s)
	}
	for i, v := range versions {
		want := members[:i+1]
		if !slices.Equal(v.IDs(), want) {
			t.Fatalf("version %d holds %v, want %v", i, v.IDs(), want)
		}
		for id := sysmon.EntityID(0); id < 70100; id++ {
			if v.Has(id) != slices.Contains(want, id) {
				t.Fatalf("version %d: Has(%d) = %v", i, id, v.Has(id))
			}
		}
		if digestOf(v) != digestOf(NewIDSet(want...)) {
			t.Errorf("version %d: digest differs from a set built at once", i)
		}
	}

	base := NewIDSet(3, 9)
	a, b := base.grow(), base.grow()
	a.add(10)
	b.add(11)
	if !slices.Equal(a.IDs(), []sysmon.EntityID{3, 9, 10}) || !slices.Equal(b.IDs(), []sysmon.EntityID{3, 9, 11}) ||
		a.Has(11) || b.Has(10) || !slices.Equal(base.IDs(), []sysmon.EntityID{3, 9}) || base.Has(10) {
		t.Errorf("two extensions of one version interfere: base %v, a %v, b %v", base.IDs(), a.IDs(), b.IDs())
	}
	if digestOf(NewIDSet(5, 1, 5, 3)) != digestOf(NewIDSet(1, 3, 5)) || digestOf(NewIDSet(1, 3)) == digestOf(NewIDSet(1, 4)) {
		t.Error("digest does not identify the member set")
	}
}

// exactFilters are string = filters on each entity type, all matching
// entities of resolveBatch(0).
var exactFilters = []struct {
	typ     sysmon.EntityType
	attr    string
	pattern string
}{
	{sysmon.EntityProcess, "exe_name", "Worker-7.EXE"},
	{sysmon.EntityFile, "name", `c:\data\c2.log`},
	{sysmon.EntityNetconn, "dstip", "203.0.113.9"},
}

// resolveExact resolves each of exactFilters over the whole table.
func resolveExact(d *Dictionary) [][]sysmon.EntityID {
	out := make([][]sysmon.EntityID, len(exactFilters))
	for i, ef := range exactFilters {
		set, _ := d.ResolveEntities(ef.typ, ef.attr, &AttrFilter{Pattern: like.Compile(ef.pattern)}, nil, 0)
		out[i] = set.IDs()
	}
	return out
}

// entityCounts returns the dictionary's table sizes.
func entityCounts(d *Dictionary) [3]int {
	return [3]int{d.Count(sysmon.EntityProcess), d.Count(sysmon.EntityFile), d.Count(sysmon.EntityNetconn)}
}

// coldInternMaps reports whether d's intern maps are still unhydrated.
func coldInternMaps(d *Dictionary) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.needsBuild
}

// TestReopenedExactFilterLeavesInternMapsCold: on a reopened store an
// exact = filter on each entity type resolves to the IDs it had before
// the close by walking the restored tables, without hydrating the
// intern maps; the first intern hydrates them.
func TestReopenedExactFilterLeavesInternMapsCold(t *testing.T) {
	dir := t.TempDir()
	first, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	if err := first.AppendAll(resolveBatch(0)); err != nil {
		t.Fatal(err)
	}
	first.Flush() // the manifest now holds every entity table
	want := resolveExact(first.Dict())
	for i, ids := range want {
		if len(ids) == 0 {
			t.Fatalf("%s = %q matches nothing before the close", exactFilters[i].attr, exactFilters[i].pattern)
		}
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := small(Open(durableOpts(dir)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d := s.Dict()
	if !coldInternMaps(d) {
		t.Fatal("a freshly reopened store already hydrated its intern maps")
	}
	if got := resolveExact(d); !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("after reopen exact filters resolve to %v, before the close %v", got, want)
	}
	if !coldInternMaps(d) {
		t.Error("resolving exact filters hydrated the intern maps")
	}
	if err := s.AppendAll(resolveBatch(1)); err != nil {
		t.Fatal(err)
	}
	if coldInternMaps(d) {
		t.Error("an intern left the intern maps unhydrated")
	}
}

// TestReopenedStoreReusesEntityIDs: entities persisted in the manifest
// or only in the WAL keep their IDs across a reopen, and re-appending
// them, whether by a fresh AppendAll or through a later WAL replay,
// interns nothing new.
func TestReopenedStoreReusesEntityIDs(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	first, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.AppendAll(resolveBatch(0)); err != nil {
		t.Fatal(err)
	}
	first.Flush()                                            // batch 0's entities in the manifest
	if err := first.AppendAll(resolveBatch(1)); err != nil { // batch 1's only in the WAL
		t.Fatal(err)
	}
	wantCounts, wantIDs := entityCounts(first.Dict()), resolveExact(first.Dict())
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := entityCounts(second.Dict()); got != wantCounts {
		t.Fatalf("reopened store holds %v entities, want %v", got, wantCounts)
	}
	for k := 0; k <= 1; k++ {
		if err := second.AppendAll(resolveBatch(k)); err != nil {
			t.Fatal(err)
		}
		if got := entityCounts(second.Dict()); got != wantCounts {
			t.Fatalf("re-appending batch %d after reopen: %v entities, want %v", k, got, wantCounts)
		}
	}
	crash(second) // the re-appended events survive only in the WAL

	third, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	if got := entityCounts(third.Dict()); got != wantCounts {
		t.Fatalf("after replaying the re-appends: %v entities, want %v", got, wantCounts)
	}
	if got := resolveExact(third.Dict()); !slices.EqualFunc(got, wantIDs, slices.Equal) {
		t.Errorf("entity IDs moved across reopens: %v, want %v", got, wantIDs)
	}
	if third.Len() != 4*len(resolveBatch(0)) {
		t.Errorf("third open holds %d events, want %d", third.Len(), 4*len(resolveBatch(0)))
	}
}
