package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/engine"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/service"
	"github.com/aiql/aiql/internal/shard/client"
)

const demoQuery = `proc p["%worker.exe"] write file f as evt return p, f`

// day returns the unix-nano start of a 2018-05 day, matching the
// mm/dd/yyyy literals the partition map and time windows use.
func day(d int) int64 {
	return time.Date(2018, 5, d, 0, 0, 0, 0, time.UTC).UnixNano()
}

// record builds one matching event owned by an agent at a timestamp.
func record(agent uint32, ts int64, tag string) aiql.Record {
	return aiql.Record{
		AgentID: agent,
		Subject: aiql.Process{PID: 100, ExeName: "worker.exe", Path: `C:\bin\worker.exe`, User: "alice"},
		Op:      aiql.OpWrite,
		ObjType: aiql.EntityFile,
		ObjFile: aiql.File{Path: `C:\logs\` + tag + `.log`},
		StartTS: ts,
	}
}

// corpus is a deterministic event set spread over agents 1..3 and May
// 10-12 2018: the axes the partition-map tests slice on.
func corpus() []aiql.Record {
	var recs []aiql.Record
	for i := 0; i < 60; i++ {
		agent := uint32(1 + i%3)
		ts := day(10+i%3) + int64(i)*int64(time.Minute)
		recs = append(recs, record(agent, ts, fmt.Sprintf("a%d-e%02d", agent, i)))
	}
	return recs
}

func buildDB(t testing.TB, recs []aiql.Record) *aiql.DB {
	t.Helper()
	db := aiql.Open()
	db.AppendAll(recs)
	db.Flush()
	return db
}

// split partitions records by predicate into a new member database.
func split(t testing.TB, recs []aiql.Record, keep func(aiql.Record) bool) *aiql.DB {
	t.Helper()
	var mine []aiql.Record
	for _, r := range recs {
		if keep(r) {
			mine = append(mine, r)
		}
	}
	return buildDB(t, mine)
}

// shardQueryFor compiles the query on an empty planning store, exactly
// as the sharded service does.
func shardQueryFor(t testing.TB, query string, params map[string]any) service.ShardQuery {
	t.Helper()
	stmt, err := aiql.Open().Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	return service.ShardQuery{Query: query, Params: params, Columns: stmt.Columns(), Kind: stmt.Kind(), Distinct: stmt.Distinct()}
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{
		"datasets": [{
			"dataset": "events",
			"members": [
				{"name": "old", "dir": "/data/old", "to": "05/11/2018"},
				{"name": "hot", "url": "http://peer:8080", "dataset": "events", "from": "05/11/2018", "agents": [1, 2]}
			]
		}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	m := cfg.Datasets[0].Members
	b0, err := m[0].Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if b0.To != day(11) {
		t.Errorf("old.To = %d, want %d", b0.To, day(11))
	}
	b1, err := m[1].Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if b1.From != day(11) || len(b1.Agents) != 2 {
		t.Errorf("hot bounds = %+v", b1)
	}

	bad := []string{
		`{"datasets": [{"dataset": "", "members": [{"name": "a", "dir": "x"}]}]}`,
		`{"datasets": [{"dataset": "d", "members": []}]}`,
		`{"datasets": [{"dataset": "d", "members": [{"name": "", "dir": "x"}]}]}`,
		`{"datasets": [{"dataset": "d", "members": [{"name": "a", "dir": "x"}, {"name": "a", "dir": "y"}]}]}`,
		`{"datasets": [{"dataset": "d", "members": [{"name": "a", "dir": "x", "url": "http://h"}]}]}`,
		`{"datasets": [{"dataset": "d", "members": [{"name": "a"}]}]}`,
		`{"datasets": [{"dataset": "d", "members": [{"name": "a", "dir": "x", "from": "not-a-date"}]}]}`,
		`{"datasets": [{"dataset": "d", "members": [{"name": "a", "dir": "x", "from": "05/12/2018", "to": "05/10/2018"}]}]}`,
		`{"datasets": [{"dataset": "d", "members": [{"name": "a", "dir": "x"}]}, {"dataset": "d", "members": [{"name": "b", "dir": "y"}]}]}`,
	}
	for _, src := range bad {
		if _, err := ParseConfig([]byte(src)); err == nil {
			t.Errorf("config accepted, want error: %s", src)
		}
	}
}

func TestPruneScope(t *testing.T) {
	mk := func(from, to string, agents ...int64) Bounds {
		b, err := MemberSpec{Name: "m", Dir: "x", From: from, To: to, Agents: agents}.Bounds()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	may10 := mk("05/10/2018", "05/11/2018")
	may11on := mk("05/11/2018", "")
	agents12 := mk("", "", 1, 2)

	cases := []struct {
		name   string
		query  string
		params map[string]any
		bounds Bounds
		admit  bool
	}{
		{"window hits slice", `(at "05/10/2018") ` + demoQuery, nil, may10, true},
		{"window misses slice", `(at "05/10/2018") ` + demoQuery, nil, may11on, false},
		{"window param resolves", `(at $d) ` + demoQuery, map[string]any{"d": "05/12/2018"}, may10, false},
		{"window param missing degrades", `(at $d) ` + demoQuery, nil, may10, true},
		{"no window admits", demoQuery, nil, may11on, true},
		{"agent owned", `agentid = 2 ` + demoQuery, nil, agents12, true},
		{"agent not owned", `agentid = 7 ` + demoQuery, nil, agents12, false},
		{"agent param", `agentid = $a ` + demoQuery, map[string]any{"a": float64(7)}, agents12, false},
		{"agent param missing degrades", `agentid = $a ` + demoQuery, nil, agents12, true},
		{"open member bounds admit", `(at "05/10/2018") agentid = 7 ` + demoQuery, nil, mk("", ""), true},
		{"range query prunes", `(from "05/12/2018" to "05/14/2018") ` + demoQuery, nil, may10, false},
		{"range query overlaps", `(from "05/10/2018 06:00:00" to "05/14/2018") ` + demoQuery, nil, may10, true},
	}
	for _, tc := range cases {
		sc := scopeOf(service.ShardQuery{Query: tc.query, Params: tc.params})
		if got := tc.bounds.admits(sc); got != tc.admit {
			t.Errorf("%s: admits = %v, want %v (scope %+v)", tc.name, got, tc.admit, sc)
		}
	}
}

// TestScatterGatherGolden: the merged scatter across agent-partitioned
// members is byte-identical to the same data in one store.
func TestScatterGatherGolden(t *testing.T) {
	recs := corpus()
	single := buildDB(t, recs)
	members := []Member{}
	for a := uint32(1); a <= 3; a++ {
		agent := a
		db := split(t, recs, func(r aiql.Record) bool { return r.AgentID == agent })
		members = append(members, Member{
			Name:   fmt.Sprintf("agent%d", agent),
			Source: NewLocalSource(db),
			Bounds: Bounds{Agents: []int64{int64(agent)}, From: -1 << 62, To: 1 << 62},
		})
	}
	coord := NewCoordinator("events", members, Options{})
	defer coord.Close()

	stmt, err := single.Prepare(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stmt.Exec(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("query")
	got, warns, err := coord.Run(obs.WithSpan(context.Background(), tr.Root()), shardQueryFor(t, demoQuery, nil))
	if err != nil || len(warns) != 0 {
		t.Fatalf("scatter failed: err=%v warns=%v", err, warns)
	}
	// every member's cursor adds its handoffs to the query span
	if n := tr.Tree().Attrs["chunks"]; n < int64(len(members)) || n != int64(got.Stats.Chunks) {
		t.Errorf("query span chunks = %d, Stats.Chunks = %d; want equal and at least one per member", n, got.Stats.Chunks)
	}
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("columns %v != %v", got.Columns, want.Columns)
	}
	if len(got.Rows) != 60 || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("merged rows diverge from unsharded execution (%d vs %d rows)", len(got.Rows), len(want.Rows))
	}
	if got.Stats.ScannedEvents != want.Stats.ScannedEvents {
		t.Errorf("scanned %d events, unsharded scanned %d", got.Stats.ScannedEvents, want.Stats.ScannedEvents)
	}

	// agent-pinned query contacts only the owning member
	q := shardQueryFor(t, `agentid = 2 `+demoQuery, nil)
	if _, _, err := coord.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	st := coord.Stats()
	for _, m := range st.Members {
		wantFan := uint64(1)
		if m.Shard == "agent2" {
			wantFan = 2
		}
		if m.Fanouts != wantFan {
			t.Errorf("%s fanouts = %d, want %d", m.Shard, m.Fanouts, wantFan)
		}
	}
	if st.Queries != 2 {
		t.Errorf("queries = %d, want 2", st.Queries)
	}
}

// TestDistinctAcrossMembers: `return distinct` is deduplicated across
// members, not only within each. Both members hold events projecting
// the same value, so each contributes the same row; the merged result —
// buffered, streamed, and streamed under a limit, which counts rows
// after the dedup — is byte-identical to the unsharded store's.
func TestDistinctAcrossMembers(t *testing.T) {
	var recs []aiql.Record
	for i := 0; i < 12; i++ {
		// tags repeat across the two agents: 4 distinct files, each
		// written on both members
		recs = append(recs, record(uint32(1+i%2), day(10)+int64(i)*int64(time.Minute), fmt.Sprintf("shared-%d", i/2%4)))
	}
	recs = append(recs, record(1, day(11), "only-agent1"), record(2, day(11), "only-agent2"))
	single := buildDB(t, recs)
	var members []Member
	for a := uint32(1); a <= 2; a++ {
		agent := a
		members = append(members, Member{
			Name:   fmt.Sprintf("agent%d", agent),
			Source: NewLocalSource(split(t, recs, func(r aiql.Record) bool { return r.AgentID == agent })),
		})
	}
	coord := NewCoordinator("events", members, Options{})
	defer coord.Close()

	const query = `proc p["%worker.exe"] write file f as evt return distinct f`
	stmt, err := single.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stmt.Exec(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 6 {
		t.Fatalf("unsharded distinct returned %d rows, want 6", len(want.Rows))
	}
	q := shardQueryFor(t, query, nil)
	got, warns, err := coord.Run(context.Background(), q)
	if err != nil || len(warns) != 0 {
		t.Fatalf("buffered: err=%v warns=%v", err, warns)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("buffered distinct diverges from unsharded:\n got %v\nwant %v", got.Rows, want.Rows)
	}
	for _, limit := range []int{0, 3} {
		q.Limit = limit
		wantRows := want.Rows
		if limit > 0 {
			wantRows = wantRows[:limit]
		}
		var rows [][]string
		_, warns, err := coord.RunStream(context.Background(), q,
			func([]string) error { return nil },
			func(c [][]string) error { rows = append(rows, c...); return nil })
		if err != nil || len(warns) != 0 {
			t.Fatalf("streamed limit %d: err=%v warns=%v", limit, err, warns)
		}
		if !reflect.DeepEqual(rows, wantRows) {
			t.Fatalf("streamed distinct (limit %d) diverges from unsharded:\n got %v\nwant %v", limit, rows, wantRows)
		}
	}

	// without distinct, the twin rows are both results and all survive
	plain := shardQueryFor(t, `proc p["%worker.exe"] write file f as evt return f`, nil)
	all, _, err := coord.Run(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Rows) != len(recs) {
		t.Fatalf("non-distinct merge returned %d rows, want %d", len(all.Rows), len(recs))
	}
}

// TestLimitPushdown: a limit stops the merge after n rows and matches
// the unsharded prefix; members past their contribution are canceled.
func TestLimitPushdown(t *testing.T) {
	recs := corpus()
	single := buildDB(t, recs)
	var members []Member
	for a := uint32(1); a <= 3; a++ {
		agent := a
		members = append(members, Member{
			Name:   fmt.Sprintf("agent%d", agent),
			Source: NewLocalSource(split(t, recs, func(r aiql.Record) bool { return r.AgentID == agent })),
		})
	}
	coord := NewCoordinator("events", members, Options{})
	defer coord.Close()

	stmt, err := single.Prepare(demoQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stmt.Exec(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	q := shardQueryFor(t, demoQuery, nil)
	q.Limit = 7
	var rows [][]string
	_, warns, err := coord.RunStream(context.Background(), q,
		func([]string) error { return nil },
		func(c [][]string) error { rows = append(rows, c...); return nil })
	if err != nil || len(warns) != 0 {
		t.Fatalf("err=%v warns=%v", err, warns)
	}
	if !reflect.DeepEqual(rows, want.Rows[:7]) {
		t.Fatalf("limited merge is not the sorted prefix: %v", rows)
	}
}

// errSource fails with a fixed error, optionally after emitting rows.
type errSource struct {
	rows [][]string
	err  error
}

func (s *errSource) Stream(ctx context.Context, q service.ShardQuery, row func([]string) error) (engine.ExecStats, error) {
	for _, r := range s.rows {
		if err := row(r); err != nil {
			return engine.ExecStats{}, err
		}
	}
	return engine.ExecStats{}, s.err
}
func (s *errSource) Ping(ctx context.Context) (uint64, error) { return 0, s.err }
func (s *errSource) Close() error                             { return nil }

// TestMemberFailureDegrades: a dead member becomes a typed warning and
// the healthy members' rows still arrive — unless require_all.
func TestMemberFailureDegrades(t *testing.T) {
	recs := corpus()
	healthy := split(t, recs, func(r aiql.Record) bool { return r.AgentID == 1 })
	mk := func() []Member {
		return []Member{
			{Name: "alive", Source: NewLocalSource(healthy)},
			{Name: "dead", Source: &errSource{err: &client.TransportError{Msg: "connection refused"}}},
		}
	}
	coord := NewCoordinator("events", mk(), Options{})
	res, warns, err := coord.Run(context.Background(), shardQueryFor(t, demoQuery, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 1 || warns[0].Code != service.CodeShardUnavailable || warns[0].Shard != "dead" {
		t.Fatalf("warnings = %+v", warns)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("partial result has %d rows, want the live member's 20", len(res.Rows))
	}
	st := coord.Stats()
	if st.Partial != 1 {
		t.Errorf("partial counter = %d, want 1", st.Partial)
	}
	for _, m := range st.Members {
		if m.Shard == "dead" && (m.Healthy || m.Errors != 1) {
			t.Errorf("dead member stats = %+v", m)
		}
	}

	// require_all turns the same failure into a shard_unavailable error
	q := shardQueryFor(t, demoQuery, nil)
	q.RequireAll = true
	if _, _, err := coord.Run(context.Background(), q); !errors.Is(err, service.ErrShardUnavailable) {
		t.Fatalf("require_all: got %v, want ErrShardUnavailable", err)
	}

	// every member dead and nothing delivered: an error, not an empty
	// "partial" success
	allDead := NewCoordinator("events", []Member{
		{Name: "d1", Source: &errSource{err: &client.TransportError{Msg: "down"}}},
		{Name: "d2", Source: &errSource{err: &client.TransportError{Msg: "down"}}},
	}, Options{})
	if _, _, err := allDead.Run(context.Background(), shardQueryFor(t, demoQuery, nil)); !errors.Is(err, service.ErrShardUnavailable) {
		t.Fatalf("all-dead: got %v, want ErrShardUnavailable", err)
	}
}

// TestMemberErrorClassification: throttled members propagate the
// largest Retry-After; query rejections fail the whole fan-out.
func TestMemberErrorClassification(t *testing.T) {
	coord := NewCoordinator("events", []Member{
		{Name: "slow", Source: &errSource{err: &client.ThrottledError{After: 3, Msg: "busy"}}},
		{Name: "slower", Source: &errSource{err: &client.ThrottledError{After: 9, Msg: "busier"}}},
	}, Options{})
	_, _, err := coord.Run(context.Background(), shardQueryFor(t, demoQuery, nil))
	if !errors.Is(err, service.ErrClientThrottled) {
		t.Fatalf("got %v, want ErrClientThrottled", err)
	}
	if after, ok := service.RetryHintSeconds(err); !ok || after != 9 {
		t.Fatalf("retry hint = %d/%v, want the larger member hint 9", after, ok)
	}

	rejected := NewCoordinator("events", []Member{
		{Name: "picky", Source: &errSource{err: &client.QueryError{Status: 400, Code: service.CodeUnknownParam, Msg: "no $x"}}},
	}, Options{})
	_, _, err = rejected.Run(context.Background(), shardQueryFor(t, demoQuery, nil))
	if err == nil || !strings.Contains(err.Error(), "picky") {
		t.Fatalf("query rejection: got %v, want fatal error naming the shard", err)
	}
	var warns []service.ShardWarning
	if _, warns, _ = rejected.Run(context.Background(), shardQueryFor(t, demoQuery, nil)); len(warns) != 0 {
		t.Fatalf("query rejection degraded to warnings: %+v", warns)
	}
}

// TestGenerationTracksMembers: committing to any member moves the
// coordinator generation (result caches invalidate), and probing
// refreshes health.
func TestGenerationTracksMembers(t *testing.T) {
	db := buildDB(t, corpus()[:3])
	coord := NewCoordinator("events", []Member{{Name: "m", Source: NewLocalSource(db)}}, Options{})
	defer coord.Close()
	g1 := coord.Generation()
	db.AppendAll([]aiql.Record{record(1, day(10), "late")})
	db.Flush()
	if g2 := coord.Generation(); g2 == g1 {
		t.Fatal("generation unchanged after member commit")
	}
	coord.Probe(context.Background())
	if st := coord.Stats(); !st.Members[0].Healthy {
		t.Fatal("probed live member reported unhealthy")
	}
}

// TestMergeDeterminism: duplicate rows across members merge in member
// order, every run.
func TestMergeDeterminism(t *testing.T) {
	shared := [][]string{{"a", "1"}, {"b", "2"}}
	mk := func() []Member {
		return []Member{
			{Name: "m1", Source: &errSource{rows: shared}},
			{Name: "m2", Source: &errSource{rows: shared}},
		}
	}
	q := service.ShardQuery{Query: demoQuery, Columns: []string{"x", "y"}}
	var first [][]string
	for i := 0; i < 5; i++ {
		coord := NewCoordinator("events", mk(), Options{})
		var rows [][]string
		if _, _, err := coord.RunStream(context.Background(), q,
			func([]string) error { return nil },
			func(c [][]string) error { rows = append(rows, c...); return nil }); err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("merged %d rows, want 4", len(rows))
		}
		if i == 0 {
			first = rows
		} else if !reflect.DeepEqual(rows, first) {
			t.Fatalf("merge order diverged between runs: %v vs %v", rows, first)
		}
		coord.Close()
	}
}

// blockSource emits one late-sorting head row (the merge needs every
// member's head before it can emit), then hangs until canceled —
// proving cancellation reaches members once the limit is met.
type blockSource struct {
	started chan struct{}
	once    sync.Once
}

func (s *blockSource) Stream(ctx context.Context, q service.ShardQuery, row func([]string) error) (engine.ExecStats, error) {
	s.once.Do(func() { close(s.started) })
	if err := row([]string{"~last", "~last"}); err != nil {
		return engine.ExecStats{}, err
	}
	<-ctx.Done()
	return engine.ExecStats{}, ctx.Err()
}
func (s *blockSource) Ping(ctx context.Context) (uint64, error) { return 0, nil }
func (s *blockSource) Close() error                             { return nil }

// TestLimitCancelsStragglers: once the limit is satisfied from fast
// members, a hung member is canceled rather than waited for, and its
// teardown error does not surface as a warning.
func TestLimitCancelsStragglers(t *testing.T) {
	fast := split(t, corpus(), func(r aiql.Record) bool { return r.AgentID == 1 })
	hung := &blockSource{started: make(chan struct{})}
	coord := NewCoordinator("events", []Member{
		{Name: "fast", Source: NewLocalSource(fast)},
		{Name: "hung", Source: hung},
	}, Options{ShardTimeout: time.Minute})
	defer coord.Close()
	q := shardQueryFor(t, demoQuery, nil)
	q.Limit = 5
	done := make(chan struct{})
	var warns []service.ShardWarning
	var err error
	var rows int
	go func() {
		defer close(done)
		_, warns, err = coord.RunStream(context.Background(), q,
			func([]string) error { return nil },
			func(c [][]string) error { rows += len(c); return nil })
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("limit-satisfied merge still waiting on the hung member")
	}
	if err != nil || rows != 5 {
		t.Fatalf("err=%v rows=%d, want clean 5-row result", err, rows)
	}
	if len(warns) != 0 {
		t.Fatalf("teardown echoed as warnings: %+v", warns)
	}
}

// gateSource streams its rows, holding back the ones from index hold on
// until gate is closed.
type gateSource struct {
	rows [][]string
	hold int
	gate chan struct{}
}

func (s *gateSource) Stream(ctx context.Context, q service.ShardQuery, row func([]string) error) (engine.ExecStats, error) {
	for i, r := range s.rows {
		if i == s.hold {
			select {
			case <-s.gate:
			case <-ctx.Done():
				return engine.ExecStats{}, ctx.Err()
			}
		}
		if err := row(r); err != nil {
			return engine.ExecStats{}, err
		}
	}
	return engine.ExecStats{}, nil
}
func (s *gateSource) Ping(ctx context.Context) (uint64, error) { return 0, nil }
func (s *gateSource) Close() error                             { return nil }

// TestMergeChunks: the merge hands rows over in chunks — the first row
// alone, none larger than mergeChunkRows — and hands over what it holds
// before waiting on a member: the member here produces its next row only
// once every earlier row has reached the sink, so a merge that held a
// partly filled chunk back would never finish.
func TestMergeChunks(t *testing.T) {
	var rows [][]string
	for i := 0; i < 3*mergeChunkRows; i++ {
		rows = append(rows, []string{fmt.Sprintf("r%04d", i)})
	}
	src := &gateSource{rows: rows, hold: 2*mergeChunkRows + 10, gate: make(chan struct{})}
	coord := NewCoordinator("events", []Member{{Name: "m", Source: src}}, Options{})
	defer coord.Close()

	var (
		got   [][]string
		sizes []int
	)
	done := make(chan error, 1)
	go func() {
		_, _, err := coord.RunStream(context.Background(), service.ShardQuery{Query: demoQuery, Columns: []string{"x"}},
			func([]string) error { return nil },
			func(chunk [][]string) error {
				sizes = append(sizes, len(chunk))
				got = append(got, chunk...)
				if len(got) == src.hold {
					close(src.gate)
				}
				return nil
			})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the merge held rows back while waiting on a member")
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("merged %d rows, want the member's %d in order", len(got), len(rows))
	}
	if sizes[0] != 1 {
		t.Errorf("first chunk has %d rows, want the first row alone", sizes[0])
	}
	for _, n := range sizes {
		if n > mergeChunkRows {
			t.Errorf("chunk of %d rows exceeds %d", n, mergeChunkRows)
		}
	}
}
