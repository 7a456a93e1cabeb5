package shard

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/engine"
	"github.com/aiql/aiql/internal/service"
)

// TestServicePathParity: every way the service can answer a query —
// buffered pages, a plain stream, a sorted stream, and the same two
// forms on a coordinator over agent-partitioned members — returns the
// rows of the cache-less single-store reference, whether the execution
// runs or the result cache serves it, at every limit. Rows are compared
// as multisets, and in order wherever the contract promises the
// canonical order (buffered pages, sorted streams, merged streams).
func TestServicePathParity(t *testing.T) {
	var recs []aiql.Record
	for i := 0; i < 600; i++ { // more than two stream chunks
		agent := uint32(1 + i%3)
		recs = append(recs, record(agent, day(10)+int64(i)*int64(time.Minute), fmt.Sprintf("a%d-e%03d", agent, i)))
	}
	single := buildDB(t, recs)
	var members []Member
	for a := uint32(1); a <= 3; a++ {
		agent := a
		members = append(members, Member{
			Name:   fmt.Sprintf("agent%d", agent),
			Source: NewLocalSource(split(t, recs, func(r aiql.Record) bool { return r.AgentID == agent })),
			Bounds: Bounds{Agents: []int64{int64(agent)}, From: -1 << 62, To: 1 << 62},
		})
	}
	coord := NewCoordinator("events", members, Options{})
	defer coord.Close()

	type path struct {
		name    string
		sharded bool
		ordered bool // the contract promises canonical order
		paged   bool // the limit is a page size, not a truncation
		run     func(svc *service.Service, q string, limit int) (rows [][]string, cached bool, err error)
	}
	buffered := func(svc *service.Service, q string, limit int) ([][]string, bool, error) {
		var rows [][]string
		req := service.Request{Query: q, Limit: limit}
		resp, err := svc.Do(context.Background(), req)
		cached := err == nil && resp.Cached
		for err == nil {
			rows = append(rows, resp.Rows...)
			if resp.NextCursor == "" {
				break
			}
			req.Cursor = resp.NextCursor
			resp, err = svc.Do(context.Background(), req)
		}
		return rows, cached, err
	}
	stream := func(sorted bool) func(svc *service.Service, q string, limit int) ([][]string, bool, error) {
		return func(svc *service.Service, q string, limit int) ([][]string, bool, error) {
			var (
				rows   [][]string
				cached bool
			)
			resp, err := svc.DoStreamChunks(context.Background(), service.Request{Query: q, Limit: limit, Sorted: sorted},
				func(_ []string, c bool) error { cached = c; return nil },
				func(chunk [][]string) error { rows = append(rows, chunk...); return nil })
			if err == nil && resp.TotalRows != len(rows) {
				err = fmt.Errorf("response reports %d rows, the sink received %d", resp.TotalRows, len(rows))
			}
			return rows, cached, err
		}
	}
	paths := []path{
		{"buffered", false, true, true, buffered},
		{"stream", false, false, false, stream(false)},
		{"sorted stream", false, true, false, stream(true)},
		{"sharded buffered", true, true, true, buffered},
		{"sharded stream", true, true, false, stream(false)},
	}
	queries := []string{
		demoQuery,
		`proc p["%worker.exe"] write file f as evt return distinct p`,
		`agentid = 2 ` + demoQuery,
		`agentid = 9 ` + demoQuery, // no rows
	}
	for _, q := range queries {
		ref, err := single.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			for _, limit := range []int{0, 1, 50} {
				svc := service.New(single, service.Config{})
				if p.sharded {
					svc = service.NewSharded(aiql.Open(), coord, service.Config{})
				}
				for _, hit := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/limit %d/hit=%v", q, p.name, limit, hit)
					if hit {
						// a buffered execution fills the cache for every form
						if _, err := svc.Do(context.Background(), service.Request{Query: q}); err != nil {
							t.Fatalf("%s: filling the cache: %v", name, err)
						}
					}
					got, cached, err := p.run(svc, q, limit)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if cached != hit {
						t.Errorf("%s: served cached=%v", name, cached)
					}
					want := ref.Rows
					if !p.paged && limit > 0 && len(want) > limit {
						want = want[:limit]
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
					}
					if p.ordered {
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: rows are not the reference in canonical order", name)
						}
					} else if !isSubMultiset(got, ref.Rows) {
						t.Errorf("%s: rows are not drawn from the reference", name)
					}
				}
			}
		}
	}
}

// isSubMultiset reports whether every row of sub occurs in of, counting
// repeats.
func isSubMultiset(sub, of [][]string) bool {
	sorted := func(rows [][]string) [][]string {
		c := slices.Clone(rows)
		slices.SortFunc(c, func(a, b []string) int {
			switch {
			case engine.RowLess(a, b):
				return -1
			case engine.RowLess(b, a):
				return 1
			}
			return 0
		})
		return c
	}
	a, b := sorted(sub), sorted(of)
	j := 0
	for _, row := range a {
		for j < len(b) && engine.RowLess(b[j], row) {
			j++
		}
		if j == len(b) || !slices.Equal(b[j], row) {
			return false
		}
		j++
	}
	return true
}
