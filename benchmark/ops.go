package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	aiql "github.com/aiql/aiql"
	"github.com/aiql/aiql/internal/datagen"
	"github.com/aiql/aiql/internal/experiments"
)

// template is one parameterised query. Investigation templates are the
// paper's 45 Fig. 4 / Fig. 5 queries with their time window, their
// global agentid and their first name pattern turned into $from/$to,
// $agent and $name; hunt templates are written here.
type template struct {
	label string
	text  string
	// truth is the binding of the paper's own query, which returns the
	// injected attack step.
	truth map[string]any
	// want, when set, must occur in the truth binding's rows.
	want string
	// stream sends the op to POST /api/v1/query/stream; limit is its
	// row limit (0 = none).
	stream bool
	limit  int
	// hostBound hunts bind $agent, the others span every host.
	hostBound bool
	// crossHost templates follow a dependency path from one host to
	// another, which a dataset sharded by agentid answers only when both
	// hosts share a member; the scatter workload leaves them out.
	crossHost bool
	// long hunts bind a 12-20 h window, the others 2-8 h.
	long bool
}

var (
	reDay   = regexp.MustCompile(`^\s*\((?:at|from) [^)]*\)`)
	reAgent = regexp.MustCompile(`(?m)^agentid = (\d+)$`)
	reName  = regexp.MustCompile(`\["([^"]+)"`)
	reQuote = regexp.MustCompile(`"([^"]+)"`)
)

const (
	dayFrom = "05/10/2018 00:00:00"
	dayTo   = "05/11/2018 00:00:00"
)

// investigateTemplates derives the 45 templates from the paper's queries.
func investigateTemplates() []*template {
	var out []*template
	for _, q := range append(experiments.Fig4Queries(), experiments.Fig5Queries()...) {
		t := &template{label: q.Label, crossHost: q.Kind == "dependency",
			truth: map[string]any{"from": dayFrom, "to": dayTo}}
		text := q.Text
		if w := reDay.FindString(text); strings.Contains(w, "from") {
			// a5-1 carries its own one-hour window
			lit := reQuote.FindAllStringSubmatch(w, 2)
			t.truth["from"], t.truth["to"] = lit[0][1], lit[1][1]
		}
		text = reDay.ReplaceAllLiteralString(text, "(from $from to $to)")
		if m := reAgent.FindStringSubmatch(text); m != nil {
			agent, _ := strconv.Atoi(m[1])
			t.truth["agent"] = agent
			text = reAgent.ReplaceAllLiteralString(text, "agentid = $agent")
		}
		if loc := reName.FindStringSubmatchIndex(text); loc != nil {
			t.truth["name"] = text[loc[2]:loc[3]]
			text = text[:loc[0]] + "[$name" + text[loc[1]:]
		}
		t.text = text
		switch q.Label {
		case "a1-1":
			t.want = datagen.AttackerIP
		case "c2-1":
			t.want = datagen.ATCAttackerIP
		}
		out = append(out, t)
	}
	return out
}

// huntTemplates are the six broad queries of the hunt workload.
func huntTemplates() []*template {
	return []*template{
		{label: "h-scan", stream: true, text: `(from $from to $to)
proc p write file f as evt
return p, f, evt.amount`},
		{label: "h-distinct", stream: true, text: `(from $from to $to)
proc p read file f as evt
return distinct evt.agentid, p`},
		{label: "h-net-scan", stream: true, text: `(from $from to $to)
proc p read || write ip i as evt
return p, i, evt.amount`},
		{label: "h-spawn-join", stream: true, text: `(from $from to $to)
proc p1["%cmd.exe"] start proc p2 as evt1
proc p2 write file f as evt2
with evt1 before evt2
return distinct p1, p2, f`},
		{label: "h-rw-join", stream: true, hostBound: true, text: `(from $from to $to)
agentid = $agent
proc p1 write file f as evt1
proc p2 read file f as evt2
with evt1 before evt2
return distinct p1, f, p2`},
		{label: "h-anomaly", stream: true, hostBound: true, long: true, text: `(from $from to $to)
agentid = $agent
window = 10 min, step = 5 min
proc p write ip i as evt
return p, avg(evt.amount) as amt
group by p
having amt > 2 * (amt + amt[1] + amt[2]) / 3`},
		{label: "h-limit50", stream: true, limit: 50, text: `(from $from to $to)
proc p write file f as evt
return p, f, evt.amount`},
	}
}

// backgroundNames are name patterns of benign processes; bound in place
// of an attack tool's name they make a template search ordinary activity.
var backgroundNames = []string{"%svchost.exe", "%chrome.exe", "%cmd.exe", "%powershell.exe", "%sshd", "%explorer.exe", "%python3", "%outlook.exe"}

// op is one request: a template, its bindings and how it is sent.
type op struct {
	tmpl   *template
	params map[string]any
	inline bool // literal query text; otherwise stmt_id + params
	// verify ops carry a reference; the rest are checked for a
	// well-formed, complete response only.
	verify bool
	truth  bool
	ref    []uint64 // reference row hashes in canonical (sorted) order
	refSum uint64
	body   []byte // request JSON, built once the statements are prepared
	stmtID string // the prepared statement's handle on the current server
}

// text returns the query with the bindings substituted as literals,
// what an analyst types.
func (o *op) text() string {
	s := o.tmpl.text
	for _, k := range []string{"from", "to", "name"} {
		if v, ok := o.params[k]; ok {
			s = strings.Replace(s, "$"+k, strconv.Quote(v.(string)), 1)
		}
	}
	if v, ok := o.params["agent"]; ok {
		s = strings.Replace(s, "$agent", strconv.Itoa(v.(int)), 1)
	}
	return s
}

func clock(h int) string {
	return datagen.DefaultStart.Add(time.Duration(h) * time.Hour).Format("01/02/2006 15:04:05")
}

// hourWindow draws an hour-aligned window of one of the given lengths
// inside the generated day.
func hourWindow(rng *rand.Rand, lengths []int) (from, to string) {
	n := lengths[rng.Intn(len(lengths))]
	start := rng.Intn(24 - n + 1)
	return clock(start), clock(start + n)
}

// investigatePool builds n distinct ops over the investigation
// templates, template-major so that any run of 45 consecutive ops holds
// every template once. The first cycle is the paper's own bindings (the
// ground truth); later cycles bind a host under investigation, an
// hour-aligned window and, half the time, a benign name pattern. Ops
// alternate between literal text and prepared-statement form.
func investigatePool(rng *rand.Rand, tmpls []*template, n, hosts int) []*op {
	// Investigations pivot among few hosts: the six the attacks touch
	// and two seeded bystanders.
	suspects := []int{1, 2, 3, 4, 5, 6}
	for len(suspects) < 8 {
		suspects = append(suspects, 7+rng.Intn(hosts-6))
	}
	seen := map[string]bool{}
	var out []*op
	for len(out) < n {
		t := tmpls[len(out)%len(tmpls)]
		o := &op{tmpl: t, verify: true, inline: (len(out)/len(tmpls)+len(out))%2 == 0}
		if len(out) < len(tmpls) {
			o.params, o.truth = t.truth, true
		} else {
			o.params = map[string]any{}
			o.params["from"], o.params["to"] = hourWindow(rng, []int{1, 2, 3, 4, 6, 8, 12, 24})
			if _, ok := t.truth["agent"]; ok {
				o.params["agent"] = suspects[rng.Intn(len(suspects))]
			}
			if name, ok := t.truth["name"]; ok {
				if rng.Intn(2) == 0 {
					name = backgroundNames[rng.Intn(len(backgroundNames))]
				}
				o.params["name"] = name
			}
		}
		key := o.text()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, o)
	}
	return out
}

// huntPool builds n distinct hunt ops, the six templates round-robin,
// over seeded windows at minute granularity so that none repeats.
// Every verifyEvery-th op is reference-checked.
func huntPool(rng *rand.Rand, tmpls []*template, n, hosts, verifyEvery int) []*op {
	seen := map[string]bool{}
	var out []*op
	for len(out) < n {
		t := tmpls[len(out)%len(tmpls)]
		o := &op{tmpl: t, inline: true, params: map[string]any{}}
		// round-robin over templates first, so every template is sampled
		o.verify = (len(out)/len(tmpls))%verifyEvery == 0
		length := time.Duration(120+rng.Intn(361)) * time.Minute
		if t.long {
			length = time.Duration(720+rng.Intn(481)) * time.Minute
		}
		start := time.Duration(rng.Intn(int((24*time.Hour-length)/time.Minute)+1)) * time.Minute
		o.params["from"] = datagen.DefaultStart.Add(start).Format("01/02/2006 15:04:05")
		o.params["to"] = datagen.DefaultStart.Add(start + length).Format("01/02/2006 15:04:05")
		if t.hostBound {
			o.params["agent"] = 1 + rng.Intn(hosts)
		}
		key := o.text()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, o)
	}
	return out
}

// firstQuery is the op that follows every reopen: the paper's first
// investigation query (a1-1) with its own bindings, as literal text.
func firstQuery() *op {
	t := investigateTemplates()[0]
	return &op{tmpl: t, params: t.truth, inline: true, verify: true, truth: true}
}

// rowHash identifies a result row by the bytes encoding/json renders it
// as, which is what both endpoints put on the wire.
func rowHash(jsonRow []byte) uint64 {
	h := fnv.New64a()
	h.Write(jsonRow)
	return h.Sum64()
}

// reference is an independent engine over the same events: in memory,
// one scan worker, no scan cache, no block cache, no result cache.
type reference struct {
	db *aiql.DB
}

func newReference(recs []aiql.Record) (*reference, error) {
	db := aiql.OpenWithOptions(aiql.DefaultStorage(), aiql.EngineConfig{ScanWorkers: 1})
	if err := db.AppendAll(recs); err != nil {
		return nil, err
	}
	if err := db.Flush(); err != nil {
		return nil, err
	}
	return &reference{db: db}, nil
}

// fill computes the reference rows of every verify op, two at a time
// (the ops are independent; each execution stays single-threaded).
func (r *reference) fill(ctx context.Context, ops []*op) error {
	stmts := map[*template]*aiql.Stmt{}
	for _, o := range ops {
		if _, ok := stmts[o.tmpl]; !ok && o.verify {
			st, err := r.db.Prepare(o.tmpl.text)
			if err != nil {
				return fmt.Errorf("reference: template %s: %w", o.tmpl.label, err)
			}
			stmts[o.tmpl] = st
		}
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  = make(chan *op)
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range next {
				if err := r.fillOne(ctx, stmts[o.tmpl], o); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, o := range ops {
		if o.verify && o.ref == nil {
			next <- o
		}
	}
	close(next)
	wg.Wait()
	return first
}

func (r *reference) fillOne(ctx context.Context, st *aiql.Stmt, o *op) error {
	res, err := st.Exec(ctx, aiql.Params(o.params))
	if err != nil {
		return fmt.Errorf("reference: %s %v: %w", o.tmpl.label, o.params, err)
	}
	o.ref = make([]uint64, len(res.Rows))
	o.refSum = 0
	found := o.tmpl.want == ""
	for i, row := range res.Rows {
		line, err := json.Marshal(row)
		if err != nil {
			return err
		}
		o.ref[i] = rowHash(line)
		o.refSum += o.ref[i]
		if !found && strings.Contains(string(line), o.tmpl.want) {
			found = true
		}
	}
	// Ground truth: the paper's own binding must find the injected step.
	if o.truth && (len(res.Rows) == 0 || !found) {
		return fmt.Errorf("reference: ground-truth query %s returned %d rows, want the injected answer %q",
			o.tmpl.label, len(res.Rows), o.tmpl.want)
	}
	return nil
}

// ordering says how a response's rows relate to the reference order.
type ordering int

const (
	// sortedRows: the buffered endpoint and sharded streams return the
	// canonical order, so a page is a prefix of the reference.
	sortedRows ordering = iota
	// producedRows: an unsharded stream emits rows as the engine
	// produces them; compare as a multiset (or, under a limit, as a
	// subset of the right size).
	producedRows
)

// check compares the row hashes a response carried against the op's
// reference. maxRows is the cap the endpoint applies (the buffered
// endpoint's 5000-row page, or the op's limit); 0 = none.
func (o *op) check(got []uint64, order ordering, maxRows int) error {
	if !o.verify {
		return nil
	}
	want := len(o.ref)
	if maxRows > 0 && want > maxRows {
		want = maxRows
	}
	if len(got) != want {
		return fmt.Errorf("%s: %d rows, reference has %d", o.tmpl.label, len(got), want)
	}
	switch {
	case order == sortedRows:
		for i, h := range got {
			if h != o.ref[i] {
				return fmt.Errorf("%s: row %d differs from the reference", o.tmpl.label, i)
			}
		}
	case want == len(o.ref):
		var sum uint64
		for _, h := range got {
			sum += h
		}
		if sum != o.refSum {
			return fmt.Errorf("%s: row set differs from the reference", o.tmpl.label)
		}
	default:
		set := make(map[uint64]struct{}, len(o.ref))
		for _, h := range o.ref {
			set[h] = struct{}{}
		}
		for i, h := range got {
			if _, ok := set[h]; !ok {
				return fmt.Errorf("%s: row %d is not in the reference", o.tmpl.label, i)
			}
		}
	}
	return nil
}

// schedule is the order a client issues ops in: the pool in order,
// wrapping, with every fourth slot repeating one of the client's last
// eight ops (the analyst re-running a recent query) when repeats is set.
type schedule struct {
	pool    []*op
	next    int
	stride  int
	repeats bool
	rng     *rand.Rand
	recent  [8]*op
	issued  int
	fresh   int
}

func (s *schedule) take() *op {
	s.issued++
	if s.repeats && s.issued%4 == 0 && s.fresh >= len(s.recent) {
		return s.recent[s.rng.Intn(len(s.recent))]
	}
	o := s.pool[s.next%len(s.pool)]
	s.next += s.stride
	s.recent[s.fresh%len(s.recent)] = o
	s.fresh++
	return o
}
