package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/aiql/aiql/internal/aiql/ast"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/like"
	"github.com/aiql/aiql/internal/sysmon"
)

// patternPlan is the executable form of one event pattern: the storage
// filter it scans with, the candidate entity sets implied by its attribute
// filters, per-event predicates, and the optimizer's match estimate.
type patternPlan struct {
	idx      int // position in the query's syntactic order
	alias    string
	subjVar  string
	objVar   string
	objType  sysmon.EntityType
	filter   eventstore.EventFilter
	subjSet  *eventstore.IDSet // nil = unconstrained
	objSet   *eventstore.IDSet
	evtPreds []evtPred
	estimate int
	// cols is what anything downstream of the scan — per-event
	// predicates, joins, temporal checks, projection, aggregation —
	// reads of a matched event (see demandCols); the scan gathers
	// nothing else.
	cols eventstore.ColMask
}

// evtPred is a compiled event-attribute predicate (agentid, amount, ...).
type evtPred struct {
	attr string
	op   ast.CmpOp
	num  float64
	str  string
	strP *like.Pattern
}

func (p *evtPred) eval(ev *sysmon.Event) bool {
	var numVal float64
	var strVal string
	isNum := true
	switch p.attr {
	case "id":
		numVal = float64(ev.ID)
	case "agentid", "agent_id":
		numVal = float64(ev.AgentID)
	case "amount":
		numVal = float64(ev.Amount)
	case "seq":
		numVal = float64(ev.Seq)
	case "starttime", "start_time":
		numVal = float64(ev.StartTS)
	case "endtime", "end_time":
		numVal = float64(ev.EndTS)
	case "optype", "op":
		isNum = false
		strVal = ev.Op.String()
	default:
		return false
	}
	if isNum {
		switch p.op {
		case ast.CmpEQ:
			return numVal == p.num
		case ast.CmpNEQ:
			return numVal != p.num
		case ast.CmpLT:
			return numVal < p.num
		case ast.CmpLE:
			return numVal <= p.num
		case ast.CmpGT:
			return numVal > p.num
		case ast.CmpGE:
			return numVal >= p.num
		default:
			return false
		}
	}
	switch p.op {
	case ast.CmpEQ:
		return strings.EqualFold(strVal, p.str)
	case ast.CmpNEQ:
		return !strings.EqualFold(strVal, p.str)
	case ast.CmpLike:
		return p.strP.Match(strVal)
	default:
		return false
	}
}

// queryPlan is the scheduled execution plan for a multievent query.
type queryPlan struct {
	patterns []*patternPlan // in scheduled order
	rels     []ast.TemporalRel
	window   ast.TimeWindow
	// estCost is what computing the pruning-power estimates cost; zero
	// when nothing consumed estimates.
	estCost eventstore.EstimateCost
	// resolve is what resolving the entity filters cost.
	resolve resolveStats
}

// eventAttrCol maps an event attribute to the stored column holding it;
// agentid, optype and starttime come with every gathered event.
func eventAttrCol(attr string) eventstore.ColMask {
	switch attr {
	case "id":
		return eventstore.ColID
	case "endtime", "end_time":
		return eventstore.ColEndTS
	case "amount":
		return eventstore.ColAmount
	case "seq":
		return eventstore.ColSeq
	}
	return 0
}

// exprCols returns the columns of pat's events that evaluating expr
// reads: attributes of the event alias, the bare alias (its ID), and
// the endpoint an entity variable is bound from. count(evt) reads
// nothing of the event.
func exprCols(expr ast.Expr, pat *ast.EventPattern) eventstore.ColMask {
	switch x := expr.(type) {
	case *ast.AttrExpr:
		var m eventstore.ColMask
		if x.Var == pat.Alias {
			m |= eventAttrCol(x.Attr)
		}
		if x.Var == pat.Subject.Name {
			m |= eventstore.ColSubject
		}
		if x.Var == pat.Object.Name {
			m |= eventstore.ColObject
		}
		return m
	case *ast.VarExpr:
		if x.Name == pat.Alias {
			return eventstore.ColID
		}
	case *ast.CallExpr:
		if _, bare := x.Arg.(*ast.VarExpr); x.Arg != nil && !bare {
			return exprCols(x.Arg, pat)
		}
	case *ast.BinaryExpr:
		return exprCols(x.L, pat) | exprCols(x.R, pat)
	case *ast.UnaryExpr:
		return exprCols(x.X, pat)
	}
	return 0
}

// demandCols derives the column-demand mask of pattern i: the return
// expressions on its alias and variables, its per-event predicates, the
// temporal relations on its alias (before() orders by start timestamp,
// then event ID), and an endpoint whenever its variable joins — it
// names the pattern's other endpoint or an endpoint of another pattern.
func demandCols(q *ast.MultieventQuery, i int, rels []ast.TemporalRel, preds []evtPred) eventstore.ColMask {
	pat := &q.Patterns[i]
	var m eventstore.ColMask
	for k := range q.Return {
		m |= exprCols(q.Return[k].Expr, pat)
	}
	for k := range preds {
		m |= eventAttrCol(preds[k].attr)
	}
	for _, rel := range rels {
		if rel.Left == pat.Alias || rel.Right == pat.Alias {
			m |= eventstore.ColID
		}
	}
	if pat.Subject.Name == pat.Object.Name {
		m |= eventstore.ColSubject | eventstore.ColObject
	}
	for k := range q.Patterns {
		if k == i {
			continue
		}
		other := &q.Patterns[k]
		if n := pat.Subject.Name; n == other.Subject.Name || n == other.Object.Name {
			m |= eventstore.ColSubject
		}
		if n := pat.Object.Name; n == other.Subject.Name || n == other.Object.Name {
			m |= eventstore.ColObject
		}
	}
	return m
}

// compileEvtPred turns an AST event filter into a predicate.
func compileEvtPred(f ast.Filter) evtPred {
	p := evtPred{attr: f.Attr, op: f.Op}
	if f.Val.IsNum {
		p.num = f.Val.Num
	} else {
		p.str = f.Val.Str
		p.strP = like.Compile(f.Val.Str)
		// numeric attrs given as strings still compare numerically
		if n, err := strconv.ParseFloat(f.Val.Str, 64); err == nil {
			p.num = n
		}
	}
	return p
}

// entityCandidates evaluates an entity reference's attribute filters
// against the dictionary, returning the candidate ID set (nil when the
// reference is unconstrained) and adding what resolving them cost to rs.
func (e *Engine) entityCandidates(ref *ast.EntityRef, rs *resolveStats) (*eventstore.IDSet, error) {
	if len(ref.Filters) == 0 {
		return nil, nil
	}
	dict := e.store.Dict()
	var set *eventstore.IDSet
	for i := range ref.Filters {
		f := &ref.Filters[i]
		if f.Val.Param != "" {
			return nil, fmt.Errorf("engine: unbound parameter $%s; prepare the query and bind it before executing", f.Val.Param)
		}
		attr, ok := sysmon.CanonicalAttr(ref.Type, f.Attr)
		if !ok {
			return nil, fmt.Errorf("engine: entity %q has no attribute %q", ref.Name, f.Attr)
		}
		cur, err := e.cachedEntityMatch(dict, ref, attr, f, rs)
		if err != nil {
			return nil, err
		}
		set = set.Intersect(cur)
	}
	return set, nil
}

// resolveStats is what resolving a query's entity filters cost:
// filters answered by the memo as it stood (hits), by extending a memo
// entry over newly interned entities (extends) or from scratch
// (misses), and the entities examined doing so.
type resolveStats struct {
	examined, hits, extends, misses int64
}

// entityMatchKey identifies one attribute filter's resolution.
type entityMatchKey struct {
	typ   sysmon.EntityType
	attr  string
	op    ast.CmpOp
	str   string
	num   float64
	isNum bool
}

// entityMatchEntry is one memoized resolution: set holds the entities
// among IDs 1..n of dict matching filter. Entity tables are append-only
// with immutable entries, so the entry only ever needs extending over
// the IDs interned since, and a set resolved over 1..n with n at least
// the entity count read after a store snapshot is exact for that
// snapshot. Each version of set is immutable and shared; mu serializes
// the extensions.
type entityMatchEntry struct {
	mu     sync.Mutex
	dict   *eventstore.Dictionary
	filter eventstore.AttrFilter
	n      int
	set    *eventstore.IDSet
	used   uint64 // resolveClock at the last lookup, for LRU eviction
}

// entityMatchCap bounds the resolution memo; the population is one
// entry per distinct attribute filter across live queries, so the cap
// exists only to survive adversarial query streams.
const entityMatchCap = 512

// cachedEntityMatch resolves one attribute filter against the entity
// dictionary through the memo. Standing queries re-evaluate after every
// ingest commit: a commit that interned no entity of the filter's type
// is a hit, and one that interned k of them extends the entry by
// examining just those k, so re-evaluation stays proportional to what
// the commit changed. A full memo evicts its least recently used entry.
func (e *Engine) cachedEntityMatch(dict *eventstore.Dictionary, ref *ast.EntityRef, attr string, f *ast.Filter, rs *resolveStats) (*eventstore.IDSet, error) {
	key := entityMatchKey{typ: ref.Type, attr: attr, op: f.Op, str: f.Val.Str, num: f.Val.Num, isNum: f.Val.IsNum}
	// the count is read after the caller's snapshot: every entity the
	// snapshot's events reference is among IDs 1..n
	n := dict.Count(ref.Type)
	e.resolveMu.Lock()
	ent := e.resolved[key]
	if ent == nil || ent.dict != dict {
		filter, err := entityAttrFilter(ref, attr, f)
		if err != nil {
			e.resolveMu.Unlock()
			return nil, err
		}
		if e.resolved == nil {
			e.resolved = make(map[entityMatchKey]*entityMatchEntry)
		} else if len(e.resolved) >= entityMatchCap && ent == nil {
			var lru entityMatchKey
			oldest := ^uint64(0)
			for k, v := range e.resolved {
				if v.used < oldest {
					lru, oldest = k, v.used
				}
			}
			delete(e.resolved, lru)
		}
		ent = &entityMatchEntry{dict: dict, filter: filter}
		e.resolved[key] = ent
	}
	e.resolveClock++
	ent.used = e.resolveClock
	e.resolveMu.Unlock()

	ent.mu.Lock()
	defer ent.mu.Unlock()
	switch {
	case ent.set != nil && ent.n >= n:
		rs.hits++
		return ent.set, nil
	case ent.set != nil:
		rs.extends++
	default:
		rs.misses++
	}
	set, upto := dict.ResolveEntities(ref.Type, attr, &ent.filter, ent.set, ent.n)
	rs.examined += int64(upto - ent.n)
	ent.set, ent.n = set, upto
	return set, nil
}

// entityAttrFilter compiles one attribute filter for ResolveEntities:
// LIKE and string = match the LIKE pattern, string != its negation,
// and everything else compares numerically.
func entityAttrFilter(ref *ast.EntityRef, attr string, f *ast.Filter) (eventstore.AttrFilter, error) {
	switch {
	case f.Op == ast.CmpLike || f.Op == ast.CmpEQ && !f.Val.IsNum:
		return eventstore.AttrFilter{Pattern: like.Compile(f.Val.Str)}, nil
	case f.Op == ast.CmpNEQ && !f.Val.IsNum:
		return eventstore.AttrFilter{Pattern: like.Compile(f.Val.Str), Negate: true}, nil
	}
	num := f.Val.Num
	if !f.Val.IsNum {
		n, err := strconv.ParseFloat(f.Val.Str, 64)
		if err != nil {
			return eventstore.AttrFilter{}, fmt.Errorf("engine: attribute %s.%s compared with non-numeric value %q", ref.Name, attr, f.Val.Str)
		}
		num = n
	}
	var op eventstore.NumOp
	switch f.Op {
	case ast.CmpEQ:
		op = eventstore.NumEQ
	case ast.CmpNEQ:
		op = eventstore.NumNE
	case ast.CmpLT:
		op = eventstore.NumLT
	case ast.CmpLE:
		op = eventstore.NumLE
	case ast.CmpGT:
		op = eventstore.NumGT
	case ast.CmpGE:
		op = eventstore.NumGE
	default:
		return eventstore.AttrFilter{}, fmt.Errorf("engine: attribute %s.%s has an unsupported comparison", ref.Name, attr)
	}
	return eventstore.AttrFilter{Op: op, Num: num}, nil
}

// buildPlanFixed compiles the patterns and applies a previously computed
// scheduling order (pattern indices in execution sequence) instead of
// re-scheduling — the execute-many half of a prepared statement: no
// pruning-power estimates are computed at all.
func (e *Engine) buildPlanFixed(snap *eventstore.Snapshot, q *ast.MultieventQuery, order []int) (*queryPlan, error) {
	plan, err := e.compilePatterns(snap, q, false)
	if err != nil {
		return nil, err
	}
	orderPlan(plan, order)
	return plan, nil
}

// orderPlan reorders the pattern plans to the given sequence of original
// pattern indices. A mismatched order (defensive; cannot happen for a
// plan compiled from the template the order came from) leaves the
// syntactic order in place.
func orderPlan(plan *queryPlan, order []int) {
	if len(order) != len(plan.patterns) {
		return
	}
	byIdx := make(map[int]*patternPlan, len(plan.patterns))
	for _, pp := range plan.patterns {
		byIdx[pp.idx] = pp
	}
	ordered := make([]*patternPlan, 0, len(order))
	for _, idx := range order {
		pp, ok := byIdx[idx]
		if !ok {
			return
		}
		ordered = append(ordered, pp)
		delete(byIdx, idx)
	}
	plan.patterns = ordered
}

// compilePatterns compiles every pattern of a multievent query into a
// pattern plan and schedules them against one store snapshot. Scheduling
// follows the paper's two insights: patterns with higher pruning power
// (lower match estimates) run first, and each scan is confined to the
// spatial/temporal partitions implied by the global constraints.
// Estimates are only computed when something consumes them
// (needEstimates) — the scheduler, for two or more patterns with
// reordering on, or an explain — so single-pattern queries and
// executions of an already scheduled statement skip the per-unit
// estimation walk entirely.
func (e *Engine) compilePatterns(snap *eventstore.Snapshot, q *ast.MultieventQuery, needEstimates bool) (*queryPlan, error) {
	plan := &queryPlan{}
	if q.Head_.Window != nil {
		if q.Head_.Window.HasParams() {
			return nil, fmt.Errorf("engine: time window carries unbound parameters; prepare the query and bind them before executing")
		}
		plan.window = *q.Head_.Window
	}
	globalAgents, globalPreds, err := splitGlobals(q.Head_.Globals)
	if err != nil {
		return nil, err
	}
	// index temporal relations; event-attribute with-conditions fold into
	// their pattern's predicate list
	perEventConds := map[string][]ast.Filter{}
	for _, w := range q.With {
		switch c := w.(type) {
		case ast.TemporalRel:
			plan.rels = append(plan.rels, c)
		case ast.EventCond:
			perEventConds[c.Event] = append(perEventConds[c.Event], ast.Filter{
				Attr: c.Attr, Op: c.Op, Val: c.Val, Pos: c.Pos,
			})
		}
	}
	for i := range q.Patterns {
		pat := &q.Patterns[i]
		pp := &patternPlan{
			idx:     i,
			alias:   pat.Alias,
			subjVar: pat.Subject.Name,
			objVar:  pat.Object.Name,
			objType: pat.Object.Type,
		}
		pp.filter = eventstore.EventFilter{
			From:    plan.window.From,
			To:      plan.window.To,
			ObjType: pat.Object.Type,
			Agents:  append([]uint32{}, globalAgents...),
		}
		for _, op := range pat.Ops {
			o, ok := sysmon.ParseOperation(op)
			if !ok {
				return nil, fmt.Errorf("engine: unknown operation %q", op)
			}
			pp.filter.Ops = append(pp.filter.Ops, o)
		}
		pp.subjSet, err = e.entityCandidates(&pat.Subject, &plan.resolve)
		if err != nil {
			return nil, err
		}
		pp.objSet, err = e.entityCandidates(&pat.Object, &plan.resolve)
		if err != nil {
			return nil, err
		}
		pp.filter.Subjects = pp.subjSet
		pp.filter.Objects = pp.objSet
		pp.evtPreds = append(pp.evtPreds, globalPreds...)
		evtFilters := append(append([]ast.Filter{}, pat.EvtFilters...), perEventConds[pat.Alias]...)
		for _, f := range evtFilters {
			if f.Val.Param != "" {
				return nil, fmt.Errorf("engine: unbound parameter $%s; prepare the query and bind it before executing", f.Val.Param)
			}
			// agent equality narrows the spatial scope directly
			if (f.Attr == "agentid" || f.Attr == "agent_id") && f.Op == ast.CmpEQ {
				if a, ok := filterAgent(f); ok {
					pp.filter.Agents = append(pp.filter.Agents, a)
					continue
				}
			}
			pp.evtPreds = append(pp.evtPreds, compileEvtPred(f))
		}
		if needEstimates {
			var cost eventstore.EstimateCost
			pp.estimate, cost = snap.EstimateMatches(&pp.filter)
			plan.estCost.Units += cost.Units
			plan.estCost.Probes += cost.Probes
		}
		pp.cols = demandCols(q, i, plan.rels, pp.evtPreds)
		plan.patterns = append(plan.patterns, pp)
	}
	e.schedule(plan)
	return plan, nil
}

// splitGlobals separates global constraints into an agent list (spatial
// pruning) and residual event predicates.
func splitGlobals(globals []ast.Filter) ([]uint32, []evtPred, error) {
	var agents []uint32
	var preds []evtPred
	for _, f := range globals {
		if f.Val.Param != "" {
			return nil, nil, fmt.Errorf("engine: unbound parameter $%s; prepare the query and bind it before executing", f.Val.Param)
		}
		if (f.Attr == "agentid" || f.Attr == "agent_id") && f.Op == ast.CmpEQ {
			if a, ok := filterAgent(f); ok {
				agents = append(agents, a)
				continue
			}
		}
		preds = append(preds, compileEvtPred(f))
	}
	return agents, preds, nil
}

func filterAgent(f ast.Filter) (uint32, bool) {
	if f.Val.IsNum {
		if f.Val.Num >= 0 && f.Val.Num == float64(uint32(f.Val.Num)) {
			return uint32(f.Val.Num), true
		}
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimPrefix(f.Val.Str, "agent-"), 10, 32)
	if err != nil {
		return 0, false
	}
	return uint32(n), true
}

// schedule orders the pattern plans. The optimized strategy runs the most
// selective pattern first and then greedily picks, among patterns sharing
// an entity variable with what has already run (to keep joins connected),
// the one with the lowest estimate. Reordering can be disabled for the
// ablation experiment, leaving syntactic order.
func (e *Engine) schedule(plan *queryPlan) {
	if e.cfg.DisableReordering || len(plan.patterns) <= 1 {
		return
	}
	remaining := append([]*patternPlan{}, plan.patterns...)
	sort.SliceStable(remaining, func(i, j int) bool { return remaining[i].estimate < remaining[j].estimate })

	bound := map[string]bool{}
	var ordered []*patternPlan
	pick := func(k int) {
		p := remaining[k]
		remaining = append(remaining[:k], remaining[k+1:]...)
		ordered = append(ordered, p)
		bound[p.subjVar] = true
		bound[p.objVar] = true
	}
	pick(0)
	for len(remaining) > 0 {
		chosen := -1
		for k, p := range remaining {
			if bound[p.subjVar] || bound[p.objVar] {
				chosen = k
				break
			}
		}
		if chosen < 0 {
			chosen = 0 // disconnected component: fall back to global minimum
		}
		pick(chosen)
	}
	plan.patterns = ordered
}
