package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

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
// reference is unconstrained).
func (e *Engine) entityCandidates(ref *ast.EntityRef) (*eventstore.IDSet, error) {
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
		cur, err := e.cachedEntityMatch(dict, ref, attr, f)
		if err != nil {
			return nil, err
		}
		set = set.Intersect(cur)
	}
	return set, nil
}

// entityMatchKey identifies one attribute filter's resolution; together
// with the dictionary identity and per-type entity count it fully
// determines the resolved ID set.
type entityMatchKey struct {
	typ   sysmon.EntityType
	attr  string
	op    ast.CmpOp
	str   string
	num   float64
	isNum bool
}

// entityMatchEntry is one memoized resolution. The entry is valid while
// the same dictionary still holds exactly n entities of the filter's
// type: entity tables are append-only with immutable entries, so an
// unchanged count guarantees an unchanged match set. The set is shared
// and must be treated as read-only (Intersect copies).
type entityMatchEntry struct {
	dict *eventstore.Dictionary
	n    int
	set  *eventstore.IDSet
}

// entityMatchCap bounds the resolution memo; the population is one
// entry per distinct attribute filter across live queries, so the cap
// exists only to survive adversarial query streams.
const entityMatchCap = 512

// cachedEntityMatch resolves one attribute filter against the entity
// dictionary, memoizing by filter + dictionary + entity count. Standing
// queries re-evaluate after every ingest commit; when a commit touched
// only events (or entities of other types), the wildcard re-scan of the
// dictionary — linear in interned entities — is skipped entirely, which
// keeps post-ingest re-evaluation proportional to the fresh delta.
func (e *Engine) cachedEntityMatch(dict *eventstore.Dictionary, ref *ast.EntityRef, attr string, f *ast.Filter) (*eventstore.IDSet, error) {
	key := entityMatchKey{typ: ref.Type, attr: attr, op: f.Op, str: f.Val.Str, num: f.Val.Num, isNum: f.Val.IsNum}
	// the count is read before resolving: interns racing the resolution
	// can only make the resolved set larger than the recorded count
	// admits, which future lookups see as a stale count — a miss, never
	// a wrong hit
	n := dict.Count(ref.Type)
	e.resolveMu.Lock()
	if ent, ok := e.resolved[key]; ok && ent.dict == dict && ent.n == n {
		e.resolveMu.Unlock()
		return ent.set, nil
	}
	e.resolveMu.Unlock()
	cur, err := matchEntityFilter(dict, ref, attr, f)
	if err != nil {
		return nil, err
	}
	e.resolveMu.Lock()
	if e.resolved == nil {
		e.resolved = make(map[entityMatchKey]entityMatchEntry)
	} else if len(e.resolved) >= entityMatchCap {
		e.resolved = make(map[entityMatchKey]entityMatchEntry)
	}
	e.resolved[key] = entityMatchEntry{dict: dict, n: n, set: cur}
	e.resolveMu.Unlock()
	return cur, nil
}

// matchEntityFilter is the uncached resolution of one attribute filter.
func matchEntityFilter(dict *eventstore.Dictionary, ref *ast.EntityRef, attr string, f *ast.Filter) (*eventstore.IDSet, error) {
	switch f.Op {
	case ast.CmpLike:
		return dict.MatchEntities(ref.Type, attr, like.Compile(f.Val.Str)), nil
	case ast.CmpEQ:
		if f.Val.IsNum {
			return matchNumeric(dict, ref.Type, attr, f.Op, f.Val.Num), nil
		}
		return dict.MatchEntities(ref.Type, attr, like.Compile(f.Val.Str)), nil
	case ast.CmpNEQ:
		if f.Val.IsNum {
			return matchNumeric(dict, ref.Type, attr, f.Op, f.Val.Num), nil
		}
		pat := like.Compile(f.Val.Str)
		return matchPredicate(dict, ref.Type, attr, func(v string) bool { return !pat.Match(v) }), nil
	default: // numeric comparisons
		num := f.Val.Num
		if !f.Val.IsNum {
			n, err := strconv.ParseFloat(f.Val.Str, 64)
			if err != nil {
				return nil, fmt.Errorf("engine: attribute %s.%s compared with non-numeric value %q", ref.Name, attr, f.Val.Str)
			}
			num = n
		}
		return matchNumeric(dict, ref.Type, attr, f.Op, num), nil
	}
}

func matchPredicate(dict *eventstore.Dictionary, t sysmon.EntityType, attr string, pred func(string) bool) *eventstore.IDSet {
	out := eventstore.NewIDSet()
	n := dict.Count(t)
	for i := 1; i <= n; i++ {
		if pred(dict.Attr(t, sysmon.EntityID(i), attr)) {
			out.Add(sysmon.EntityID(i))
		}
	}
	return out
}

func matchNumeric(dict *eventstore.Dictionary, t sysmon.EntityType, attr string, op ast.CmpOp, num float64) *eventstore.IDSet {
	return matchPredicate(dict, t, attr, func(v string) bool {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return false
		}
		switch op {
		case ast.CmpEQ:
			return x == num
		case ast.CmpNEQ:
			return x != num
		case ast.CmpLT:
			return x < num
		case ast.CmpLE:
			return x <= num
		case ast.CmpGT:
			return x > num
		case ast.CmpGE:
			return x >= num
		}
		return false
	})
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
		pp.subjSet, err = e.entityCandidates(&pat.Subject)
		if err != nil {
			return nil, err
		}
		pp.objSet, err = e.entityCandidates(&pat.Object)
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
