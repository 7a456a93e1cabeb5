package engine

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/aiql/aiql/internal/aiql/ast"
	"github.com/aiql/aiql/internal/aiql/semantic"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/numfmt"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/sysmon"
)

// aggState accumulates one aggregate over one (window, group) cell. One
// state reproduces any of the five aggregate functions.
type aggState struct {
	count int64
	sum   float64
	min   float64
	max   float64
}

func (a *aggState) add(v float64) {
	if a.count == 0 {
		a.min, a.max = v, v
	} else {
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
	}
	a.count++
	a.sum += v
}

func (a *aggState) value(fn string) float64 {
	switch fn {
	case "count":
		return float64(a.count)
	case "sum":
		return a.sum
	case "avg":
		if a.count == 0 {
			return 0
		}
		return a.sum / float64(a.count)
	case "min":
		return a.min
	case "max":
		return a.max
	default:
		return math.NaN()
	}
}

// groupCell is the per-group state across all windows.
type groupCell struct {
	keys []string              // rendered non-aggregate return cells
	aggs map[string][]aggState // alias → per-window states
}

// anomalyEnv resolves variables during anomaly evaluation: the single
// pattern's subject/object roles plus the aggregate alias table.
type anomalyEnv struct {
	subjName string
	objName  string
	objType  sysmon.EntityType
	aggFns   map[string]string // alias → aggregate function
}

// floorDiv is integer division rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// runAnomaly evaluates an anomaly query: partition the matched events
// into sliding windows by timestamp, compute the aggregates per window
// and group, and enforce the having filter, which may access historical
// window results (paper §2.3). Aggregation is inherently total — every
// matching event contributes before any window can be judged — but the
// result windows stream: each surviving (group, window) row is emitted
// as it is evaluated (groups in sorted order, windows ascending), so
// downstream consumers see first rows before the emission loop finishes
// and a satisfied limit stops the loop early.
func (e *Engine) runAnomaly(ctx context.Context, snap *eventstore.Snapshot, q *ast.AnomalyQuery, info *semantic.Info, stats *ExecStats, out *rowChunker) error {
	plan, err := e.anomalyPlan(snap, q)
	if err != nil {
		return err
	}
	stats.addResolve(plan.resolve)
	pp := plan.patterns[0]
	qsp := obs.SpanFromContext(ctx)
	ss := e.beginScanSpan(qsp, "scan "+pp.alias, stats)
	events := e.scanPattern(ctx, snap, &pp.filter, pp, stats)
	e.endScanSpan(ss, len(events))
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("engine: query aborted: %w", err)
	}
	stats.PatternOrder = []string{pp.alias}

	// window extent: explicit time window, else the data's extent
	from, to := plan.window.From, plan.window.To
	if from == 0 || to == 0 {
		minTS, maxTS := snap.TimeRange()
		if from == 0 {
			from = minTS
		}
		if to == 0 {
			to = maxTS + 1
		}
	}
	if to <= from || len(events) == 0 {
		return nil
	}
	step, win := int64(q.Step), int64(q.Window)
	numWin := int((to-1-from)/step) + 1
	asp := qsp.Child("aggregate")
	asp.SetInt("windows", int64(numWin))
	defer asp.End()

	env := &anomalyEnv{
		subjName: q.Pattern.Subject.Name,
		objName:  q.Pattern.Object.Name,
		objType:  q.Pattern.Object.Type,
		aggFns:   map[string]string{},
	}

	// split return items into aggregates and group keys
	type aggItem struct {
		alias string
		fn    string
		arg   ast.Expr
	}
	var aggItems []aggItem
	var keyIdx []int
	for i := range q.Return {
		if call, ok := q.Return[i].Expr.(*ast.CallExpr); ok {
			alias := q.Return[i].Alias
			if alias == "" {
				alias = call.Func
			}
			aggItems = append(aggItems, aggItem{alias: alias, fn: call.Func, arg: call.Arg})
			env.aggFns[alias] = call.Func
		} else {
			keyIdx = append(keyIdx, i)
		}
	}
	groupExprs := q.GroupBy
	if len(groupExprs) == 0 {
		for _, i := range keyIdx {
			groupExprs = append(groupExprs, q.Return[i].Expr)
		}
	}
	ents := newEntityReader(e.store.Dict())
	groupGet, err := compileEventExprs(groupExprs, info, env, ents)
	if err != nil {
		return err
	}
	keyExprs := make([]ast.Expr, len(keyIdx))
	for k, ri := range keyIdx {
		keyExprs[k] = q.Return[ri].Expr
	}
	keyGet, err := compileEventExprs(keyExprs, info, env, ents)
	if err != nil {
		return err
	}

	groups := map[string]*groupCell{}
	var (
		groupOrder []string
		gkBuf      []byte // the group key being looked up
	)
	for i := range events {
		// window aggregation over a huge match set must honor the
		// deadline just as the scans do
		if i%joinCheckInterval == joinCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("engine: query aborted: %w", err)
			}
		}
		ev := &events[i]
		if ev.StartTS < from || ev.StartTS >= to {
			continue
		}
		gkBuf = gkBuf[:0]
		for k, get := range groupGet {
			if k > 0 {
				gkBuf = append(gkBuf, 0)
			}
			gkBuf = append(gkBuf, get(ev)...)
		}
		cell := groups[string(gkBuf)]
		if cell == nil {
			cell = &groupCell{aggs: map[string][]aggState{}}
			for _, it := range aggItems {
				cell.aggs[it.alias] = make([]aggState, numWin)
			}
			for _, get := range keyGet {
				cell.keys = append(cell.keys, get(ev))
			}
			gk := string(gkBuf)
			groups[gk] = cell
			groupOrder = append(groupOrder, gk)
		}
		// the event belongs to every window k with
		// from+k*step <= ts < from+k*step+win
		off := ev.StartTS - from
		kHigh := off / step
		kLow := floorDiv(off-win, step) + 1
		if kLow < 0 {
			kLow = 0
		}
		for k := kLow; k <= kHigh && k < int64(numWin); k++ {
			for _, it := range aggItems {
				v := 1.0
				if it.fn != "count" && it.arg != nil {
					av, err := e.eventExprNum(it.arg, info, ev)
					if err != nil {
						return err
					}
					v = av
				}
				cell.aggs[it.alias][k].add(v)
			}
		}
	}
	sort.Strings(groupOrder)

	// Windows without full history for the deepest lag the having clause
	// references are skipped: a model comparing against previous windows
	// needs those windows to exist.
	firstWin := 0
	if q.Having != nil {
		firstWin = maxLag(q.Having)
	}
	var (
		seen   = map[string]struct{}{} // identical rows recur across windows
		keyBuf []byte                  // scratch for a row's seen key
	)
	for _, gk := range groupOrder {
		cell := groups[gk]
		for k := firstWin; k < numWin; k++ {
			active := false
			for _, it := range aggItems {
				if cell.aggs[it.alias][k].count > 0 {
					active = true
					break
				}
			}
			if !active {
				continue
			}
			if q.Having != nil {
				v, err := evalHavingNum(q.Having, cell, env, k)
				if err != nil {
					return err
				}
				if v == 0 {
					continue
				}
			}
			row := out.row(len(q.Return))
			ki, ai := 0, 0
			for i := range q.Return {
				if _, isAgg := q.Return[i].Expr.(*ast.CallExpr); isAgg {
					it := aggItems[ai]
					ai++
					row[i] = numfmt.Format(cell.aggs[it.alias][k].value(it.fn))
				} else {
					row[i] = cell.keys[ki]
					ki++
				}
			}
			keyBuf = appendRowKey(keyBuf[:0], row)
			if _, dup := seen[string(keyBuf)]; dup {
				continue
			}
			seen[string(keyBuf)] = struct{}{}
			if !out.emit(row) {
				return nil
			}
		}
	}
	return nil
}

// anomalyPlan reuses the multievent planner for an anomaly query's
// single pattern. The return and group-by expressions ride along only so
// the planner sees what they read of an event (the scan's column
// demand); the having clause reads aggregates, never events.
func (e *Engine) anomalyPlan(snap *eventstore.Snapshot, q *ast.AnomalyQuery) (*queryPlan, error) {
	mq := &ast.MultieventQuery{Head_: q.Head_, Patterns: []ast.EventPattern{q.Pattern},
		Return: append([]ast.ReturnItem(nil), q.Return...)}
	for _, g := range q.GroupBy {
		mq.Return = append(mq.Return, ast.ReturnItem{Expr: g})
	}
	return e.compilePatterns(snap, mq, false)
}

// maxLag returns the deepest historical window access in an expression.
func maxLag(e ast.Expr) int {
	switch x := e.(type) {
	case *ast.HistExpr:
		return x.Lag
	case *ast.BinaryExpr:
		l, r := maxLag(x.L), maxLag(x.R)
		if l > r {
			return l
		}
		return r
	case *ast.UnaryExpr:
		return maxLag(x.X)
	default:
		return 0
	}
}

// eventGetter renders a non-aggregate expression against one event.
type eventGetter func(ev *sysmon.Event) string

// compileEventExprs compiles group-key or return expressions into one
// getter each, entity attributes read through ents.
func compileEventExprs(exprs []ast.Expr, info *semantic.Info, env *anomalyEnv, ents *entityReader) ([]eventGetter, error) {
	out := make([]eventGetter, len(exprs))
	for i, x := range exprs {
		g, err := compileEventExpr(x, info, env, ents)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}

func compileEventExpr(expr ast.Expr, info *semantic.Info, env *anomalyEnv, ents *entityReader) (eventGetter, error) {
	switch x := expr.(type) {
	case *ast.AttrExpr:
		if t, ok := info.Vars[x.Var]; ok {
			attr := ents.attrFunc(t, x.Attr)
			switch x.Var {
			case env.subjName:
				return func(ev *sysmon.Event) string { return attr(ev.Subject) }, nil
			case env.objName:
				return func(ev *sysmon.Event) string { return attr(ev.Object) }, nil
			default:
				return nil, fmt.Errorf("engine: variable %q is not part of the anomaly pattern", x.Var)
			}
		}
		if _, ok := info.Events[x.Var]; ok {
			if !sysmon.ValidEventAttr(x.Attr) {
				return nil, fmt.Errorf("engine: unknown event attribute %q", x.Attr)
			}
			return func(ev *sysmon.Event) string {
				v, _ := sysmon.EventAttr(ev, x.Attr)
				return v
			}, nil
		}
		return nil, fmt.Errorf("engine: unknown variable %q", x.Var)
	case *ast.NumberLit:
		v := numfmt.Format(x.Val)
		return func(*sysmon.Event) string { return v }, nil
	case *ast.StringLit:
		return func(*sysmon.Event) string { return x.Val }, nil
	default:
		return nil, fmt.Errorf("engine: unsupported group expression %s", ast.ExprString(expr))
	}
}

// eventExprNum evaluates an aggregate argument numerically for one event.
func (e *Engine) eventExprNum(expr ast.Expr, info *semantic.Info, ev *sysmon.Event) (float64, error) {
	switch x := expr.(type) {
	case *ast.AttrExpr:
		if _, ok := info.Events[x.Var]; ok {
			switch x.Attr {
			case "amount":
				return float64(ev.Amount), nil
			case "agentid", "agent_id":
				return float64(ev.AgentID), nil
			case "id":
				return float64(ev.ID), nil
			case "seq":
				return float64(ev.Seq), nil
			case "starttime", "start_time":
				return float64(ev.StartTS), nil
			case "endtime", "end_time":
				return float64(ev.EndTS), nil
			}
			return 0, fmt.Errorf("engine: event attribute %q is not numeric", x.Attr)
		}
		return 0, fmt.Errorf("engine: aggregate argument must be an event attribute, got %s", ast.ExprString(expr))
	case *ast.VarExpr:
		return 1, nil // count(evt): value is irrelevant
	case *ast.NumberLit:
		return x.Val, nil
	default:
		return 0, fmt.Errorf("engine: unsupported aggregate argument %s", ast.ExprString(expr))
	}
}

// evalHavingNum evaluates a having expression for a group at window k.
// Comparisons and logical operators yield 1/0; history before the first
// window reads as 0.
func evalHavingNum(expr ast.Expr, cell *groupCell, env *anomalyEnv, k int) (float64, error) {
	switch x := expr.(type) {
	case *ast.NumberLit:
		return x.Val, nil
	case *ast.VarExpr:
		return aggAt(cell, env, x.Name, k)
	case *ast.HistExpr:
		return aggAt(cell, env, x.Name, k-x.Lag)
	case *ast.UnaryExpr:
		v, err := evalHavingNum(x.X, cell, env, k)
		if err != nil {
			return 0, err
		}
		if x.Op == "not" {
			return b2f(v == 0), nil
		}
		return -v, nil
	case *ast.BinaryExpr:
		l, err := evalHavingNum(x.L, cell, env, k)
		if err != nil {
			return 0, err
		}
		r, err := evalHavingNum(x.R, cell, env, k)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, nil
			}
			return l / r, nil
		case "=":
			return b2f(l == r), nil
		case "!=":
			return b2f(l != r), nil
		case "<":
			return b2f(l < r), nil
		case "<=":
			return b2f(l <= r), nil
		case ">":
			return b2f(l > r), nil
		case ">=":
			return b2f(l >= r), nil
		case "and":
			return b2f(l != 0 && r != 0), nil
		case "or":
			return b2f(l != 0 || r != 0), nil
		}
		return 0, fmt.Errorf("engine: unsupported having operator %q", x.Op)
	default:
		return 0, fmt.Errorf("engine: unsupported having expression %s", ast.ExprString(expr))
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// aggAt reads an aggregate alias at window k; out-of-range windows read 0.
func aggAt(cell *groupCell, env *anomalyEnv, alias string, k int) (float64, error) {
	fn, ok := env.aggFns[alias]
	if !ok {
		return 0, fmt.Errorf("engine: unknown aggregate alias %q in having", alias)
	}
	states := cell.aggs[alias]
	if k < 0 || k >= len(states) {
		return 0, nil
	}
	return states[k].value(fn), nil
}
