package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"github.com/aiql/aiql/internal/aiql/ast"
	"github.com/aiql/aiql/internal/aiql/parser"
	"github.com/aiql/aiql/internal/aiql/semantic"
	"github.com/aiql/aiql/internal/numfmt"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/qtext"
)

// ParamType and ParamSpec describe one entry of a prepared statement's
// typed parameter signature, inferred by the semantic pass from each
// placeholder's position.
type (
	// ParamType is the value class a placeholder accepts.
	ParamType = semantic.ParamType
	// ParamSpec is one (name, type) signature entry.
	ParamSpec = semantic.ParamSpec
)

// Parameter types (re-exported from the semantic pass).
const (
	ParamString = semantic.ParamString
	ParamNumber = semantic.ParamNumber
	ParamTime   = semantic.ParamTime
)

// Params carries the bindings for one execution of a prepared
// statement: placeholder name → value. Strings bind string and time
// parameters; float64/int (JSON numbers) bind number parameters; a
// numeric string is accepted for a number parameter.
type Params map[string]any

// ParamErrCode classifies a binding failure.
type ParamErrCode string

// Binding failure classes, mirrored by the HTTP error model's codes.
const (
	ParamUnknown  ParamErrCode = "unknown_param"
	ParamMissing  ParamErrCode = "missing_param"
	ParamMismatch ParamErrCode = "param_type_mismatch"
)

// ParamError reports a bad binding: a name the statement does not
// declare, a declared parameter with no binding, or a value of the
// wrong type.
type ParamError struct {
	Code ParamErrCode
	Name string
	Msg  string
}

// Error implements the error interface.
func (e *ParamError) Error() string { return "engine: " + e.Msg }

// Prepared is an immutable compiled query template: the checked AST
// with `$name` placeholders still in place, its typed parameter
// signature, the scheduled pattern order (computed once, from
// pruning-power estimates with placeholders unconstrained), and a
// fingerprint identifying the template across reformattings. Binding
// substitutes values into a private copy, so one Prepared serves any
// number of concurrent executions.
type Prepared struct {
	src         string
	kind        string
	fingerprint uint64
	params      []ParamSpec

	info *semantic.Info
	mq   *ast.MultieventQuery // executable template; dependency queries arrive rewritten
	aq   *ast.AnomalyQuery    // set instead of mq for anomaly queries

	// stripped is the template with parameterized constraints removed,
	// used for estimate-based explains; order is the scheduled pattern
	// sequence (original indices) every execution reuses.
	stripped *ast.MultieventQuery
	order    []int

	// plan is the fully compiled prepare-time pattern plan, kept only
	// for parameterless multievent/dependency statements (the stripped
	// template IS the executable query then). Executions reuse it while
	// the store sits at planCommits — snapshots are memoized between
	// commits, so the candidate sets are still exact — which makes the
	// one-shot Execute wrapper compile exactly once.
	plan        *queryPlan
	planCommits uint64
}

// Source returns the original query text.
func (p *Prepared) Source() string { return p.src }

// Kind returns the query family: multievent, dependency, or anomaly.
func (p *Prepared) Kind() string { return p.kind }

// Columns returns the result header the statement produces.
func (p *Prepared) Columns() []string { return p.info.Columns }

// Distinct reports whether execution drops duplicate result rows
// (`return distinct` on a multievent or dependency query).
func (p *Prepared) Distinct() bool { return p.mq != nil && p.mq.Distinct }

// Params returns the typed parameter signature in first-appearance
// order. The returned slice must not be mutated.
func (p *Prepared) Params() []ParamSpec { return p.params }

// Fingerprint identifies the template: a hash of the
// whitespace-normalized source, so reformatting the same template maps
// to the same fingerprint while any semantic change produces a new one.
func (p *Prepared) Fingerprint() uint64 { return p.fingerprint }

// Fingerprint hashes query text the way Prepared fingerprints do.
func Fingerprint(src string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(qtext.Normalize(src)))
	return h.Sum64()
}

// Prepare compiles one AIQL query into an immutable template:
// parse → semantic check (parameter signature inference) → dependency
// rewrite → pattern scheduling, everything execution can reuse. The
// scheduling estimates treat parameterized constraints as
// unconstrained, so the order is computed once and every execution
// skips the parse/check/estimate passes entirely.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	p, err := e.compile(src)
	if err != nil {
		return nil, err
	}
	if _, err := e.schedulePrepared(p); err != nil {
		return nil, err
	}
	return p, nil
}

// compile is the front half of Prepare: parse, semantic check and
// dependency rewrite, into a template that is not scheduled yet.
func (e *Engine) compile(src string) (*Prepared, error) {
	q, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	p := &Prepared{src: src, kind: q.Kind(), fingerprint: Fingerprint(src)}
	switch x := q.(type) {
	case *ast.DependencyQuery:
		if _, err := semantic.Check(x); err != nil {
			return nil, err
		}
		mq, err := RewriteDependency(x)
		if err != nil {
			return nil, err
		}
		if p.info, err = semantic.Check(mq); err != nil {
			return nil, err
		}
		p.mq = mq
	case *ast.MultieventQuery:
		if p.info, err = semantic.Check(x); err != nil {
			return nil, err
		}
		p.mq = x
	case *ast.AnomalyQuery:
		if p.info, err = semantic.Check(x); err != nil {
			return nil, err
		}
		p.aq = x
	default:
		return nil, fmt.Errorf("engine: unsupported query type %T", q)
	}
	p.params = p.info.Params
	return p, nil
}

// schedulePrepared is the back half of Prepare: it estimates and orders
// the template's patterns, once, before the template is shared, and
// returns the compiled plan, which carries what the estimates and the
// entity resolution cost. The stripped copy drops parameterized
// constraints (their selectivity is unknowable until bind time), so
// estimates are conservative; the resulting order is frozen into the
// plan.
func (e *Engine) schedulePrepared(p *Prepared) (*queryPlan, error) {
	if p.mq != nil {
		p.stripped = stripParams(cloneMultievent(p.mq))
	} else {
		p.stripped = stripParams(cloneMultievent(&ast.MultieventQuery{
			Head_:    *p.aq.Header(),
			Patterns: []ast.EventPattern{p.aq.Pattern},
		}))
	}
	needEstimates := len(p.stripped.Patterns) > 1 && !e.cfg.DisableReordering
	commits := e.store.Commits()
	plan, err := e.compilePatterns(e.store.Snapshot(), p.stripped, needEstimates)
	if err != nil {
		return nil, err
	}
	for _, pp := range plan.patterns {
		p.order = append(p.order, pp.idx)
	}
	if len(p.params) == 0 && p.mq != nil {
		p.plan = plan
		p.planCommits = commits
	}
	return plan, nil
}

// Bind substitutes params into a private copy of the template and
// returns the executable query. It rejects bindings for names the
// signature does not declare, missing bindings, and values of the
// wrong type; the template itself is never mutated.
func (p *Prepared) Bind(params Params) (ast.Query, error) {
	vals, err := p.coerceParams(params)
	if err != nil {
		return nil, err
	}
	if p.aq != nil {
		bound := cloneAnomaly(p.aq)
		if err := bindQuery(&bound.Head_, []*ast.EventPattern{&bound.Pattern}, nil, vals); err != nil {
			return nil, err
		}
		return bound, nil
	}
	bound := cloneMultievent(p.mq)
	if err := bindQuery(&bound.Head_, patternPtrs(bound.Patterns), bound.With, vals); err != nil {
		return nil, err
	}
	return bound, nil
}

// CheckParams validates params against the signature — unknown names,
// missing bindings, type coercion — without cloning the template; the
// cheap pre-admission check services run before Bind.
func (p *Prepared) CheckParams(params Params) error {
	_, err := p.coerceParams(params)
	return err
}

// coerceParams validates the bindings against the signature and coerces
// each value to its declared type.
func (p *Prepared) coerceParams(params Params) (map[string]ast.Value, error) {
	for name := range params {
		if !p.declares(name) {
			return nil, &ParamError{Code: ParamUnknown, Name: name,
				Msg: fmt.Sprintf("unknown parameter $%s (statement declares: %s)", name, p.signatureList())}
		}
	}
	vals := make(map[string]ast.Value, len(p.params))
	for _, spec := range p.params {
		raw, ok := params[spec.Name]
		if !ok {
			return nil, &ParamError{Code: ParamMissing, Name: spec.Name,
				Msg: fmt.Sprintf("missing parameter $%s (%s)", spec.Name, spec.Type)}
		}
		v, err := coerceValue(spec, raw)
		if err != nil {
			return nil, err
		}
		vals[spec.Name] = v
	}
	return vals, nil
}

func (p *Prepared) declares(name string) bool {
	for _, spec := range p.params {
		if spec.Name == name {
			return true
		}
	}
	return false
}

func (p *Prepared) signatureList() string {
	if len(p.params) == 0 {
		return "none"
	}
	parts := make([]string, 0, len(p.params))
	for _, spec := range p.params {
		parts = append(parts, fmt.Sprintf("$%s (%s)", spec.Name, spec.Type))
	}
	return strings.Join(parts, ", ")
}

// coerceValue converts one binding to the declared parameter type.
func coerceValue(spec ParamSpec, raw any) (ast.Value, error) {
	mismatch := func(want string) error {
		return &ParamError{Code: ParamMismatch, Name: spec.Name,
			Msg: fmt.Sprintf("parameter $%s expects a %s value, got %v (%T)", spec.Name, want, raw, raw)}
	}
	switch spec.Type {
	case ParamString:
		switch x := raw.(type) {
		case string:
			return ast.Value{Str: x}, nil
		case float64:
			return ast.Value{Str: numfmt.Format(x)}, nil
		case int:
			return ast.Value{Str: strconv.Itoa(x)}, nil
		}
		return ast.Value{}, mismatch("string")
	case ParamNumber:
		switch x := raw.(type) {
		case float64:
			return numValue(x), nil
		case int:
			return numValue(float64(x)), nil
		case int64:
			return numValue(float64(x)), nil
		case string:
			n, err := strconv.ParseFloat(x, 64)
			if err != nil {
				return ast.Value{}, mismatch("number")
			}
			return numValue(n), nil
		}
		return ast.Value{}, mismatch("number")
	case ParamTime:
		s, ok := raw.(string)
		if !ok {
			return ast.Value{}, mismatch("time")
		}
		if _, _, err := parser.ParseInstant(s, false); err != nil {
			return ast.Value{}, &ParamError{Code: ParamMismatch, Name: spec.Name,
				Msg: fmt.Sprintf("parameter $%s expects a time literal: %v", spec.Name, err)}
		}
		return ast.Value{Str: s}, nil
	}
	return ast.Value{}, mismatch(string(spec.Type))
}

func numValue(n float64) ast.Value {
	return ast.Value{IsNum: true, Num: n, Str: strconv.FormatFloat(n, 'g', -1, 64)}
}

// bindQuery substitutes coerced values into the cloned query's head,
// patterns, and with-conditions.
func bindQuery(head *ast.Head, pats []*ast.EventPattern, with []ast.WithCond, vals map[string]ast.Value) error {
	if err := bindWindow(head.Window, vals); err != nil {
		return err
	}
	bindFilters(head.Globals, vals)
	for _, pat := range pats {
		bindFilters(pat.Subject.Filters, vals)
		bindFilters(pat.Object.Filters, vals)
		bindFilters(pat.EvtFilters, vals)
	}
	for i, w := range with {
		if c, ok := w.(ast.EventCond); ok && c.Val.Param != "" {
			c.Val = vals[c.Val.Param]
			with[i] = c
		}
	}
	return nil
}

// bindFilters replaces placeholder values in place (the slice belongs
// to a private clone). An equality filter bound to a string containing
// LIKE wildcards becomes a LIKE filter — the same rule the parser
// applies to literals.
func bindFilters(fs []ast.Filter, vals map[string]ast.Value) {
	for i := range fs {
		if fs[i].Val.Param == "" {
			continue
		}
		v := vals[fs[i].Val.Param]
		fs[i].Val = v
		if fs[i].Op == ast.CmpEQ && !v.IsNum && strings.ContainsAny(v.Str, "%_") {
			fs[i].Op = ast.CmpLike
		}
	}
}

// bindWindow resolves time-window placeholders: `at $p` expands to the
// literal's whole-day (or whole-hour) window, `from $a to $b` parses
// each bound. The bound window must be non-empty.
func bindWindow(w *ast.TimeWindow, vals map[string]ast.Value) error {
	if w == nil || !w.HasParams() {
		return nil
	}
	if w.AtParam != "" {
		lit := vals[w.AtParam].Str
		from, to, err := parser.ParseInstant(lit, true)
		if err != nil {
			return &ParamError{Code: ParamMismatch, Name: w.AtParam,
				Msg: fmt.Sprintf("parameter $%s: %v", w.AtParam, err)}
		}
		w.From, w.To = from, to
		w.Raw = fmt.Sprintf("at %q", lit)
		w.AtParam = ""
		return nil
	}
	if w.FromParam != "" {
		lit := vals[w.FromParam].Str
		from, _, err := parser.ParseInstant(lit, false)
		if err != nil {
			return &ParamError{Code: ParamMismatch, Name: w.FromParam,
				Msg: fmt.Sprintf("parameter $%s: %v", w.FromParam, err)}
		}
		w.From = from
		w.FromParam = ""
	}
	if w.ToParam != "" {
		lit := vals[w.ToParam].Str
		to, _, err := parser.ParseInstant(lit, false)
		if err != nil {
			return &ParamError{Code: ParamMismatch, Name: w.ToParam,
				Msg: fmt.Sprintf("parameter $%s: %v", w.ToParam, err)}
		}
		w.To = to
		w.ToParam = ""
	}
	if w.From != 0 && w.To != 0 && w.To <= w.From {
		return &ParamError{Code: ParamMismatch,
			Msg: fmt.Sprintf("bound time window is empty: %s is not after %s",
				time.Unix(0, w.To).UTC().Format("2006-01-02 15:04:05"),
				time.Unix(0, w.From).UTC().Format("2006-01-02 15:04:05"))}
	}
	w.Raw = fmt.Sprintf("from %q to %q",
		time.Unix(0, w.From).UTC().Format("2006-01-02 15:04:05"),
		time.Unix(0, w.To).UTC().Format("2006-01-02 15:04:05"))
	return nil
}

// ExecutePrepared binds params and runs the statement, materializing
// the result in the engine's canonical sorted order — the execute-many
// half of Prepare: no parse, no semantic pass, no re-scheduling.
func (e *Engine) ExecutePrepared(ctx context.Context, p *Prepared, params Params) (*Result, error) {
	start := time.Now()
	cur, err := e.ExecutePreparedCursor(ctx, p, params, CursorOptions{})
	if err != nil {
		return nil, err
	}
	return materializeCursor(cur, start)
}

// ExecutePreparedCursor binds params and starts the statement as a
// streaming cursor. The execution pins one store snapshot end to end
// and reuses the prepare-time pattern order, so concurrent executions
// of one statement share the compiled plan while each sees its own
// frozen segment set.
func (e *Engine) ExecutePreparedCursor(ctx context.Context, p *Prepared, params Params, opts CursorOptions) (*Cursor, error) {
	return e.executePlanned(ctx, p, params, opts)
}

// executePlanned is everything between a checked template and a running
// cursor, under one plan span: scheduling when the template is fresh
// from compile and has no pattern order yet (a one-shot execution, its
// template still private — the span and the statistics then carry what
// the estimates cost), binding, and compiling the pattern plans against
// the pinned snapshot. The whole execution runs against
// that one lock-free snapshot, so concurrent appends and seals never
// move data under the query and a cursor iterated across a store
// mutation still sees the segment set that existed when it began.
func (e *Engine) executePlanned(ctx context.Context, p *Prepared, params Params, opts CursorOptions) (*Cursor, error) {
	psp := obs.SpanFromContext(ctx).Child("plan")
	var planned ExecStats
	defer func() {
		psp.SetInt("estimate_units", planned.EstimateUnits)
		psp.SetInt("estimate_probes", planned.EstimateProbes)
		psp.SetInt("entities_examined", planned.EntitiesExamined)
		psp.SetInt("resolve_hits", planned.ResolveHits)
		psp.SetInt("resolve_extends", planned.ResolveExtends)
		psp.SetInt("resolve_misses", planned.ResolveMisses)
		psp.End()
	}()
	if p.order == nil {
		plan, err := e.schedulePrepared(p)
		if err != nil {
			return nil, err
		}
		planned.EstimateUnits, planned.EstimateProbes = plan.estCost.Units, plan.estCost.Probes
		planned.addResolve(plan.resolve)
	}
	bound, err := p.Bind(params)
	if err != nil {
		return nil, err
	}
	snap := e.store.Snapshot()
	if aq, ok := bound.(*ast.AnomalyQuery); ok {
		run := func(cctx context.Context, stats *ExecStats, out *rowChunker) error {
			return e.runAnomaly(cctx, snap, aq, p.info, stats, out)
		}
		return e.startCursor(ctx, p, opts, planned, run), nil
	}
	mq := bound.(*ast.MultieventQuery)
	// Parameterless statements on an unchanged store reuse the
	// prepare-time plan outright (pattern plans are read-only during
	// execution: filters are copied before narrowing), so the one-shot
	// Execute wrapper compiles exactly once and repeated executions of
	// a literal statement skip candidate-set recomputation entirely.
	plan := p.plan
	if plan == nil || e.store.Commits() != p.planCommits {
		plan, err = e.buildPlanFixed(snap, mq, p.order)
		if err != nil {
			return nil, err
		}
		planned.addResolve(plan.resolve)
	}
	run := func(cctx context.Context, stats *ExecStats, out *rowChunker) error {
		return e.runMultievent(cctx, snap, mq, p.info, plan, stats, out, opts.Limit)
	}
	return e.startCursor(ctx, p, opts, planned, run), nil
}

// ExplainPrepared reports the statement's frozen pattern order with
// pruning-power estimates computed against the current snapshot
// (placeholders treated as unconstrained).
func (e *Engine) ExplainPrepared(p *Prepared) ([]ExplainEntry, error) {
	plan, err := e.compilePatterns(e.store.Snapshot(), p.stripped, true)
	if err != nil {
		return nil, err
	}
	orderPlan(plan, p.order)
	out := make([]ExplainEntry, 0, len(plan.patterns))
	for _, pp := range plan.patterns {
		out = append(out, ExplainEntry{Alias: pp.alias, Estimate: pp.estimate})
	}
	return out, nil
}

// ---------------------------------------------------------------- clone

// cloneMultievent deep-copies the parts of a query binding mutates:
// head, entity filters, event filters, with-conditions. Return items
// and expressions carry no placeholders and are shared.
func cloneMultievent(q *ast.MultieventQuery) *ast.MultieventQuery {
	out := *q
	cloneHead(&out.Head_)
	out.Patterns = make([]ast.EventPattern, len(q.Patterns))
	for i := range q.Patterns {
		out.Patterns[i] = clonePattern(&q.Patterns[i])
	}
	out.With = append([]ast.WithCond(nil), q.With...)
	return &out
}

func cloneAnomaly(q *ast.AnomalyQuery) *ast.AnomalyQuery {
	out := *q
	cloneHead(&out.Head_)
	out.Pattern = clonePattern(&q.Pattern)
	return &out
}

func cloneHead(h *ast.Head) {
	if h.Window != nil {
		w := *h.Window
		h.Window = &w
	}
	h.Globals = append([]ast.Filter(nil), h.Globals...)
}

func clonePattern(p *ast.EventPattern) ast.EventPattern {
	out := *p
	out.Subject.Filters = append([]ast.Filter(nil), p.Subject.Filters...)
	out.Object.Filters = append([]ast.Filter(nil), p.Object.Filters...)
	out.EvtFilters = append([]ast.Filter(nil), p.EvtFilters...)
	return out
}

func patternPtrs(pats []ast.EventPattern) []*ast.EventPattern {
	out := make([]*ast.EventPattern, len(pats))
	for i := range pats {
		out[i] = &pats[i]
	}
	return out
}

// stripParams removes parameterized constraints from a cloned template,
// leaving the literal ones — the shape scheduling estimates run
// against, since a placeholder's selectivity is unknown until bind
// time.
func stripParams(q *ast.MultieventQuery) *ast.MultieventQuery {
	if w := q.Head_.Window; w != nil && w.HasParams() {
		q.Head_.Window = nil
	}
	q.Head_.Globals = literalFilters(q.Head_.Globals)
	for i := range q.Patterns {
		pat := &q.Patterns[i]
		pat.Subject.Filters = literalFilters(pat.Subject.Filters)
		pat.Object.Filters = literalFilters(pat.Object.Filters)
		pat.EvtFilters = literalFilters(pat.EvtFilters)
	}
	var with []ast.WithCond
	for _, w := range q.With {
		if c, ok := w.(ast.EventCond); ok && c.Val.Param != "" {
			continue
		}
		with = append(with, w)
	}
	q.With = with
	return q
}

func literalFilters(fs []ast.Filter) []ast.Filter {
	out := fs[:0]
	for _, f := range fs {
		if f.Val.Param == "" {
			out = append(out, f)
		}
	}
	return out
}
