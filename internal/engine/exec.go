package engine

import (
	"context"
	"encoding/binary"
	"fmt"

	"github.com/aiql/aiql/internal/aiql/ast"
	"github.com/aiql/aiql/internal/aiql/semantic"
	"github.com/aiql/aiql/internal/eventstore"
	"github.com/aiql/aiql/internal/numfmt"
	"github.com/aiql/aiql/internal/obs"
	"github.com/aiql/aiql/internal/sysmon"
)

// maxBindings bounds intermediate join results to keep a runaway query
// from exhausting memory.
const maxBindings = 4 << 20

// binding is one partial match: entity variable assignments plus the
// events matched so far, stored in plan-assigned slots.
type binding struct {
	ents []sysmon.EntityID
	evts []sysmon.Event
}

// bindingArena backs materialized bindings with slabs: the ents/evts
// slices of many bindings are cut from two shared arrays instead of
// being two heap objects per binding.
type bindingArena struct {
	nVars, nEvts int
	ents         []sysmon.EntityID
	evts         []sysmon.Event
}

// arenaSlab is how many bindings a slab holds when the count is not
// known up front (join output).
const arenaSlab = 1024

// newBindingArena sizes the first slab for n bindings.
func newBindingArena(sl *slots, n int) *bindingArena {
	a := &bindingArena{nVars: len(sl.vars), nEvts: len(sl.evts)}
	a.grow(n)
	return a
}

func (a *bindingArena) grow(n int) {
	a.ents = make([]sysmon.EntityID, 0, n*a.nVars)
	a.evts = make([]sysmon.Event, 0, n*a.nEvts)
}

// alloc returns a zeroed binding whose slices are capped to their own
// slots, so they can never grow into a neighbour's.
func (a *bindingArena) alloc() binding {
	if len(a.ents)+a.nVars > cap(a.ents) || len(a.evts)+a.nEvts > cap(a.evts) {
		a.grow(arenaSlab)
	}
	ne, nv := len(a.ents), len(a.evts)
	a.ents = a.ents[:ne+a.nVars]
	a.evts = a.evts[:nv+a.nEvts]
	return binding{ents: a.ents[ne : ne+a.nVars : ne+a.nVars], evts: a.evts[nv : nv+a.nEvts : nv+a.nEvts]}
}

// slots assigns dense indices to entity variables and event aliases.
type slots struct {
	vars map[string]int
	evts map[string]int
}

func newSlots(plan *queryPlan) *slots {
	s := &slots{vars: map[string]int{}, evts: map[string]int{}}
	for _, pp := range plan.patterns {
		if _, ok := s.vars[pp.subjVar]; !ok {
			s.vars[pp.subjVar] = len(s.vars)
		}
		if _, ok := s.vars[pp.objVar]; !ok {
			s.vars[pp.objVar] = len(s.vars)
		}
		if _, ok := s.evts[pp.alias]; !ok {
			s.evts[pp.alias] = len(s.evts)
		}
	}
	return s
}

// runMultievent executes the scheduled plan as a streaming pipeline: the
// prefix patterns are scanned and hash-joined into materialized bindings
// exactly as before, but the final pattern is never collected — each
// matching event is joined against the prefix bindings, projected, and
// emitted immediately. With a limit hint the final scan runs
// sequentially and short-circuits as soon as emit declines more rows, so
// a LIMIT-k query terminates after k full matches instead of draining
// the store.
//
// Cancelling ctx aborts the current scan and returns the cancellation
// error; stats keeps the statistics accumulated so far.
func (e *Engine) runMultievent(ctx context.Context, snap *eventstore.Snapshot, q *ast.MultieventQuery, info *semantic.Info, plan *queryPlan, stats *ExecStats, out *rowChunker, limitHint int) error {
	sl := newSlots(plan)
	var bindings []binding
	boundVars := map[string]bool{}
	boundEvts := map[string]bool{}
	last := len(plan.patterns) - 1
	qsp := obs.SpanFromContext(ctx)

	for step := 0; step < last; step++ {
		pp := plan.patterns[step]
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("engine: query aborted: %w", err)
		}
		stats.PatternOrder = append(stats.PatternOrder, pp.alias)
		filter := pp.filter // copy; we will narrow it

		subjBound := boundVars[pp.subjVar]
		objBound := boundVars[pp.objVar]
		if step > 0 {
			narrowByBindings(&filter, sl, pp, bindings, subjBound, objBound)
			narrowByTemporal(&filter, plan.rels, sl, pp.alias, bindings, boundEvts)
		}

		ss := e.beginScanSpan(qsp, "scan "+pp.alias, stats)
		events := e.scanPattern(ctx, snap, &filter, pp, stats)
		e.endScanSpan(ss, len(events))
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("engine: query aborted: %w", err)
		}
		if step == 0 {
			stats.Partitions = snap.NumPartitions()
			bindings = make([]binding, 0, len(events))
			arena := newBindingArena(sl, len(events))
			subjSlot, objSlot, evtSlot := sl.vars[pp.subjVar], sl.vars[pp.objVar], sl.evts[pp.alias]
			for i := range events {
				b := arena.alloc()
				b.ents[subjSlot] = events[i].Subject
				b.ents[objSlot] = events[i].Object
				b.evts[evtSlot] = events[i]
				bindings = append(bindings, b)
			}
		} else {
			jsp := qsp.Child("join " + pp.alias)
			var err error
			bindings, err = joinStep(ctx, bindings, events, sl, pp, plan.rels, boundVars, boundEvts)
			jsp.SetInt("bindings", int64(len(bindings)))
			jsp.End()
			if err != nil {
				return err
			}
		}
		boundVars[pp.subjVar] = true
		boundVars[pp.objVar] = true
		boundEvts[pp.alias] = true
		stats.Bindings += len(bindings)
		if len(bindings) == 0 {
			return nil // no match can complete
		}
		if len(bindings) > maxBindings {
			return fmt.Errorf("engine: intermediate result exceeds %d bindings; add more selective constraints", maxBindings)
		}
	}

	// Final pattern: streamed, never materialized.
	pp := plan.patterns[last]
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("engine: query aborted: %w", err)
	}
	stats.PatternOrder = append(stats.PatternOrder, pp.alias)
	filter := pp.filter
	if last > 0 {
		narrowByBindings(&filter, sl, pp, bindings, boundVars[pp.subjVar], boundVars[pp.objVar])
		narrowByTemporal(&filter, plan.rels, sl, pp.alias, bindings, boundEvts)
	} else {
		stats.Partitions = snap.NumPartitions()
	}
	j := newJoiner(bindings, sl, pp, plan.rels, boundVars, boundEvts, last == 0)
	proj := newProjector(e, q, info, sl)
	ss := e.beginScanSpan(qsp, "scan "+pp.alias, stats)
	err := e.streamFinal(ctx, snap, &filter, pp, j, proj, stats, out, limitHint)
	e.endScanSpan(ss, -1)
	return err
}

// streamFinal scans the final pattern and pushes each full match through
// join → projection → emit without collecting events or bindings: every
// match is composed in one scratch binding that the projector reads and
// nobody retains, and rendered straight into a row cut from the
// chunker's arena, so the per-event cost is the row's cells. Scan units
// are filtered in parallel on the worker pool but consumed strictly in
// unit order (see forEachUnitOrdered), so emission order, limit
// pushdown, and the visited-event accounting do not depend on how many
// helpers run — with none (ScanWorkers: 1) the same loop is a plain
// sequential walk. Sealed-segment batches come from the scan cache when
// it holds them. A unit boundary hands pending rows to the cursor only
// once the oldest has waited chunkMaxHold (see rowChunker.boundary):
// rows that already exist reach a consumer within about that long plus
// one unit, and a fast scan still fills its chunks.
func (e *Engine) streamFinal(ctx context.Context, snap *eventstore.Snapshot, filter *eventstore.EventFilter, pp *patternPlan, j *joiner, proj *projector, stats *ExecStats, out *rowChunker, limitHint int) error {
	var (
		ferr     error
		produced int
		width    = len(proj.getters)
		scratch  = binding{
			ents: make([]sysmon.EntityID, j.nVars),
			evts: make([]sysmon.Event, j.nEvts),
		}
	)
	// match projects and emits one full match; it returns false when the
	// stream must stop (error recorded in ferr, or demand satisfied).
	match := func(prefix *binding, ev *sysmon.Event) bool {
		produced++
		stats.Bindings++
		if produced > maxBindings {
			ferr = fmt.Errorf("engine: intermediate result exceeds %d bindings; add more selective constraints", maxBindings)
			return false
		}
		j.extend(&scratch, prefix, ev)
		row := out.row(width)
		keep, err := proj.row(&scratch, row)
		if err != nil {
			ferr = err
			return false
		}
		return !keep || out.emit(row)
	}

	units := snap.Units(filter)
	err := e.forEachUnitOrdered(ctx, units, filter, pp.evtPreds, pp.cols, stats, limitHint, func(batch []sysmon.Event) bool {
		for k := range batch {
			ev := &batch[k]
			if j.first {
				if !match(nil, ev) {
					return false
				}
				continue
			}
			cont := true
			j.join(ev, func(prefix *binding) bool {
				cont = match(prefix, ev)
				return cont
			})
			if !cont {
				return false
			}
		}
		return out.boundary()
	})
	if ferr != nil {
		return ferr
	}
	return err
}

// joinCheckInterval is how many join probes or projected rows pass
// between context checks: joins and projection dominate execution on
// low-selectivity queries, so they must observe deadlines just as the
// scans do.
const joinCheckInterval = 8192

// scanPattern collects the events matching a pattern plan's filter and
// per-event predicates over the snapshot, reusing cached sealed-segment
// batches when the scan cache holds them. Unit scans run in parallel on
// the worker pool but batches concatenate in deterministic unit order,
// so downstream joins see identical input however many helpers ran. A
// cancelled ctx aborts the scan early; the scanned count then reflects
// only the events actually visited (the caller checks ctx.Err()).
func (e *Engine) scanPattern(ctx context.Context, snap *eventstore.Snapshot, filter *eventstore.EventFilter, pp *patternPlan, stats *ExecStats) []sysmon.Event {
	units := snap.Units(filter)
	var events []sysmon.Event
	e.forEachUnitOrdered(ctx, units, filter, pp.evtPreds, pp.cols, stats, 0, func(batch []sysmon.Event) bool {
		events = append(events, batch...)
		return true
	})
	return events
}

func evtPredsOK(preds []evtPred, ev *sysmon.Event) bool {
	for i := range preds {
		if !preds[i].eval(ev) {
			return false
		}
	}
	return true
}

// narrowByBindings intersects the filter's entity sets with the values
// already bound for the pattern's variables, so the storage layer can use
// posting lists instead of scanning.
func narrowByBindings(f *eventstore.EventFilter, sl *slots, pp *patternPlan, bindings []binding, subjBound, objBound bool) {
	const narrowLimit = 65536 // beyond this a set intersection costs more than it saves
	if len(bindings) > narrowLimit {
		return
	}
	bound := func(v string) *eventstore.IDSet {
		slot := sl.vars[v]
		ids := make([]sysmon.EntityID, len(bindings))
		for i := range bindings {
			ids[i] = bindings[i].ents[slot]
		}
		return eventstore.NewIDSet(ids...)
	}
	if subjBound {
		f.Subjects = f.Subjects.Intersect(bound(pp.subjVar))
	}
	if objBound {
		f.Objects = f.Objects.Intersect(bound(pp.objVar))
	}
}

// narrowByTemporal tightens the filter's time range using temporal
// relations that connect the pattern to aliases that are already bound:
// if this pattern must come after some bound event, no event earlier than
// the earliest such binding can ever join.
func narrowByTemporal(f *eventstore.EventFilter, rels []ast.TemporalRel, sl *slots, alias string, bindings []binding, boundEvts map[string]bool) {
	if len(bindings) == 0 {
		return
	}
	for _, rel := range rels {
		var other string
		mustBeAfter := false // whether `alias` must come after `other`
		switch {
		case rel.Left == alias && boundEvts[rel.Right]:
			other = rel.Right
			mustBeAfter = rel.Op == "after"
		case rel.Right == alias && boundEvts[rel.Left]:
			other = rel.Left
			mustBeAfter = rel.Op == "before"
		default:
			continue
		}
		slot := sl.evts[other]
		if mustBeAfter {
			minTS := bindings[0].evts[slot].StartTS
			for i := 1; i < len(bindings); i++ {
				if ts := bindings[i].evts[slot].StartTS; ts < minTS {
					minTS = ts
				}
			}
			if f.From == 0 || minTS > f.From {
				f.From = minTS
			}
		} else {
			maxTS := bindings[0].evts[slot].StartTS
			for i := 1; i < len(bindings); i++ {
				if ts := bindings[i].evts[slot].StartTS; ts > maxTS {
					maxTS = ts
				}
			}
			if f.To == 0 || maxTS+1 < f.To {
				f.To = maxTS + 1
			}
		}
	}
}

// before reports whether event a precedes event b in the engine's total
// order: by start timestamp, then by event ID for determinism.
func before(a, b *sysmon.Event) bool {
	if a.StartTS != b.StartTS {
		return a.StartTS < b.StartTS
	}
	return a.ID < b.ID
}

// joiner extends bindings with the events of one pattern: it hash-joins
// on the shared entity variables and enforces the temporal relations
// connecting the new alias to bound aliases. The same joiner backs both
// the materializing prefix steps (joinStep) and the streamed final step.
type joiner struct {
	first bool // the pattern is the only one: events bind directly

	subjSlot, objSlot, evtSlot int
	nVars, nEvts               int
	subjShared                 bool
	objShared                  bool
	objBound                   bool
	checks                     []tcheck

	bindings []binding
	index    map[uint64][]int
}

func newJoiner(bindings []binding, sl *slots, pp *patternPlan, rels []ast.TemporalRel, boundVars, boundEvts map[string]bool, first bool) *joiner {
	j := &joiner{
		first:    first,
		subjSlot: sl.vars[pp.subjVar],
		objSlot:  sl.vars[pp.objVar],
		evtSlot:  sl.evts[pp.alias],
		nVars:    len(sl.vars),
		nEvts:    len(sl.evts),
		bindings: bindings,
	}
	if first {
		return j
	}
	j.subjShared = boundVars[pp.subjVar]
	j.objShared = boundVars[pp.objVar] && pp.objVar != pp.subjVar
	j.objBound = boundVars[pp.objVar]

	for _, rel := range rels {
		switch {
		case rel.Left == pp.alias && boundEvts[rel.Right]:
			j.checks = append(j.checks, tcheck{otherSlot: sl.evts[rel.Right], newIsLeft: true, op: rel.Op, within: int64(rel.Within)})
		case rel.Right == pp.alias && boundEvts[rel.Left]:
			j.checks = append(j.checks, tcheck{otherSlot: sl.evts[rel.Left], newIsLeft: false, op: rel.Op, within: int64(rel.Within)})
		}
	}

	j.index = make(map[uint64][]int, len(bindings))
	for i := range bindings {
		k := j.key(&bindings[i])
		j.index[k] = append(j.index[k], i)
	}
	return j
}

func (j *joiner) key(b *binding) uint64 {
	var k uint64
	if j.subjShared {
		k = uint64(b.ents[j.subjSlot])
	}
	if j.objShared {
		k = k<<32 | uint64(b.ents[j.objSlot])
	}
	return k
}

func (j *joiner) evKey(ev *sysmon.Event) uint64 {
	var k uint64
	if j.subjShared {
		k = uint64(ev.Subject)
	}
	if j.objShared {
		k = k<<32 | uint64(ev.Object)
	}
	return k
}

// probeCost approximates the work of joining one event, for the caller's
// amortized context checks.
func (j *joiner) probeCost(ev *sysmon.Event) int {
	if j.first {
		return 1
	}
	return len(j.index[j.evKey(ev)]) + 1
}

// join yields every indexed prefix binding the event extends. yield
// returning false stops the iteration. (The only pattern of a query has
// no prefix: its events extend nil directly.)
func (j *joiner) join(ev *sysmon.Event, yield func(prefix *binding) bool) {
	for _, bi := range j.index[j.evKey(ev)] {
		b := &j.bindings[bi]
		// a same-variable subject+object (rare self-loop) needs both
		// endpoints checked even though only one was hashed
		if j.subjShared && b.ents[j.subjSlot] != ev.Subject {
			continue
		}
		if j.objBound && b.ents[j.objSlot] != ev.Object {
			continue
		}
		if !temporalOK(j.checks, b, ev) {
			continue
		}
		if !yield(b) {
			return
		}
	}
}

// extend composes in dst the binding that ev adds to prefix (nil for
// the query's only or first pattern). dst's slices must have the plan's
// slot counts; whatever they held is overwritten.
func (j *joiner) extend(dst, prefix *binding, ev *sysmon.Event) {
	if prefix != nil {
		copy(dst.ents, prefix.ents)
		copy(dst.evts, prefix.evts)
	}
	dst.ents[j.subjSlot] = ev.Subject
	dst.ents[j.objSlot] = ev.Object
	dst.evts[j.evtSlot] = *ev
}

// joinStep extends the current bindings with the events matched for one
// prefix pattern, materializing the joined bindings for the next step.
func joinStep(ctx context.Context, bindings []binding, events []sysmon.Event, sl *slots, pp *patternPlan, rels []ast.TemporalRel, boundVars, boundEvts map[string]bool) ([]binding, error) {
	j := newJoiner(bindings, sl, pp, rels, boundVars, boundEvts, false)
	arena := newBindingArena(sl, arenaSlab)
	var out []binding
	var jerr error
	probes := 0
	for i := range events {
		ev := &events[i]
		if probes += j.probeCost(ev); probes >= joinCheckInterval {
			probes = 0
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("engine: query aborted: %w", err)
			}
		}
		j.join(ev, func(prefix *binding) bool {
			nb := arena.alloc()
			j.extend(&nb, prefix, ev)
			out = append(out, nb)
			if len(out) > maxBindings {
				jerr = fmt.Errorf("engine: intermediate result exceeds %d bindings; add more selective constraints", maxBindings)
				return false
			}
			return true
		})
		if jerr != nil {
			return nil, jerr
		}
	}
	return out, nil
}

// tcheck is one temporal-relation check between a newly scanned event and
// an already-bound alias.
type tcheck struct {
	otherSlot int
	newIsLeft bool // the new event plays rel.Left
	op        string
	within    int64
}

func temporalOK(checks []tcheck, b *binding, ev *sysmon.Event) bool {
	for _, c := range checks {
		other := &b.evts[c.otherSlot]
		left, right := ev, other
		if !c.newIsLeft {
			left, right = other, ev
		}
		if c.op == "after" {
			left, right = right, left
		}
		// now require left before right
		if !before(left, right) {
			return false
		}
		if c.within > 0 && right.StartTS-left.StartTS > c.within {
			return false
		}
	}
	return true
}

// projector renders the return clause for one binding at a time,
// carrying the distinct-dedup state across the stream. The clause is
// compiled once into one getter per column, so rendering a row resolves
// no variable or attribute names.
type projector struct {
	getters []colGetter
	seen    map[string]struct{} // non-nil iff the query is distinct
	keyBuf  []byte              // scratch for the distinct key
}

type getterKind uint8

const (
	getEntAttr getterKind = iota // attribute of a bound entity
	getEvtAttr                   // attribute of a matched event
	getEvtID                     // bare event alias: its ID
	getLiteral
	getErr // unsupported expression: reported on the first row, as before
)

// colGetter renders one return column.
type colGetter struct {
	kind getterKind
	slot int
	ent  func(sysmon.EntityID) string // getEntAttr: the compiled attribute read
	attr string
	lit  string
	err  error
}

func newProjector(e *Engine, q *ast.MultieventQuery, info *semantic.Info, sl *slots) *projector {
	ents := newEntityReader(e.store.Dict())
	p := &projector{getters: make([]colGetter, len(q.Return))}
	for i := range q.Return {
		p.getters[i] = compileGetter(q.Return[i].Expr, info, sl, ents)
	}
	if q.Distinct {
		p.seen = map[string]struct{}{}
	}
	return p
}

func compileGetter(expr ast.Expr, info *semantic.Info, sl *slots, ents *entityReader) colGetter {
	fail := func(format string, args ...any) colGetter {
		return colGetter{kind: getErr, err: fmt.Errorf(format, args...)}
	}
	switch x := expr.(type) {
	case *ast.AttrExpr:
		if t, ok := info.Vars[x.Var]; ok {
			return colGetter{kind: getEntAttr, slot: sl.vars[x.Var], ent: ents.attrFunc(t, x.Attr)}
		}
		if _, ok := info.Events[x.Var]; ok {
			if !sysmon.ValidEventAttr(x.Attr) {
				return fail("engine: unknown event attribute %q", x.Attr)
			}
			return colGetter{kind: getEvtAttr, slot: sl.evts[x.Var], attr: x.Attr}
		}
		return fail("engine: unknown variable %q", x.Var)
	case *ast.VarExpr:
		if _, ok := info.Events[x.Name]; ok {
			return colGetter{kind: getEvtID, slot: sl.evts[x.Name]}
		}
		return fail("engine: unresolved variable %q", x.Name)
	case *ast.NumberLit:
		return colGetter{kind: getLiteral, lit: numfmt.Format(x.Val)}
	case *ast.StringLit:
		return colGetter{kind: getLiteral, lit: x.Val}
	default:
		return fail("engine: unsupported return expression %s", ast.ExprString(expr))
	}
}

// row renders one binding into row, which has one cell per return
// column. keep is false when the row is a distinct duplicate and must
// be dropped; its cells may then be overwritten.
func (p *projector) row(b *binding, row []string) (keep bool, err error) {
	for i := range p.getters {
		g := &p.getters[i]
		switch g.kind {
		case getEntAttr:
			row[i] = g.ent(b.ents[g.slot])
		case getEvtAttr:
			row[i], _ = sysmon.EventAttr(&b.evts[g.slot], g.attr)
		case getEvtID:
			row[i] = numfmt.Format(float64(b.evts[g.slot].ID))
		case getLiteral:
			row[i] = g.lit
		case getErr:
			return false, g.err
		}
	}
	if p.seen != nil {
		p.keyBuf = appendRowKey(p.keyBuf[:0], row)
		if _, dup := p.seen[string(p.keyBuf)]; dup {
			return false, nil
		}
		p.seen[string(p.keyBuf)] = struct{}{}
	}
	return true, nil
}

// entityReader renders entity attributes for one execution from a view
// of the dictionary's entity tables taken when it starts: an attribute
// read is a bounds check, a table index and a field load, with no lock
// and no per-name switch. The view covers every entity the execution's
// store snapshot references (entities are interned before the events
// naming them commit); an ID past it falls back to the locked
// Dictionary.Attr.
type entityReader struct {
	tabs eventstore.Tables
	dict *eventstore.Dictionary
}

func newEntityReader(dict *eventstore.Dictionary) *entityReader {
	return &entityReader{tabs: dict.Tables(), dict: dict}
}

// attrFunc compiles reading the (canonical) attribute attr of type-t
// entities into a function of the entity ID.
func (r *entityReader) attrFunc(t sysmon.EntityType, attr string) func(sysmon.EntityID) string {
	fallback := func(id sysmon.EntityID) string { return r.dict.Attr(t, id, attr) }
	switch t {
	case sysmon.EntityProcess:
		return tableAttr(r.tabs.Procs, sysmon.ProcessField(attr), fallback)
	case sysmon.EntityFile:
		return tableAttr(r.tabs.Files, sysmon.FileField(attr), fallback)
	case sysmon.EntityNetconn:
		return tableAttr(r.tabs.Conns, sysmon.NetconnField(attr), fallback)
	}
	return func(sysmon.EntityID) string { return "" }
}

// tableAttr reads field of the entity with a given ID from table, whose
// position i holds ID i+1; an ID past the table goes to fallback. A nil
// field (an unknown attribute) reads as "".
func tableAttr[E any](table []E, field func(*E) string, fallback func(sysmon.EntityID) string) func(sysmon.EntityID) string {
	if field == nil {
		return func(sysmon.EntityID) string { return "" }
	}
	return func(id sysmon.EntityID) string {
		if i := int(id) - 1; i >= 0 && i < len(table) {
			return field(&table[i])
		}
		return fallback(id)
	}
}

// appendRowKey appends an injective encoding of row — each cell behind
// its length — so two rows share a key only when they are cell for cell
// equal. A separator byte would not do: command lines and paths can
// contain any byte a separator could be.
func appendRowKey(dst []byte, row []string) []byte {
	for _, cell := range row {
		dst = binary.AppendUvarint(dst, uint64(len(cell)))
		dst = append(dst, cell...)
	}
	return dst
}

// rowKeyString is appendRowKey as a string, for sets keyed by whole rows.
func rowKeyString(row []string) string {
	return string(appendRowKey(nil, row))
}
