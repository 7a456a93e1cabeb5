package eventstore

import (
	"context"
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"

	"github.com/aiql/aiql/internal/durable"
	"github.com/aiql/aiql/internal/sysmon"
)

// errNoReader latches in a column cursor whose segment lost its file
// backing (a lazy open that failed); the scan fails with it.
var errNoReader = errors.New("eventstore: segment file unavailable")

// This file is the batch-oriented scan path: instead of invoking a
// callback per event, a unit's events are filtered a block at a time
// into a selection bitmap — one predicate pass over the whole block,
// then the next pass over the survivors — and only the surviving
// events are copied out. The per-event work for rejected events drops
// to roughly one comparison plus a bit clear, cancellation checks
// amortize to one per block, and the emitted batches are exactly the
// shape the engine's segment scan cache stores.

// batchBlockEvents is the number of events filtered per selection
// bitmap. Small enough that a block's bitmap lives in registers/L1,
// large enough to amortize the per-block pass setup and ctx check.
const batchBlockEvents = 1024

const batchBlockWords = batchBlockEvents / 64

type blockBitmap [batchBlockWords]uint64

// scanKey packs an event's cheap scalar predicates into one word so
// the dense filter pass streams 8 bytes per event instead of the whole
// event struct. Layout: agent in bits 63-32, op in 31-16, object type
// in 15-8; the low byte stays zero. The packing is shared with the v2
// segment format's persisted key column (durable.ColKey), which is what
// lets the bitmap loop read the mmap'd file directly.
func scanKey(agent uint32, op sysmon.Operation, t sysmon.EntityType) uint64 {
	return durable.ScanKey(agent, uint16(op), uint8(t))
}

const (
	scanKeyAgentMask = uint64(0xFFFFFFFF) << 32
	scanKeyOpMask    = uint64(0xFFFF) << 16
	scanKeyTypeMask  = uint64(0xFF) << 8
)

// CompiledFilter carries an EventFilter together with its derived
// lookup structures (op table, agent set, and the mask/want pair for the
// packed key column), computed once per scan instead of once per unit.
type CompiledFilter struct {
	f      *EventFilter
	ops    *[sysmon.NumOperations]bool
	agents map[uint32]struct{}

	// mask/want fold every single-valued scalar predicate into one
	// masked compare over the key column; multi-valued agent/op sets
	// fall through to the residual set probes (needAgents/needOps).
	mask, want uint64
	needAgents bool
	needOps    bool
}

// Compile precomputes the filter's scan-time lookup structures. The
// filter must not be mutated while the compiled form is in use.
func (f *EventFilter) Compile() *CompiledFilter {
	cf := &CompiledFilter{f: f, ops: f.opSet(), agents: f.agentSet()}
	switch {
	case len(f.Agents) == 1:
		cf.mask |= scanKeyAgentMask
		cf.want |= uint64(f.Agents[0]) << 32
	case cf.agents != nil:
		cf.needAgents = true
	}
	switch {
	case len(f.Ops) == 1 && int(f.Ops[0]) < sysmon.NumOperations:
		cf.mask |= scanKeyOpMask
		cf.want |= uint64(f.Ops[0]) << 16
	case cf.ops != nil:
		cf.needOps = true
	}
	if f.ObjType != sysmon.EntityInvalid {
		cf.mask |= scanKeyTypeMask
		cf.want |= uint64(f.ObjType) << 8
	}
	return cf
}

// ColMask names the stored event fields a scan's consumer reads. A
// reader-backed segment keeps each of them in its own block-compressed
// column, so a survivor costs one block decode per demanded column and
// nothing for the rest; the agent, operation, object type and start
// timestamp unpack from the raw key and timestamp columns and are
// always present.
type ColMask uint8

// The maskable event fields.
const (
	ColID ColMask = 1 << iota
	ColSubject
	ColObject
	ColEndTS
	ColAmount
	ColSeq

	// ColAll demands whole events.
	ColAll = ColID | ColSubject | ColObject | ColEndTS | ColAmount | ColSeq
)

// CollectBatch gathers the unit's whole events passing the filter — and
// the keep predicate, when non-nil — into a batch: CollectBatchInto
// with every column demanded and no buffer to reuse.
func (u *ScanUnit) CollectBatch(ctx context.Context, cf *CompiledFilter, keep func(*sysmon.Event) bool) (batch []sysmon.Event, visited int64, err error) {
	return u.CollectBatchInto(ctx, cf, keep, ColAll, nil)
}

// CollectBatchInto gathers the unit's events passing the filter — and
// the keep predicate, when non-nil — in start-timestamp order,
// appending into buf (which must be empty but may carry capacity, so a
// sequential caller that retains no batch reuses one scratch buffer
// across units). visited counts the events that passed the filter (the
// same events the callback path would visit). A non-nil err means the
// batch is partial and must not be cached: ctx's error when ctx aborted
// the scan mid-unit, else the failure to open or decode the segment's
// file (errors.Is durable.ErrCorrupt for bad bytes) — unreadable data
// fails the scan, it never reads as absent.
//
// cols is what the consumer — keep included — reads of each event.
// Fields outside it are unspecified: a reader-backed segment leaves
// them zero (apart from those the filter itself had to fetch on the
// posting path), an event array copies them along because skipping them
// would save nothing.
//
// Sealed segments with built indexes take the posting-list path when
// bestPostingList applies (the list is already sparse, so a bitmap
// buys nothing); everything else goes through the block-filtered
// dense path. Both read the unit through its colView, so neither knows
// whether the events sit in a memtable, on the heap or behind a mapped
// segment file.
func (u *ScanUnit) CollectBatchInto(ctx context.Context, cf *CompiledFilter, keep func(*sysmon.Event) bool, cols ColMask, buf []sysmon.Event) (batch []sysmon.Event, visited int64, err error) {
	var (
		list    []int32
		posting bool
	)
	g := u.seg
	if g != nil {
		if g.ready.Load() || (g.fileBacked() && g.postingApplicable(cf.f) && g.ensureIndexes()) {
			list, posting = g.bestPostingList(cf.f)
		}
	}
	if posting {
		// The posting path re-checks the whole filter on each gathered
		// event, so the gather must fetch what the filter compares.
		if cf.f.Subjects != nil {
			cols |= ColSubject
		}
		if cf.f.Objects != nil {
			cols |= ColObject
		}
		if cf.f.MinAmount != 0 {
			cols |= ColAmount
		}
	}
	batch = buf
	complete := true
	if v, ok := u.view(!posting, cols); ok {
		if posting {
			batch, visited, complete = collectPosting(ctx, &v, list, cf, keep, buf)
		} else {
			batch, visited, complete = collectDense(ctx, &v, cf, keep, buf)
		}
	}
	if g != nil {
		if err := g.err(); err != nil {
			return batch, visited, err
		}
	}
	if !complete {
		return batch, visited, ctx.Err()
	}
	return batch, visited, nil
}

// colCursor streams one column of a reader-backed segment by absolute
// event position, memoizing the current decoded block. Scan positions
// are monotonically increasing, so each file block is fetched at most
// once per pass; decoded (non-zero-copy) blocks go through the store's
// block cache so a warm re-scan touches no codec at all. The first
// decode failure latches in err and subsequent reads return zeros — the
// caller checks err at block boundaries and stops.
type colCursor struct {
	g       *Segment
	rd      *durable.SegmentReader
	col     int
	blk     int
	data    []byte
	scratch []byte
	err     error
}

func newColCursor(g *Segment, col int) colCursor {
	return colCursor{g: g, rd: g.reader(), col: col, blk: -1}
}

func (c *colCursor) block(blk int) []byte {
	if blk == c.blk {
		return c.data
	}
	g := c.g
	if data, ok := g.bc.get(g.id, uint8(c.col), uint32(blk)); ok {
		c.blk, c.data = blk, data
		return data
	}
	if c.rd == nil {
		c.err = errNoReader
		c.blk, c.data = blk, nil
		return nil
	}
	if c.scratch == nil {
		c.scratch = make([]byte, 0, batchBlockEvents*8)
	}
	data, zeroCopy, err := c.rd.Block(c.col, blk, c.scratch)
	if err != nil {
		c.err = err
		c.blk, c.data = blk, nil
		return nil
	}
	if !zeroCopy && g.bc != nil {
		owned := make([]byte, len(data))
		copy(owned, data)
		g.bc.put(g.id, uint8(c.col), uint32(blk), owned)
		data = owned
	}
	c.blk, c.data = blk, data
	return data
}

func (c *colCursor) u64(pos int) uint64 {
	b := c.block(pos >> 10)
	if c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b[(pos&(batchBlockEvents-1))*8:])
}

func (c *colCursor) u32(pos int) uint32 {
	b := c.block(pos >> 10)
	if c.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b[(pos&(batchBlockEvents-1))*4:])
}

// colGather assembles events from the per-attribute columns: agent, op,
// and object type unpack from the scan key; of the remaining fields the
// demanded ones gather from their column cursors and the rest stay
// zero, their blocks never fetched.
type colGather struct {
	g                           *Segment
	ts                          []int64
	cols                        ColMask
	id, sub, obj, end, amt, seq colCursor
	ev                          sysmon.Event // scratch returned by event
}

func newColGather(g *Segment, ts []int64, cols ColMask) *colGather {
	return &colGather{
		g:    g,
		ts:   ts,
		cols: cols,
		id:   newColCursor(g, durable.ColID),
		sub:  newColCursor(g, durable.ColSubject),
		obj:  newColCursor(g, durable.ColObject),
		end:  newColCursor(g, durable.ColEndTS),
		amt:  newColCursor(g, durable.ColAmount),
		seq:  newColCursor(g, durable.ColSeq),
	}
}

// event gathers the event at pos into the scratch event, which stays
// valid until the next call.
func (cg *colGather) event(pos int, key uint64) *sysmon.Event {
	ev := &cg.ev
	*ev = sysmon.Event{
		AgentID: uint32(key >> 32),
		Op:      sysmon.Operation((key >> 16) & 0xFFFF),
		ObjType: sysmon.EntityType((key >> 8) & 0xFF),
		StartTS: cg.ts[pos],
	}
	cols := cg.cols
	if cols&ColID != 0 {
		ev.ID = cg.id.u64(pos)
	}
	if cols&ColSubject != 0 {
		ev.Subject = sysmon.EntityID(cg.sub.u32(pos))
	}
	if cols&ColObject != 0 {
		ev.Object = sysmon.EntityID(cg.obj.u32(pos))
	}
	if cols&ColEndTS != 0 {
		ev.EndTS = int64(cg.end.u64(pos))
	}
	if cols&ColAmount != 0 {
		ev.Amount = cg.amt.u64(pos)
	}
	if cols&ColSeq != 0 {
		ev.Seq = cg.seq.u64(pos)
	}
	return ev
}

// cursorErr returns the first decode failure across the gather's
// cursors, if any.
func (cg *colGather) cursorErr() error {
	for _, c := range []*colCursor{&cg.id, &cg.sub, &cg.obj, &cg.end, &cg.amt, &cg.seq} {
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// colView is a scan unit's storage layout reduced to the few questions
// a filter asks of it — the one place that knows whether an attribute
// comes from an AoS event array (memtable tails, heap-sealed and
// materialized segments) or from a reader-backed segment's column
// vectors. Exactly one of events/gather is set.
type colView struct {
	n      int
	events []sysmon.Event
	// keys is the packed scan-key column. AoS units without one
	// (memtable tails, posting-path scans that never read it) leave it
	// nil; the dense driver then packs each block's keys into scratch.
	keys   []uint64
	ts     []int64 // start timestamps; columnar backing only
	gather *colGather
}

// view resolves the unit's layout. withKeys asks for the key column of
// an AoS-backed segment, which is built on first use and therefore
// skipped when the caller (the posting path) never reads it; cols is
// what event() must fill in on the columnar backing. ok is false when a
// reader-backed segment's key or timestamp column is unreadable: the
// error is latched on the segment.
func (u *ScanUnit) view(withKeys bool, cols ColMask) (v colView, ok bool) {
	g := u.seg
	if g == nil {
		return colView{n: len(u.mem.events), events: u.mem.events}, true
	}
	if events := g.loadedEvents(); events != nil {
		v = colView{n: len(events), events: events}
		if withKeys {
			v.keys = g.keyColumn()
		}
		return v, true
	}
	keys, ts := g.keyColumn(), g.tsColumn()
	if keys == nil || len(ts) != len(keys) {
		return colView{}, false
	}
	return colView{n: len(keys), keys: keys, ts: ts, gather: newColGather(g, ts, cols)}, true
}

// timeSlice returns the position range [lo, hi) of events whose start
// timestamps fall in [from, to).
func (v *colView) timeSlice(from, to int64) (int, int) {
	if v.gather == nil {
		return timeSlice(v.events, from, to)
	}
	return timeSliceTS(v.ts, from, to)
}

func (v *colView) subject(pos int) sysmon.EntityID {
	if v.gather == nil {
		return v.events[pos].Subject
	}
	return sysmon.EntityID(v.gather.sub.u32(pos))
}

func (v *colView) object(pos int) sysmon.EntityID {
	if v.gather == nil {
		return v.events[pos].Object
	}
	return sysmon.EntityID(v.gather.obj.u32(pos))
}

func (v *colView) amount(pos int) uint64 {
	if v.gather == nil {
		return v.events[pos].Amount
	}
	return v.gather.amt.u64(pos)
}

// event returns the event at pos: a pointer into the AoS array, or into
// the gather's scratch event (valid until the next call, demanded
// columns only) for the columnar backing.
func (v *colView) event(pos int) *sysmon.Event {
	if v.gather == nil {
		return &v.events[pos]
	}
	return v.gather.event(pos, v.keys[pos])
}

// failed reports whether a column decode has failed since the view was
// built, latching the error on the segment. The drivers check it at
// block boundaries and stop; the caller returns the error.
func (v *colView) failed() bool {
	if v.gather == nil {
		return false
	}
	err := v.gather.cursorErr()
	if err != nil {
		v.gather.g.fail(err)
	}
	return err != nil
}

// collectPosting walks a merged posting list (position-sorted, so the
// output stays time-ordered and column cursors stream forward),
// re-checking the full filter per entry: posting lists are keyed on one
// endpoint only. A decode error stops the walk (see failed).
func collectPosting(ctx context.Context, v *colView, list []int32, cf *CompiledFilter, keep func(*sysmon.Event) bool, buf []sysmon.Event) (batch []sysmon.Event, visited int64, complete bool) {
	batch = buf
	for n, pos := range list {
		if n%scanCheckInterval == scanCheckInterval-1 && ctx.Err() != nil {
			return batch, visited, false
		}
		if int(pos) >= v.n {
			continue
		}
		ev := v.event(int(pos))
		if v.failed() {
			return batch, visited, true
		}
		if !cf.f.matches(ev, cf.ops, cf.agents) {
			continue
		}
		visited++
		if keep == nil || keep(ev) {
			batch = append(batch, *ev)
		}
	}
	return batch, visited, true
}

// collectDense runs the dense path: time-slice the sorted run, then
// filter each block's packed scan keys into a selection bitmap and
// assemble whole events only for the survivors. Events inside the slice
// already satisfy From/To (the run is sorted by StartTS), so the time
// predicates need no pass. A decode error stops the pass (see failed).
func collectDense(ctx context.Context, v *colView, cf *CompiledFilter, keep func(*sysmon.Event) bool, buf []sysmon.Event) (batch []sysmon.Event, visited int64, complete bool) {
	batch = buf
	lo, hi := v.timeSlice(cf.f.From, cf.f.To)
	var (
		sel    blockBitmap
		packed [batchBlockEvents]uint64
	)
	for base := lo; base < hi; base += batchBlockEvents {
		if ctx.Err() != nil {
			return batch, visited, false
		}
		n := min(hi-base, batchBlockEvents)
		keys := packed[:n]
		if v.keys != nil {
			keys = v.keys[base : base+n]
		} else if cf.mask != 0 || cf.needAgents || cf.needOps {
			// No key column (a memtable tail): pack this block's keys so
			// the scalar predicates stream 8 bytes per event like
			// everywhere else.
			blk := v.events[base : base+n]
			for i := range blk {
				keys[i] = scanKey(blk[i].AgentID, blk[i].Op, blk[i].ObjType)
			}
		}
		live := filterKeys(keys, base, v, cf, &sel)
		if v.failed() {
			return batch, visited, true
		}
		if live == 0 {
			continue
		}
		// Grow for this block's survivors in one step: the append loop
		// below would otherwise reallocate along the doubling chain,
		// which dominates the cold path's allocation cost.
		batch = slices.Grow(batch, live)
		mark := len(batch)
		for w := 0; w < (n+63)/64; w++ {
			for b := sel[w]; b != 0; b &= b - 1 {
				ev := v.event(base + w<<6 + bits.TrailingZeros64(b))
				if keep == nil || keep(ev) {
					batch = append(batch, *ev)
				}
			}
		}
		if v.failed() {
			return batch[:mark], visited, true
		}
		visited += int64(live)
	}
	return batch, visited, true
}

// filterKeys narrows the selection bitmap for one block of packed scan
// keys (keys[i] belongs to the event at position base+i) and returns
// the surviving count. Every single-valued scalar predicate (agent, op,
// object type) folds into one dense branchless masked compare
// (maskKeys); the survivors then take one residual pass per remaining
// predicate, cheapest first, so each pass only touches what the earlier
// ones left: multi-valued op and agent sets against the key itself,
// entity sets and the amount bound against the view's columns.
// Predicate semantics mirror EventFilter.matches exactly (minus From/To,
// which the caller's time slice already guarantees).
func filterKeys(keys []uint64, base int, v *colView, cf *CompiledFilter, sel *blockBitmap) int {
	n := len(keys)
	words := (n + 63) / 64
	if cf.mask != 0 {
		if maskKeys(keys, cf.mask, cf.want, sel) == 0 {
			return 0
		}
	} else {
		for w := 0; w < words; w++ {
			sel[w] = ^uint64(0)
		}
		if tail := n & 63; tail != 0 {
			sel[words-1] = 1<<uint(tail) - 1
		}
	}

	if cf.needOps {
		// An op set's outcome is data-random, so a per-survivor branch
		// would mispredict constantly: re-test every key of each live
		// word branchlessly instead.
		ops := cf.ops
		for w := 0; w < words; w++ {
			if sel[w] == 0 {
				continue
			}
			var m uint64
			for k, key := range keys[w<<6 : min(w<<6+64, n)] {
				var bit uint64
				if ops[(key>>16)&0xFFFF] {
					bit = 1
				}
				m |= bit << uint(k)
			}
			sel[w] &= m
		}
	}

	if cf.needAgents {
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if _, ok := cf.agents[uint32(keys[w<<6+tz]>>32)]; !ok {
					b &^= 1 << uint(tz)
				}
			}
			sel[w] = b
		}
	}
	f := cf.f
	if f.Subjects != nil {
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if !f.Subjects.Has(v.subject(base + w<<6 + tz)) {
					b &^= 1 << uint(tz)
				}
			}
			sel[w] = b
		}
	}
	if f.Objects != nil {
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if !f.Objects.Has(v.object(base + w<<6 + tz)) {
					b &^= 1 << uint(tz)
				}
			}
			sel[w] = b
		}
	}
	if f.MinAmount != 0 {
		for w := 0; w < words; w++ {
			b := sel[w]
			for r := b; r != 0; r &= r - 1 {
				tz := bits.TrailingZeros64(r)
				if v.amount(base+w<<6+tz) < f.MinAmount {
					b &^= 1 << uint(tz)
				}
			}
			sel[w] = b
		}
	}

	live := 0
	for w := 0; w < words; w++ {
		live += bits.OnesCount64(sel[w])
	}
	return live
}

// maskKeys is filterKeys' dense stage: one branchless masked compare per
// key, building each selection word directly, and returns the OR of the
// words (zero: nothing survived). It stays out of line on purpose —
// inlined into filterKeys the four accumulators spill to the stack and
// the pass runs measurably slower.
func maskKeys(keys []uint64, mask, want uint64, sel *blockBitmap) uint64 {
	n := len(keys)
	var any uint64
	i, w := 0, 0
	// Full words run as four independent 16-key chains, each shifting
	// its outcome in from the top: constant shifts and no dependency
	// between chains, so the CPU overlaps them — measurably faster than
	// one rolled loop shifting each bit to its position.
	for ; i+64 <= n; i, w = i+64, w+1 {
		run := keys[i : i+64 : i+64]
		var m0, m1, m2, m3 uint64
		for k := 0; k < 16; k++ {
			var b0, b1, b2, b3 uint64
			if run[k]&mask == want {
				b0 = 1
			}
			if run[k+16]&mask == want {
				b1 = 1
			}
			if run[k+32]&mask == want {
				b2 = 1
			}
			if run[k+48]&mask == want {
				b3 = 1
			}
			m0 = m0>>1 | b0<<63
			m1 = m1>>1 | b1<<63
			m2 = m2>>1 | b2<<63
			m3 = m3>>1 | b3<<63
		}
		m := m0>>48 | m1>>32 | m2>>16 | m3
		sel[w] = m
		any |= m
	}
	if i < n {
		var m uint64
		for k, key := range keys[i:n] {
			var bit uint64
			if key&mask == want {
				bit = 1
			}
			m |= bit << uint(k)
		}
		sel[w] = m
		any |= m
	}
	return any
}
