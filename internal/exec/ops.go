package exec

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"time"

	"mtcache/internal/metrics"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// ColInfo describes one output column of an operator.
type ColInfo struct {
	Table string // alias or table name, "" for computed columns
	Name  string
	Kind  types.Kind
}

// ResultSet is a fully materialized query result.
type ResultSet struct {
	Cols []ColInfo
	Rows []types.Row

	// CommitLSN is the backend commit position of any write the statement
	// performed (0 for pure reads, or when the transport predates LSN
	// acknowledgements). Forwarded stored-procedure calls travel as Query,
	// so the LSN rides on the result set; session routers use it to advance
	// a session's read-your-writes watermark.
	CommitLSN storage.LSN
}

// RemoteClient executes SQL on a linked server. The Remote operator uses
// Query; the engine's update forwarding uses Exec.
type RemoteClient interface {
	Query(sqlText string, params Params) (*ResultSet, error)
	Exec(sqlText string, params Params) (int64, error)
}

// LSNExecer is an optional extension of RemoteClient: clients that implement
// it return the backend commit LSN alongside the affected-row count of a
// forwarded update. The engine uses it to stamp Result.CommitLSN on a cache,
// which is what lets a session router guarantee read-your-writes — without
// it forwarded DML still works, the session just cannot learn its watermark.
type LSNExecer interface {
	ExecLSN(sqlText string, params Params) (int64, storage.LSN, error)
}

// SpanQuerier is an optional extension of RemoteClient: clients that
// implement it propagate the trace ID to the backend and return the
// backend-side span tree, which the Remote operator grafts into the
// cache-side trace. Clients that do not implement it still work — the trace
// just shows the round-trip as a leaf.
type SpanQuerier interface {
	QueryTraced(sqlText string, params Params, traceID string) (*ResultSet, *trace.WireSpan, error)
}

// Counters accumulates executor work for cost accounting and tests.
type Counters struct {
	RowsScanned   int64 // rows read from local heaps and indexes
	RowsRemote    int64 // rows received from the backend
	RemoteQueries int64 // DataTransfer activations
	StartupPruned int64 // startup filters whose input was never opened
}

// Ctx is the per-execution context.
type Ctx struct {
	Params   Params
	Env      Env // expression environment; Run seeds Named from Params
	Txn      *storage.Txn
	Remote   RemoteClient
	Counters *Counters
	Span     *trace.Span     // execute-stage span, nil when tracing is off
	TraceID  string          // propagated to the backend on DataTransfer
	EstRows  float64         // optimizer output-cardinality estimate, 0 if unknown
	Context  context.Context // optional cancellation signal; nil means none
}

// maxPrealloc caps estimate-driven allocations: estimates can be off by
// orders of magnitude, and a bad one must cost at most a bounded overshoot.
const maxPrealloc = 4096

// preallocSize converts a cardinality estimate into a slice/map capacity
// hint, clamped to [0, limit].
func preallocSize(est float64, limit int) int {
	if est <= 0 {
		return 0
	}
	n := int(est)
	if n > limit {
		return limit
	}
	return n
}

// Operator is a Volcano iterator that yields batches of rows. BatchNext
// refills b (starting from b.Rows[:0]) with the next window of rows. An
// empty batch signals end of stream; a non-empty batch may hold any positive
// number of rows (typically up to BatchSize; joins may overshoot when one
// probe row matches many build rows).
type Operator interface {
	Columns() []ColInfo
	Open(ctx *Ctx) error
	BatchNext(ctx *Ctx, b *Batch) error
	Close() error
}

// Run drains an operator into a ResultSet, pulling batches through the tree.
func Run(op Operator, ctx *Ctx) (*ResultSet, error) {
	if ctx.Env.Named == nil {
		ctx.Env.Named = ctx.Params
	}
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer op.Close()
	rs := &ResultSet{Cols: op.Columns()}
	if n := preallocSize(ctx.EstRows, maxPrealloc); n > 0 {
		rs.Rows = make([]types.Row, 0, n)
	}
	var b Batch
	for {
		if err := op.BatchNext(ctx, &b); err != nil {
			return nil, err
		}
		if len(b.Rows) == 0 {
			return rs, nil
		}
		rs.Rows = append(rs.Rows, b.Rows...)
	}
}

// ---------------------------------------------------------------- Scan

// Scan is a full table scan. When Parallel is set the optimizer chose this
// scan as an Exchange partitioning point: the Exchange binds each worker
// clone to a disjoint heap-slot range before Open.
type Scan struct {
	TableName string
	Cols      []ColInfo
	Parallel  bool // Exchange partitions this scan across workers

	td   *storage.TableView
	pos  int
	cap  int
	part *storage.SlotRange // worker's slot range, nil = whole heap
	pred *vecPred           // predicate pushed down by the parent Filter
	rhs  []types.Value      // pred's per-batch right-hand-side scratch
}

func (s *Scan) Columns() []ColInfo { return s.Cols }

func (s *Scan) Open(ctx *Ctx) error {
	s.td = ctx.Txn.Table(s.TableName)
	if s.td == nil {
		if err := ctx.Txn.Err(); err != nil {
			return err
		}
		return fmt.Errorf("exec: table %s does not exist", s.TableName)
	}
	s.pos = 0
	s.cap = s.td.Cap()
	if s.part != nil {
		s.pos = s.part.Lo
		if s.part.Hi < s.cap {
			s.cap = s.part.Hi
		}
	}
	return nil
}

// BatchNext fills b with up to BatchSize rows; an empty batch is EOS (empty
// heap-slot runs are skipped without ending the stream). A pushed-down
// predicate is applied before rows ever enter the batch, so filtered-out
// rows are never materialized into a window at all; the scan keeps going
// until at least one row survives or the heap is exhausted. RowsScanned
// counts rows examined (pre-filter), matching the unfused pipeline.
func (s *Scan) BatchNext(ctx *Ctx, b *Batch) error {
	b.Rows = b.Rows[:0]
	if s.pred != nil {
		var err error
		if s.rhs, err = s.pred.resolve(s.rhs, &ctx.Env); err != nil {
			return err
		}
	}
	examined := int64(0)
	for s.pos < s.cap && len(b.Rows) < BatchSize {
		row := s.td.At(s.pos)
		s.pos++
		if row == nil {
			continue
		}
		examined++
		if s.pred != nil {
			ok, err := s.pred.holds(row, s.rhs, &ctx.Env)
			if err != nil {
				return err
			}
			if !ok {
				// Keep scanning: an all-filtered window must not read as EOS.
				continue
			}
		}
		b.Rows = append(b.Rows, row)
	}
	if ctx.Counters != nil {
		ctx.Counters.RowsScanned += examined
	}
	return nil
}

func (s *Scan) Close() error { s.td = nil; return nil }

// ---------------------------------------------------------------- IndexScan

// IndexScan reads rows through an index, optionally bounded. Bounds are
// expressions evaluated at Open so parameterized seeks work; both bounds are
// inclusive (strict bounds carry a residual Filter above).
type IndexScan struct {
	TableName string
	IndexName string // "__pk" for the primary key index
	Cols      []ColInfo
	Lo, Hi    []Expr  // prefix bounds; nil slices mean unbounded
	Parallel  bool    // Exchange partitions this scan across workers
	EstRows   float64 // optimizer estimate of matched rows, for DOP costing

	rids []storage.RowID
	td   *storage.TableView
	pos  int
	part *indexPart    // worker's key range, nil = whole index
	pred *vecPred      // residual predicate pushed down by the parent Filter
	rhs  []types.Value // pred's per-batch right-hand-side scratch
}

// indexPart is one worker's index key range [lo, hi): full-key bounds cut at
// SeparatorKeys, nil meaning open. empty marks a worker with no range (more
// workers than separator-delimited partitions).
type indexPart struct {
	lo, hi types.Row
	empty  bool
}

func (s *IndexScan) Columns() []ColInfo { return s.Cols }

func (s *IndexScan) Open(ctx *Ctx) error {
	s.td = ctx.Txn.Table(s.TableName)
	if s.td == nil {
		if err := ctx.Txn.Err(); err != nil {
			return err
		}
		return fmt.Errorf("exec: table %s does not exist", s.TableName)
	}
	tree := s.td.Index(s.IndexName)
	if tree == nil {
		return fmt.Errorf("exec: index %s on %s does not exist", s.IndexName, s.TableName)
	}
	lo, err := evalBound(s.Lo, ctx)
	if err != nil {
		return err
	}
	hi, err := evalBound(s.Hi, ctx)
	if err != nil {
		return err
	}
	s.rids = s.rids[:0]
	if s.part != nil {
		// Partitioned scan: intersect the query bounds with the worker's key
		// range. Start at the larger of the two lower bounds (an entry
		// qualifies iff it is >= both, i.e. >= the max in tree order); stop
		// at the partition's exclusive upper separator or past the query's
		// inclusive prefix bound, whichever comes first.
		if s.part.empty {
			s.pos = 0
			return nil
		}
		start := s.part.lo
		if lo != nil && (start == nil || types.CompareRows(lo, start) > 0) {
			start = lo
		}
		tree.AscendPartition(start, s.part.hi, func(it storage.Item) bool {
			if hi != nil {
				pk := it.Key
				if len(hi) < len(pk) {
					pk = pk[:len(hi)]
				}
				if types.CompareRows(pk, hi) > 0 {
					return false
				}
			}
			s.rids = append(s.rids, it.RID)
			return true
		})
		s.pos = 0
		return nil
	}
	collect := func(it storage.Item) bool {
		s.rids = append(s.rids, it.RID)
		return true
	}
	switch {
	case hi != nil:
		// A nil lo (col <= x) starts at the first entry; either way the
		// ascent stops past the hi prefix.
		tree.AscendRange(lo, hi, collect)
	case lo != nil:
		tree.AscendGE(lo, collect)
	default:
		tree.Ascend(collect)
	}
	s.pos = 0
	return nil
}

func evalBound(bound []Expr, ctx *Ctx) (types.Row, error) {
	if bound == nil {
		return nil, nil
	}
	row := make(types.Row, len(bound))
	for i, e := range bound {
		v, err := e.Eval(nil, &ctx.Env)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// BatchNext fills b with up to BatchSize visible rows; empty batch is EOS.
// A pushed-down residual predicate filters rows before they enter the
// batch, exactly as in Scan.BatchNext.
func (s *IndexScan) BatchNext(ctx *Ctx, b *Batch) error {
	b.Rows = b.Rows[:0]
	if s.pred != nil {
		var err error
		if s.rhs, err = s.pred.resolve(s.rhs, &ctx.Env); err != nil {
			return err
		}
	}
	examined := int64(0)
	for s.pos < len(s.rids) && len(b.Rows) < BatchSize {
		row := s.td.Get(s.rids[s.pos])
		s.pos++
		if row == nil {
			continue
		}
		examined++
		if s.pred != nil {
			ok, err := s.pred.holds(row, s.rhs, &ctx.Env)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		b.Rows = append(b.Rows, row)
	}
	if ctx.Counters != nil {
		ctx.Counters.RowsScanned += examined
	}
	return nil
}

func (s *IndexScan) Close() error { s.td = nil; return nil }

// ---------------------------------------------------------------- Filter

// Filter passes rows whose predicate evaluates to TRUE.
type Filter struct {
	Input Operator
	Pred  Expr

	in     Batch         // input scratch
	vp     *vecPred      // compiled predicate, nil when the shape is not covered
	rhs    []types.Value // vp's per-batch right-hand-side scratch
	pushed bool          // vp was pushed down into the child scan
}

func (f *Filter) Columns() []ColInfo { return f.Input.Columns() }

func (f *Filter) Open(ctx *Ctx) error {
	f.vp, f.pushed = compilePred(f.Pred), false
	if f.vp != nil {
		// Fuse into a child scan: the predicate then runs inside the scan
		// loop and rejected rows never enter a batch. (Each execution works
		// on a private CloneOperator tree, so the pushed state is never
		// shared across executions.)
		switch in := f.Input.(type) {
		case *Scan:
			in.pred, f.pushed = f.vp, true
		case *IndexScan:
			in.pred, f.pushed = f.vp, true
		}
	}
	return f.Input.Open(ctx)
}

// BatchNext keeps pulling input batches until at least one row passes the
// predicate (or EOS), so an all-filtered batch never reads as end of stream.
func (f *Filter) BatchNext(ctx *Ctx, b *Batch) error {
	if f.pushed {
		// The child scan already applies the predicate.
		return f.Input.BatchNext(ctx, b)
	}
	b.Rows = b.Rows[:0]
	f.in.Ephemeral = b.Ephemeral // pass-through rows: caller's promise extends
	for {
		if err := f.Input.BatchNext(ctx, &f.in); err != nil {
			return err
		}
		if len(f.in.Rows) == 0 {
			return nil
		}
		if f.vp != nil {
			var err error
			b.Rows, f.rhs, err = f.vp.sel(f.in.Rows, b.Rows, f.rhs, &ctx.Env)
			if err != nil {
				return err
			}
		} else {
			for _, row := range f.in.Rows {
				ok, err := EvalBool(f.Pred, row, &ctx.Env)
				if err != nil {
					return err
				}
				if ok {
					b.Rows = append(b.Rows, row)
				}
			}
		}
		if len(b.Rows) > 0 {
			return nil
		}
	}
}

func (f *Filter) Close() error { return f.Input.Close() }

// ---------------------------------------------------------------- StartupFilter

// StartupFilter is a Select with a startup predicate: the guard references
// only parameters and is evaluated once at Open. If it is false the input is
// never opened (paper §5.1: "if it evaluates to false, the operator's input
// expression is not opened"). Two StartupFilters with complementary guards
// under a UnionAll implement ChoosePlan.
type StartupFilter struct {
	Input  Operator
	Guard  Expr
	Branch string // "local"/"remote" when part of a ChoosePlan, else ""

	active bool
}

func (s *StartupFilter) Columns() []ColInfo { return s.Input.Columns() }

func (s *StartupFilter) Open(ctx *Ctx) error {
	ok, err := EvalBool(s.Guard, nil, &ctx.Env)
	if err != nil {
		return err
	}
	s.active = ok
	if !ok {
		if ctx.Counters != nil {
			ctx.Counters.StartupPruned++
		}
		return nil
	}
	if s.Branch != "" {
		metrics.Default.Counter("opt.chooseplan_" + s.Branch).Add(1)
		ctx.Span.Attr("chooseplan", s.Branch)
	}
	return s.Input.Open(ctx)
}

// Active reports whether the guard passed at the last Open (EXPLAIN ANALYZE).
func (s *StartupFilter) Active() bool { return s.active }

// BatchNext passes batches through when the guard held at Open.
func (s *StartupFilter) BatchNext(ctx *Ctx, b *Batch) error {
	if !s.active {
		b.Rows = b.Rows[:0]
		return nil
	}
	return s.Input.BatchNext(ctx, b)
}

func (s *StartupFilter) Close() error {
	if !s.active {
		return nil
	}
	return s.Input.Close()
}

// ---------------------------------------------------------------- Project

// Project computes output expressions.
type Project struct {
	Input Operator
	Exprs []Expr
	Cols  []ColInfo

	in    Batch         // input scratch
	arena rowArena      // output rows for durable consumers
	cols  []int         // all-ColExpr gather plan, nil when any expr is general
	slab  []types.Value // recycled output storage for ephemeral consumers
}

func (p *Project) Columns() []ColInfo { return p.Cols }

func (p *Project) Open(ctx *Ctx) error {
	p.cols = make([]int, len(p.Exprs))
	for i, e := range p.Exprs {
		c, isCol := e.(*ColExpr)
		if !isCol {
			p.cols = nil
			break
		}
		p.cols[i] = c.I
	}
	return p.Input.Open(ctx)
}

// BatchNext projects a whole input batch, carving output rows out of a
// chunked arena instead of one make per row. For a durable consumer, arena
// chunks are never reused, so emitted rows stay valid for the life of the
// result; an Ephemeral consumer instead gets rows carved from one recycled
// slab, making the steady-state projection allocation-free. All-column
// projections gather values by index without touching the expression
// interpreter.
func (p *Project) BatchNext(ctx *Ctx, b *Batch) error {
	p.in.Ephemeral = true // projected values are copied out immediately
	if err := p.Input.BatchNext(ctx, &p.in); err != nil {
		return err
	}
	b.Rows = b.Rows[:0]
	width := len(p.Exprs)
	need := len(p.in.Rows) * width
	var slab []types.Value
	if b.Ephemeral {
		if cap(p.slab) < need {
			p.slab = make([]types.Value, need)
		}
		slab = p.slab[:need]
	} else {
		p.arena.hint(need)
	}
	for _, row := range p.in.Rows {
		var out types.Row
		if slab != nil {
			out, slab = types.Row(slab[:width:width]), slab[width:]
		} else {
			out = p.arena.alloc(width)
		}
		if p.cols != nil && gatherRow(out, row, p.cols) {
			b.Rows = append(b.Rows, out)
			continue
		}
		for i, e := range p.Exprs {
			v, err := e.Eval(row, &ctx.Env)
			if err != nil {
				return err
			}
			out[i] = v
		}
		b.Rows = append(b.Rows, out)
	}
	return nil
}

// gatherRow copies the indexed columns of row into out, reporting false on
// an out-of-range ordinal (the caller's interpreted loop then surfaces the
// proper error).
func gatherRow(out, row types.Row, cols []int) bool {
	for i, c := range cols {
		if c < 0 || c >= len(row) {
			return false
		}
		out[i] = row[c]
	}
	return true
}

func (p *Project) Close() error { return p.Input.Close() }

// ---------------------------------------------------------------- Limit

// Limit passes the first N rows; N is evaluated at Open (TOP @n works).
type Limit struct {
	Input Operator
	N     Expr

	left int64
}

func (l *Limit) Columns() []ColInfo { return l.Input.Columns() }

func (l *Limit) Open(ctx *Ctx) error {
	v, err := l.N.Eval(nil, &ctx.Env)
	if err != nil {
		return err
	}
	l.left = v.Int()
	return l.Input.Open(ctx)
}

// BatchNext truncates the child batch to the rows still owed.
func (l *Limit) BatchNext(ctx *Ctx, b *Batch) error {
	if l.left <= 0 {
		b.Rows = b.Rows[:0]
		return nil
	}
	if err := l.Input.BatchNext(ctx, b); err != nil {
		return err
	}
	if int64(len(b.Rows)) > l.left {
		b.Rows = b.Rows[:l.left]
	}
	l.left -= int64(len(b.Rows))
	return nil
}

func (l *Limit) Close() error { return l.Input.Close() }

// ---------------------------------------------------------------- Sort

// SortKey is one ORDER BY key.
type SortKey struct {
	E    Expr
	Desc bool
}

// Sort materializes and sorts its input.
type Sort struct {
	Input Operator
	Keys  []SortKey

	rows []types.Row
	pos  int
}

func (s *Sort) Columns() []ColInfo { return s.Input.Columns() }

func (s *Sort) Open(ctx *Ctx) error {
	if err := s.Input.Open(ctx); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	type keyed struct {
		row  types.Row
		keys types.Row
	}
	var all []keyed
	err := drain(ctx, s.Input, func(row types.Row) error {
		keys := make(types.Row, len(s.Keys))
		if err := evalSortKeys(s.Keys, row, &ctx.Env, keys); err != nil {
			return err
		}
		all = append(all, keyed{row: row, keys: keys})
		return nil
	})
	if err != nil {
		return err
	}
	sort.SliceStable(all, func(i, j int) bool {
		for k := range s.Keys {
			c := types.Compare(all[i].keys[k], all[j].keys[k])
			if s.Keys[k].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	for _, k := range all {
		s.rows = append(s.rows, k.row)
	}
	s.pos = 0
	return nil
}

// drain pulls every batch from the opened op and calls fn on each row. The
// batches are not Ephemeral, so fn may retain the rows.
func drain(ctx *Ctx, op Operator, fn func(types.Row) error) error {
	var b Batch
	for {
		if err := op.BatchNext(ctx, &b); err != nil {
			return err
		}
		if len(b.Rows) == 0 {
			return nil
		}
		for _, row := range b.Rows {
			if err := fn(row); err != nil {
				return err
			}
		}
	}
}

// evalSortKeys evaluates the sort keys of row into out.
func evalSortKeys(keys []SortKey, row types.Row, env *Env, out types.Row) error {
	for i, k := range keys {
		v, err := k.E.Eval(row, env)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// BatchNext slices the materialized output.
func (s *Sort) BatchNext(_ *Ctx, b *Batch) error {
	sliceBatch(s.rows, &s.pos, b)
	return nil
}

func (s *Sort) Close() error {
	s.rows = nil
	return s.Input.Close()
}

// ---------------------------------------------------------------- TopN

// TopN is Sort+Limit fused: it keeps only the N smallest rows under the sort
// order in a bounded heap instead of materializing and fully sorting the
// input. Ties resolve by input arrival order, so the output is exactly what
// the stable Sort + Limit pipeline it replaces would produce.
type TopN struct {
	Input Operator
	Keys  []SortKey
	N     Expr // evaluated at Open; non-positive yields no rows

	rows []types.Row
	pos  int
}

func (s *TopN) Columns() []ColInfo { return s.Input.Columns() }

// topEntry carries a row, its evaluated sort keys, and the input sequence
// number used as the stability tiebreak.
type topEntry struct {
	row  types.Row
	keys types.Row
	seq  int64
}

// topHeap is a max-heap under the sort order: the root is the worst row
// currently kept, the one a better incoming row evicts.
type topHeap struct {
	entries []topEntry
	keys    []SortKey
}

func (h *topHeap) cmp(a, b topEntry) int {
	for k := range h.keys {
		c := types.Compare(a.keys[k], b.keys[k])
		if h.keys[k].Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	switch {
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

func (h *topHeap) Len() int           { return len(h.entries) }
func (h *topHeap) Less(i, j int) bool { return h.cmp(h.entries[i], h.entries[j]) > 0 }
func (h *topHeap) Swap(i, j int)      { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *topHeap) Push(x any)         { h.entries = append(h.entries, x.(topEntry)) }
func (h *topHeap) Pop() any {
	last := h.entries[len(h.entries)-1]
	h.entries = h.entries[:len(h.entries)-1]
	return last
}

func (s *TopN) Open(ctx *Ctx) error {
	if err := s.Input.Open(ctx); err != nil {
		return err
	}
	nv, err := s.N.Eval(nil, &ctx.Env)
	if err != nil {
		return err
	}
	n := nv.Int()
	s.rows = nil
	s.pos = 0
	if n <= 0 {
		return nil
	}
	h := &topHeap{keys: s.Keys}
	var seq int64
	err = drain(ctx, s.Input, func(row types.Row) error {
		keys := make(types.Row, len(s.Keys))
		if err := evalSortKeys(s.Keys, row, &ctx.Env, keys); err != nil {
			return err
		}
		e := topEntry{row: row, keys: keys, seq: seq}
		seq++
		if int64(h.Len()) < n {
			heap.Push(h, e)
		} else if h.cmp(e, h.entries[0]) < 0 {
			h.entries[0] = e
			heap.Fix(h, 0)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(h.entries, func(i, j int) bool { return h.cmp(h.entries[i], h.entries[j]) < 0 })
	s.rows = make([]types.Row, len(h.entries))
	for i, e := range h.entries {
		s.rows[i] = e.row
	}
	return nil
}

// BatchNext slices the materialized output.
func (s *TopN) BatchNext(_ *Ctx, b *Batch) error {
	sliceBatch(s.rows, &s.pos, b)
	return nil
}

func (s *TopN) Close() error {
	s.rows = nil
	return s.Input.Close()
}

// ---------------------------------------------------------------- Joins

// HashJoin is an equi-join. The right (build) side is hashed; the left side
// probes. Residual evaluates over the concatenated row.
type HashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []Expr
	LeftOuter           bool // LEFT JOIN: unmatched left rows padded with NULLs
	Residual            Expr
	BuildEst            float64 // optimizer estimate of build-side rows, 0 if unknown
	ShareBuild          bool    // Exchange installs one shared build table across workers

	table  map[uint64][]types.Row
	shared *sharedBuild // when set, the build runs once and is read by all workers
	cols   []ColInfo

	in      Batch     // probe input scratch
	inPos   int       // cursor into in.Rows
	keyBuf  types.Row // probe-key scratch
	rkeyBuf types.Row // candidate right-key scratch
	arena   rowArena  // output rows
	nullPad types.Row // NULL pad for unmatched outer rows
}

func (j *HashJoin) Columns() []ColInfo {
	if j.cols == nil {
		j.cols = append(append([]ColInfo{}, j.Left.Columns()...), j.Right.Columns()...)
	}
	return j.cols
}

func (j *HashJoin) Open(ctx *Ctx) error {
	if j.shared != nil {
		// Parallel probe: the first worker in materializes the build side
		// once; everyone reads the same immutable table.
		table, err := j.shared.get(ctx)
		if err != nil {
			return err
		}
		j.table = table
	} else {
		table, err := buildHashTable(ctx, j.Right, j.RightKeys, j.BuildEst)
		if err != nil {
			return err
		}
		j.table = table
	}
	j.in.Rows = j.in.Rows[:0]
	j.inPos = 0
	j.nullPad = make(types.Row, len(j.Right.Columns()))
	return j.Left.Open(ctx)
}

// buildHashTable opens, drains and closes the build side into a hash table
// keyed by the join-key hash. Keys are evaluated into one reusable buffer
// and only their hash is kept — the probe side re-verifies candidates by
// value, so the build allocates nothing per row beyond the bucket slices.
// Rows with NULL keys are dropped (they never join).
func buildHashTable(ctx *Ctx, build Operator, keys []Expr, est float64) (map[uint64][]types.Row, error) {
	if err := build.Open(ctx); err != nil {
		return nil, err
	}
	defer build.Close()
	table := make(map[uint64][]types.Row, preallocSize(est, 1<<16))
	var b Batch
	keyBuf := make(types.Row, 0, len(keys))
	for {
		if err := build.BatchNext(ctx, &b); err != nil {
			return nil, err
		}
		if len(b.Rows) == 0 {
			return table, nil
		}
		for _, row := range b.Rows {
			key, null, err := evalKeysInto(keys, row, &ctx.Env, keyBuf)
			keyBuf = key[:0]
			if err != nil {
				return nil, err
			}
			if null {
				continue // NULL keys never join
			}
			h := key.Hash()
			table[h] = append(table[h], row)
		}
	}
}

// evalKeysInto evaluates join keys into a reusable buffer, reporting true
// when any key is NULL (such a row never joins). The returned slice aliases
// buf and is only valid until the next call.
func evalKeysInto(keys []Expr, row types.Row, env *Env, buf types.Row) (types.Row, bool, error) {
	buf = buf[:0]
	for _, k := range keys {
		v, err := k.Eval(row, env)
		if err != nil {
			return buf, false, err
		}
		if v.IsNull() {
			return buf, true, nil
		}
		buf = append(buf, v)
	}
	return buf, false, nil
}

// BatchNext probes a batch of left rows against the build table, reusing the
// probe-key buffer and carving output rows from the arena. The output batch
// may exceed BatchSize when a probe row matches many build rows.
func (j *HashJoin) BatchNext(ctx *Ctx, b *Batch) error {
	b.Rows = b.Rows[:0]
	// Probe rows only ever reach the output as arena concat copies, so the
	// probe side may recycle delivered rows once this window is consumed.
	j.in.Ephemeral = true
	for len(b.Rows) < BatchSize {
		if j.inPos >= len(j.in.Rows) {
			if err := j.Left.BatchNext(ctx, &j.in); err != nil {
				return err
			}
			j.inPos = 0
			if len(j.in.Rows) == 0 {
				return nil
			}
			// Size arena refills to this batch's expected output (~one
			// match per probe row); high-fanout probes refill at the same
			// granularity.
			j.arena.hint(len(j.in.Rows) * len(j.Columns()))
		}
		for j.inPos < len(j.in.Rows) && len(b.Rows) < BatchSize {
			left := j.in.Rows[j.inPos]
			j.inPos++
			key, null, err := evalKeysInto(j.LeftKeys, left, &ctx.Env, j.keyBuf)
			j.keyBuf = key[:0]
			if err != nil {
				return err
			}
			matched := false
			if !null {
				for _, right := range j.table[key.Hash()] {
					rkey, _, err := evalKeysInto(j.RightKeys, right, &ctx.Env, j.rkeyBuf)
					j.rkeyBuf = rkey[:0]
					if err != nil {
						return err
					}
					if types.CompareRows(key, rkey) != 0 {
						continue // hash collision
					}
					combined := j.arena.concat(left, right)
					ok, err := EvalBool(j.Residual, combined, &ctx.Env)
					if err != nil {
						return err
					}
					if ok {
						matched = true
						b.Rows = append(b.Rows, combined)
					}
				}
			}
			if !matched && j.LeftOuter {
				b.Rows = append(b.Rows, j.arena.concat(left, j.nullPad))
			}
		}
	}
	return nil
}

func (j *HashJoin) Close() error {
	j.table = nil
	return j.Left.Close()
}

// NestedLoop joins with an arbitrary predicate. The right side is
// materialized at Open and rescanned per left row.
type NestedLoop struct {
	Left, Right Operator
	Pred        Expr
	LeftOuter   bool

	rightRows []types.Row
	cols      []ColInfo

	in      Batch     // left input scratch
	inPos   int       // cursor into in.Rows: the current left row
	ri      int       // next right row to pair with the current left row
	matched bool      // the current left row has matched
	pair    types.Row // candidate pair scratch, copied out on a match
	arena   rowArena  // output rows
	nullPad types.Row // NULL pad for unmatched outer rows
}

func (j *NestedLoop) Columns() []ColInfo {
	if j.cols == nil {
		j.cols = append(append([]ColInfo{}, j.Left.Columns()...), j.Right.Columns()...)
	}
	return j.cols
}

func (j *NestedLoop) Open(ctx *Ctx) error {
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	j.rightRows = nil
	err := drain(ctx, j.Right, func(row types.Row) error {
		j.rightRows = append(j.rightRows, row)
		return nil
	})
	j.Right.Close()
	if err != nil {
		return err
	}
	j.in.Rows = j.in.Rows[:0]
	j.inPos, j.ri, j.matched = 0, 0, false
	j.nullPad = make(types.Row, len(j.Right.Columns()))
	return j.Left.Open(ctx)
}

// BatchNext pairs left rows with every right row, evaluating the predicate
// on a scratch pair and copying only matches into the arena. A left row's
// pairs may span several batches; the cursor resumes where the last one
// stopped.
func (j *NestedLoop) BatchNext(ctx *Ctx, b *Batch) error {
	b.Rows = b.Rows[:0]
	// Left rows only reach the output as arena copies.
	j.in.Ephemeral = true
	for len(b.Rows) < BatchSize {
		if j.inPos >= len(j.in.Rows) {
			if err := j.Left.BatchNext(ctx, &j.in); err != nil {
				return err
			}
			j.inPos = 0
			if len(j.in.Rows) == 0 {
				return nil
			}
			j.arena.hint(len(j.in.Rows) * len(j.Columns()))
		}
		left := j.in.Rows[j.inPos]
		for j.ri < len(j.rightRows) && len(b.Rows) < BatchSize {
			right := j.rightRows[j.ri]
			j.ri++
			j.pair = append(append(j.pair[:0], left...), right...)
			ok, err := EvalBool(j.Pred, j.pair, &ctx.Env)
			if err != nil {
				return err
			}
			if ok {
				j.matched = true
				b.Rows = append(b.Rows, j.arena.concat(left, right))
			}
		}
		if j.ri < len(j.rightRows) {
			return nil // batch full mid-row
		}
		if !j.matched && j.LeftOuter {
			b.Rows = append(b.Rows, j.arena.concat(left, j.nullPad))
		}
		j.inPos, j.ri, j.matched = j.inPos+1, 0, false
	}
	return nil
}

func (j *NestedLoop) Close() error {
	j.rightRows = nil
	return j.Left.Close()
}

// ---------------------------------------------------------------- UnionAll

// UnionAll concatenates its inputs. Combined with StartupFilters it
// implements ChoosePlan (paper figure 2b).
type UnionAll struct {
	Inputs []Operator

	cur int
}

func (u *UnionAll) Columns() []ColInfo { return u.Inputs[0].Columns() }

func (u *UnionAll) Open(ctx *Ctx) error {
	for _, in := range u.Inputs {
		if err := in.Open(ctx); err != nil {
			return err
		}
	}
	u.cur = 0
	return nil
}

// BatchNext delegates to the current input, advancing on its EOS.
func (u *UnionAll) BatchNext(ctx *Ctx, b *Batch) error {
	for u.cur < len(u.Inputs) {
		if err := u.Inputs[u.cur].BatchNext(ctx, b); err != nil {
			return err
		}
		if len(b.Rows) > 0 {
			return nil
		}
		u.cur++
	}
	b.Rows = b.Rows[:0]
	return nil
}

func (u *UnionAll) Close() error {
	var first error
	for _, in := range u.Inputs {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---------------------------------------------------------------- Remote

// Remote is the DataTransfer operator: it executes SQL text on the backend
// server and streams the result. Its appearance in a plan is exactly where
// the optimizer placed a DataTransfer enforcer (paper §5).
type Remote struct {
	SQLText string
	Cols    []ColInfo

	rows []types.Row
	pos  int
}

func (r *Remote) Columns() []ColInfo { return r.Cols }

func (r *Remote) Open(ctx *Ctx) error {
	if ctx.Remote == nil {
		return fmt.Errorf("exec: no remote server configured for query %q", r.SQLText)
	}
	sp := ctx.Span.Child("remote").Attr("sql", r.SQLText)
	start := time.Now()
	var rs *ResultSet
	var err error
	if sq, ok := ctx.Remote.(SpanQuerier); ok && ctx.TraceID != "" {
		var wspan *trace.WireSpan
		rs, wspan, err = sq.QueryTraced(r.SQLText, ctx.Params, ctx.TraceID)
		sp.Graft(wspan)
	} else {
		rs, err = ctx.Remote.Query(r.SQLText, ctx.Params)
	}
	metrics.Default.Histogram("exec.remote_roundtrip_seconds").ObserveDuration(time.Since(start))
	sp.End()
	if err != nil {
		return fmt.Errorf("exec: remote query failed: %w", err)
	}
	if ctx.Counters != nil {
		ctx.Counters.RemoteQueries++
		ctx.Counters.RowsRemote += int64(len(rs.Rows))
	}
	r.rows = rs.Rows
	r.pos = 0
	return nil
}

// BatchNext slices the fetched result.
func (r *Remote) BatchNext(_ *Ctx, b *Batch) error {
	sliceBatch(r.rows, &r.pos, b)
	return nil
}

func (r *Remote) Close() error {
	r.rows = nil
	return nil
}

// ---------------------------------------------------------------- Values

// Values yields fixed rows (used for SELECT without FROM).
type Values struct {
	Cols []ColInfo
	Rows [][]Expr

	pos int
}

func (v *Values) Columns() []ColInfo { return v.Cols }
func (v *Values) Open(*Ctx) error    { v.pos = 0; return nil }

// BatchNext evaluates the next window of rows.
func (v *Values) BatchNext(ctx *Ctx, b *Batch) error {
	b.Rows = b.Rows[:0]
	for ; v.pos < len(v.Rows) && len(b.Rows) < BatchSize; v.pos++ {
		exprs := v.Rows[v.pos]
		out := make(types.Row, len(exprs))
		for i, e := range exprs {
			val, err := e.Eval(nil, &ctx.Env)
			if err != nil {
				return err
			}
			out[i] = val
		}
		b.Rows = append(b.Rows, out)
	}
	return nil
}

func (v *Values) Close() error { return nil }

// ------------------------------------------------------------- VirtualScan

// VirtualScan yields the rows of a virtual system table (sys.*). The
// provider is called once per Open so a query sees one consistent
// materialization; there is no storage, no transaction and no index path.
type VirtualScan struct {
	Name string // full dotted table name, e.g. "sys.query_stats"
	Rows func() []types.Row
	Cols []ColInfo

	rows []types.Row
	pos  int
}

func (s *VirtualScan) Columns() []ColInfo { return s.Cols }

func (s *VirtualScan) Open(*Ctx) error {
	s.rows = s.Rows()
	s.pos = 0
	return nil
}

// BatchNext slices the materialized rows, counting them as scanned.
func (s *VirtualScan) BatchNext(ctx *Ctx, b *Batch) error {
	sliceBatch(s.rows, &s.pos, b)
	if ctx.Counters != nil {
		ctx.Counters.RowsScanned += int64(len(b.Rows))
	}
	return nil
}

func (s *VirtualScan) Close() error {
	s.rows = nil
	return nil
}

// ---------------------------------------------------------------- Distinct

// Distinct removes duplicate rows (hash-based).
type Distinct struct {
	Input Operator

	seen map[uint64][]types.Row
	in   Batch // input scratch; never Ephemeral, since seen retains rows
}

func (d *Distinct) Columns() []ColInfo { return d.Input.Columns() }

func (d *Distinct) Open(ctx *Ctx) error {
	d.seen = make(map[uint64][]types.Row)
	return d.Input.Open(ctx)
}

// BatchNext emits the first occurrence of each row, pulling input until at
// least one new row is found (or EOS).
func (d *Distinct) BatchNext(ctx *Ctx, b *Batch) error {
	b.Rows = b.Rows[:0]
	for len(b.Rows) == 0 {
		if err := d.Input.BatchNext(ctx, &d.in); err != nil {
			return err
		}
		if len(d.in.Rows) == 0 {
			return nil
		}
		for _, row := range d.in.Rows {
			if d.add(row) {
				b.Rows = append(b.Rows, row)
			}
		}
	}
	return nil
}

// add records row, reporting false when an equal row was seen before.
func (d *Distinct) add(row types.Row) bool {
	h := row.Hash()
	for _, prev := range d.seen[h] {
		if types.RowsEqual(prev, row) {
			return false
		}
	}
	d.seen[h] = append(d.seen[h], row)
	return true
}

func (d *Distinct) Close() error {
	d.seen = nil
	return d.Input.Close()
}
