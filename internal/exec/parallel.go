package exec

import (
	"fmt"
	"sync"

	"mtcache/internal/metrics"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// Intra-query parallelism: the Exchange (Gather) enforcer runs DOP clones of
// its Template pipeline on worker goroutines, each over a disjoint partition
// of the same pinned MVCC snapshot, and merges their output through a bounded
// channel. The optimizer inserts Exchange cost-based (see opt/parallel.go);
// partition bounds are computed once at Open from the shared snapshot, so
// workers never coordinate during the scan.

// exchangeBatch is how many rows ride in one channel send; batching
// amortizes channel synchronization.
const exchangeBatch = 64

// Exchange runs DOP partitioned clones of Template concurrently and gathers
// their rows. Row order across partitions is unspecified. Errors from any
// worker cancel the others; Close is safe at any point and never leaks
// goroutines: it aborts the workers, drains the channel, and waits for them.
type Exchange struct {
	Template Operator
	DOP      int

	workers    []Operator
	ch         chan []types.Row
	abort      chan struct{}
	abortOnce  *sync.Once
	wg         sync.WaitGroup
	mu         sync.Mutex
	err        error
	workerRows []int64
	opened     bool
	closed     bool
}

func (e *Exchange) Columns() []ColInfo { return e.Template.Columns() }

func (e *Exchange) Open(ctx *Ctx) error {
	dop := e.DOP
	if dop < 1 {
		dop = 1
	}
	e.workers = make([]Operator, dop)
	for i := range e.workers {
		e.workers[i] = CloneOperator(e.Template)
	}
	if err := bindPartitions(ctx, e.Template, e.workers); err != nil {
		return err
	}
	metrics.Default.Counter("exec.parallel_exchanges").Add(1)
	metrics.Default.Counter("exec.parallel_workers").Add(int64(dop))
	span := ctx.Span.Child("exchange")
	span.Attr("dop", fmt.Sprint(dop))

	e.ch = make(chan []types.Row, dop*2)
	e.abort = make(chan struct{})
	e.abortOnce = &sync.Once{}
	e.err = nil
	e.workerRows = make([]int64, dop)
	e.opened, e.closed = true, false

	var done <-chan struct{}
	if ctx.Context != nil {
		done = ctx.Context.Done()
	}
	e.wg.Add(dop)
	for i := range e.workers {
		wctx := *ctx
		wctx.Counters = &Counters{}
		wctx.Span = span.Child(fmt.Sprintf("worker%d", i))
		go e.runWorker(i, e.workers[i], &wctx, ctx, done)
	}
	// Closer: once every worker has exited, the stream is complete.
	go func() {
		e.wg.Wait()
		close(e.ch)
		span.End()
	}()
	return nil
}

// runWorker drives one partitioned clone to completion, pushing row batches
// to the gather channel. Worker counters are private and merged into the
// parent's on exit; the worker span records the rows it produced.
func (e *Exchange) runWorker(i int, op Operator, ctx *Ctx, parent *Ctx, done <-chan struct{}) {
	var rows int64
	defer func() {
		e.workerRows[i] = rows
		if parent.Counters != nil {
			e.mu.Lock()
			parent.Counters.RowsScanned += ctx.Counters.RowsScanned
			parent.Counters.RowsRemote += ctx.Counters.RowsRemote
			parent.Counters.RemoteQueries += ctx.Counters.RemoteQueries
			parent.Counters.StartupPruned += ctx.Counters.StartupPruned
			e.mu.Unlock()
		}
		ctx.Span.Attr("rows", fmt.Sprint(rows))
		ctx.Span.End()
		e.wg.Done()
	}()
	if err := op.Open(ctx); err != nil {
		e.fail(err)
		return
	}
	defer op.Close()
	batch := make([]types.Row, 0, exchangeBatch)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case e.ch <- batch:
			batch = make([]types.Row, 0, exchangeBatch)
			return true
		case <-e.abort:
			return false
		case <-done:
			e.fail(parent.Context.Err())
			return false
		}
	}
	var in Batch
	for {
		select {
		case <-e.abort:
			return
		case <-done:
			e.fail(parent.Context.Err())
			return
		default:
		}
		// Pull a whole batch through the worker pipeline; the channel send
		// needs an owned slice, so rows are copied out of the reused window.
		if err := op.BatchNext(ctx, &in); err != nil {
			e.fail(err)
			return
		}
		if len(in.Rows) == 0 {
			flush()
			return
		}
		rows += int64(len(in.Rows))
		batch = append(batch, in.Rows...)
		if len(batch) >= exchangeBatch {
			if !flush() {
				return
			}
		}
	}
}

// fail records the first worker error and aborts the other workers.
func (e *Exchange) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	e.abortOnce.Do(func() { close(e.abort) })
}

// BatchNext hands one whole worker chunk to the parent per call.
func (e *Exchange) BatchNext(_ *Ctx, b *Batch) error {
	batch, ok := <-e.ch
	if !ok {
		e.mu.Lock()
		err := e.err
		e.mu.Unlock()
		b.Rows = b.Rows[:0]
		return err
	}
	b.Rows = append(b.Rows[:0], batch...)
	return nil
}

func (e *Exchange) Close() error {
	if !e.opened || e.closed {
		return nil
	}
	e.closed = true
	e.abortOnce.Do(func() { close(e.abort) })
	// Drain until the closer closes the channel: unblocks any worker parked
	// on a send, then the Wait below guarantees no goroutine outlives Close.
	for range e.ch {
	}
	e.wg.Wait()
	e.workers = nil
	return nil
}

// WorkerRows reports how many rows each worker produced in the last
// execution. Valid after the stream is drained or Close returns; EXPLAIN
// ANALYZE prints it.
func (e *Exchange) WorkerRows() []int64 { return e.workerRows }

// bindPartitions walks the template tree and all worker clones in lockstep
// (CloneOperator preserves shape), computes partition bounds once from the
// shared snapshot, and installs each worker's binding: heap-slot ranges on
// Parallel Scans, separator-key ranges on Parallel IndexScans, and one
// sharedBuild on ShareBuild HashJoins.
func bindPartitions(ctx *Ctx, tmpl Operator, workers []Operator) error {
	switch t := tmpl.(type) {
	case *Scan:
		if !t.Parallel {
			return nil
		}
		tv := ctx.Txn.Table(t.TableName)
		if tv == nil {
			if err := ctx.Txn.Err(); err != nil {
				return err
			}
			return fmt.Errorf("exec: table %s does not exist", t.TableName)
		}
		parts := tv.SlotPartitions(len(workers))
		for i, w := range workers {
			ws := w.(*Scan)
			if i < len(parts) {
				r := parts[i]
				ws.part = &r
			} else {
				ws.part = &storage.SlotRange{} // empty range
			}
		}
	case *IndexScan:
		if !t.Parallel {
			return nil
		}
		tv := ctx.Txn.Table(t.TableName)
		if tv == nil {
			if err := ctx.Txn.Err(); err != nil {
				return err
			}
			return fmt.Errorf("exec: table %s does not exist", t.TableName)
		}
		iv := tv.Index(t.IndexName)
		if iv == nil {
			return fmt.Errorf("exec: index %s on %s does not exist", t.IndexName, t.TableName)
		}
		seps := iv.SeparatorKeys(len(workers))
		for i, w := range workers {
			ws := w.(*IndexScan)
			p := &indexPart{}
			switch {
			case i > len(seps):
				p.empty = true // more workers than key ranges
			default:
				if i > 0 {
					p.lo = seps[i-1]
				}
				if i < len(seps) {
					p.hi = seps[i]
				}
			}
			ws.part = p
		}
	case *Filter:
		return bindPartitions(ctx, t.Input, pickChildren(workers, func(op Operator) Operator { return op.(*Filter).Input }))
	case *Project:
		return bindPartitions(ctx, t.Input, pickChildren(workers, func(op Operator) Operator { return op.(*Project).Input }))
	case *Limit:
		return bindPartitions(ctx, t.Input, pickChildren(workers, func(op Operator) Operator { return op.(*Limit).Input }))
	case *Distinct:
		return bindPartitions(ctx, t.Input, pickChildren(workers, func(op Operator) Operator { return op.(*Distinct).Input }))
	case *Sort:
		return bindPartitions(ctx, t.Input, pickChildren(workers, func(op Operator) Operator { return op.(*Sort).Input }))
	case *TopN:
		return bindPartitions(ctx, t.Input, pickChildren(workers, func(op Operator) Operator { return op.(*TopN).Input }))
	case *HashAgg:
		return bindPartitions(ctx, t.Input, pickChildren(workers, func(op Operator) Operator { return op.(*HashAgg).Input }))
	case *PartialAgg:
		return bindPartitions(ctx, t.Input, pickChildren(workers, func(op Operator) Operator { return op.(*PartialAgg).Input }))
	case *HashJoin:
		if t.ShareBuild {
			sb := newSharedBuild(t, len(workers))
			for _, w := range workers {
				w.(*HashJoin).shared = sb
			}
			// Only the probe side is partitioned; the build side belongs to
			// the shared build.
			return bindPartitions(ctx, t.Left, pickChildren(workers, func(op Operator) Operator { return op.(*HashJoin).Left }))
		}
		if err := bindPartitions(ctx, t.Left, pickChildren(workers, func(op Operator) Operator { return op.(*HashJoin).Left })); err != nil {
			return err
		}
		return bindPartitions(ctx, t.Right, pickChildren(workers, func(op Operator) Operator { return op.(*HashJoin).Right }))
	case *NestedLoop:
		if err := bindPartitions(ctx, t.Left, pickChildren(workers, func(op Operator) Operator { return op.(*NestedLoop).Left })); err != nil {
			return err
		}
		return bindPartitions(ctx, t.Right, pickChildren(workers, func(op Operator) Operator { return op.(*NestedLoop).Right }))
	case *UnionAll:
		for ci := range t.Inputs {
			ci := ci
			if err := bindPartitions(ctx, t.Inputs[ci], pickChildren(workers, func(op Operator) Operator { return op.(*UnionAll).Inputs[ci] })); err != nil {
				return err
			}
		}
	case *StartupFilter:
		return bindPartitions(ctx, t.Input, pickChildren(workers, func(op Operator) Operator { return op.(*StartupFilter).Input }))
	}
	return nil
}

func pickChildren(workers []Operator, pick func(Operator) Operator) []Operator {
	out := make([]Operator, len(workers))
	for i, w := range workers {
		out[i] = pick(w)
	}
	return out
}

// sharedBuild materializes one hash-join build table exactly once — the
// first worker in runs it, everyone blocks on the same sync.Once — and
// shares the resulting read-only table across all probe workers. When the
// build side itself has a Parallel leaf, the build is partitioned across
// goroutines and the per-partition tables merged.
type sharedBuild struct {
	once  sync.Once
	build func(ctx *Ctx) (map[uint64][]types.Row, error)
	table map[uint64][]types.Row
	err   error
}

func (s *sharedBuild) get(ctx *Ctx) (map[uint64][]types.Row, error) {
	s.once.Do(func() { s.table, s.err = s.build(ctx) })
	return s.table, s.err
}

func newSharedBuild(tj *HashJoin, dop int) *sharedBuild {
	sb := &sharedBuild{}
	sb.build = func(ctx *Ctx) (map[uint64][]types.Row, error) {
		if dop > 1 && hasParallelLeaf(tj.Right) {
			return parallelBuild(ctx, tj.Right, tj.RightKeys, tj.BuildEst, dop)
		}
		return buildHashTable(ctx, CloneOperator(tj.Right), tj.RightKeys, tj.BuildEst)
	}
	return sb
}

// parallelBuild partitions the build-side pipeline across dop goroutines and
// merges their private hash tables into one.
func parallelBuild(ctx *Ctx, tmpl Operator, keys []Expr, est float64, dop int) (map[uint64][]types.Row, error) {
	clones := make([]Operator, dop)
	for i := range clones {
		clones[i] = CloneOperator(tmpl)
	}
	if err := bindPartitions(ctx, tmpl, clones); err != nil {
		return nil, err
	}
	tables := make([]map[uint64][]types.Row, dop)
	errs := make([]error, dop)
	counters := make([]*Counters, dop)
	var wg sync.WaitGroup
	for i := range clones {
		wg.Add(1)
		counters[i] = &Counters{}
		go func(i int) {
			defer wg.Done()
			wctx := *ctx
			wctx.Counters = counters[i]
			tables[i], errs[i] = buildHashTable(&wctx, clones[i], keys, est/float64(dop))
		}(i)
	}
	wg.Wait()
	if ctx.Counters != nil {
		for _, c := range counters {
			ctx.Counters.RowsScanned += c.RowsScanned
			ctx.Counters.RowsRemote += c.RowsRemote
			ctx.Counters.RemoteQueries += c.RemoteQueries
			ctx.Counters.StartupPruned += c.StartupPruned
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := tables[0]
	for _, t := range tables[1:] {
		for h, rows := range t {
			merged[h] = append(merged[h], rows...)
		}
	}
	return merged, nil
}

// hasParallelLeaf reports whether op contains a Parallel-marked scan the
// partition binder can split.
func hasParallelLeaf(op Operator) bool {
	switch x := op.(type) {
	case *Scan:
		return x.Parallel
	case *IndexScan:
		return x.Parallel
	case *Filter:
		return hasParallelLeaf(x.Input)
	case *Project:
		return hasParallelLeaf(x.Input)
	case *HashJoin:
		return hasParallelLeaf(x.Left)
	}
	return false
}
