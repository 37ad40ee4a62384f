package exec

import (
	"mtcache/internal/types"
)

// BatchSize is the row count operators aim for per batch. 64 rows amortizes
// the per-call virtual dispatch and bounds checks across the tree while
// keeping a batch comfortably inside the L1/L2 working set; it matches the
// chunk size Exchange already uses on its worker channels.
const BatchSize = 64

// Batch is a reusable window of rows flowing between operators. Only the
// Rows slice header is reused between calls — by default the row values
// themselves are stable (MVCC snapshot rows from storage, or arena rows
// owned by the producing operator), so consumers may retain them.
//
// A consumer that copies out everything it keeps before its next pull —
// aggregation cloning group keys, a join probe emitting concatenated
// copies — sets Ephemeral before calling BatchNext. That releases the
// producer from the durability guarantee: it may overwrite the delivered
// rows on the following BatchNext call, which lets Project recycle one
// output slab instead of growing a fresh arena chunk per batch. Operators
// that merely pass rows through (Filter, Limit, UnionAll, StartupFilter,
// Instrumented) propagate the flag; operators that retain input rows (Sort,
// TopN, Distinct, hash-join builds, NestedLoop's right side, Exchange
// workers, Run itself) leave it unset on the batches they own.
type Batch struct {
	Rows      []types.Row
	Ephemeral bool
}

// sliceBatch advances a cursor over fully materialized rows, handing out
// BatchSize windows without copying.
func sliceBatch(rows []types.Row, pos *int, b *Batch) {
	n := len(rows) - *pos
	if n > BatchSize {
		n = BatchSize
	}
	if n <= 0 {
		b.Rows = b.Rows[:0]
		return
	}
	b.Rows = append(b.Rows[:0], rows[*pos:*pos+n]...)
	*pos += n
}

// rowArena carves fixed-width output rows out of batch-sized chunks,
// replacing a make per row with one make per batch. Callers hint the coming
// batch's total width so chunks are sized to real demand — a point query
// allocates exactly its one row, a full scan batch one 64-row chunk — and
// live result rows never pin more than one batch of slack. Chunks are never
// reused or freed early — every row handed out owns its slice for the life
// of the result — so rows emitted from an arena are exactly as durable as
// individually allocated ones. The full-capacity reslice (buf[:n:n]) makes
// appending to an emitted row impossible to alias into a neighbour.
type rowArena struct {
	buf   []types.Value
	chunk int // refill granularity, set by hint
}

// hint sets the refill size for the coming batch (total values expected).
func (a *rowArena) hint(n int) { a.chunk = n }

func (a *rowArena) alloc(n int) types.Row {
	if n == 0 {
		return types.Row{}
	}
	if len(a.buf) < n {
		c := a.chunk
		if n > c {
			c = n
		}
		a.buf = make([]types.Value, c)
	}
	r := types.Row(a.buf[:n:n])
	a.buf = a.buf[n:]
	return r
}

// concat builds l ++ r in arena storage.
func (a *rowArena) concat(l, r types.Row) types.Row {
	out := a.alloc(len(l) + len(r))
	copy(out, l)
	copy(out[len(l):], r)
	return out
}
