package exec

import "time"

// OpStats accumulates per-operator runtime statistics for EXPLAIN ANALYZE.
type OpStats struct {
	Rows   int64         // rows the operator emitted
	Time   time.Duration // wall time inside Open + BatchNext + Close
	Opened bool          // false when a StartupFilter pruned this subtree
}

// Instrumented wraps an operator, timing its calls and counting produced
// rows. It is transparent to execution: Columns and errors pass through.
type Instrumented struct {
	Op    Operator
	Stats OpStats
}

// Instrument wraps every operator in the tree with an *Instrumented shell,
// returning the new root. The input tree is mutated (child links are
// redirected), so instrument a private clone, never a cached plan.
func Instrument(op Operator) *Instrumented {
	switch x := op.(type) {
	case *Filter:
		x.Input = Instrument(x.Input)
	case *StartupFilter:
		x.Input = Instrument(x.Input)
	case *Project:
		x.Input = Instrument(x.Input)
	case *Limit:
		x.Input = Instrument(x.Input)
	case *Sort:
		x.Input = Instrument(x.Input)
	case *Distinct:
		x.Input = Instrument(x.Input)
	case *HashAgg:
		x.Input = Instrument(x.Input)
	case *TopN:
		x.Input = Instrument(x.Input)
	case *FinalAgg:
		x.Input = Instrument(x.Input)
	case *Exchange:
		// Deliberately not descending into the template: workers execute
		// private clones, so template-side shells would never see a row.
		// The Exchange's own shell carries the gathered totals and the
		// per-worker counts come from WorkerRows.
	case *HashJoin:
		x.Left = Instrument(x.Left)
		x.Right = Instrument(x.Right)
	case *NestedLoop:
		x.Left = Instrument(x.Left)
		x.Right = Instrument(x.Right)
	case *UnionAll:
		for i, in := range x.Inputs {
			x.Inputs[i] = Instrument(in)
		}
	}
	return &Instrumented{Op: op}
}

func (i *Instrumented) Columns() []ColInfo { return i.Op.Columns() }

func (i *Instrumented) Open(ctx *Ctx) error {
	start := time.Now()
	err := i.Op.Open(ctx)
	i.Stats.Time += time.Since(start)
	i.Stats.Opened = true
	return err
}

// BatchNext passes the batch through, b.Ephemeral included, counting its
// rows.
func (i *Instrumented) BatchNext(ctx *Ctx, b *Batch) error {
	start := time.Now()
	err := i.Op.BatchNext(ctx, b)
	i.Stats.Time += time.Since(start)
	i.Stats.Rows += int64(len(b.Rows))
	return err
}

func (i *Instrumented) Close() error {
	start := time.Now()
	err := i.Op.Close()
	i.Stats.Time += time.Since(start)
	return err
}
