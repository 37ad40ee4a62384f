package exec_test

import (
	"fmt"
	"sort"
	"testing"

	"mtcache/internal/exec"
	"mtcache/internal/exec/exectest"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

func lit(v int64) exec.Expr { return &exec.ConstExpr{V: types.NewInt(v)} }

func col(i int) exec.Expr { return &exec.ColExpr{I: i} }

func bin(op sql.BinOp, l, r exec.Expr) exec.Expr { return &exec.BinExpr{Op: op, L: l, R: r} }

func nums() *exec.Scan { return &exec.Scan{TableName: "nums", Cols: exec.NumsCols()} }

func vals() *exec.Scan { return &exec.Scan{TableName: "vals", Cols: exec.ValsCols()} }

// stubRemote answers every query with the same rows.
type stubRemote struct{ rows []types.Row }

func (r stubRemote) Query(string, exec.Params) (*exec.ResultSet, error) {
	return &exec.ResultSet{Cols: exec.NumsCols(), Rows: r.rows}, nil
}

func (stubRemote) Exec(string, exec.Params) (int64, error) { return 0, nil }

// refCase is one plan shape run through both exec.Run and the reference.
type refCase struct {
	name      string
	store     string // "nums" or "vals"
	op        func() exec.Operator
	params    exec.Params
	unordered bool // Exchange plans: row order across workers is unspecified
}

func aggCols(n int) []exec.ColInfo { return make([]exec.ColInfo, n) }

// partialFinal wires PartialAgg -> Exchange -> FinalAgg over a parallel scan
// of vals, the shape opt.parallelAgg emits.
func partialFinal(groupBy []exec.Expr, aggs []exec.AggSpec) exec.Operator {
	width := len(groupBy)
	for _, a := range aggs {
		width += a.PartialWidth()
	}
	partial := &exec.PartialAgg{
		Input:   &exec.Scan{TableName: "vals", Cols: exec.ValsCols(), Parallel: true},
		GroupBy: groupBy, Aggs: aggs, Cols: aggCols(width),
	}
	return &exec.FinalAgg{
		Input:     &exec.Exchange{Template: partial, DOP: 3},
		GroupKeys: len(groupBy), Aggs: aggs, Cols: aggCols(len(groupBy) + len(aggs)),
	}
}

func allAggs() []exec.AggSpec {
	return []exec.AggSpec{
		{Func: exec.AggCountStar},
		{Func: exec.AggCount, Arg: col(2)},
		{Func: exec.AggSum, Arg: col(2)},
		{Func: exec.AggSum, Arg: col(3)},
		{Func: exec.AggAvg, Arg: col(2)},
		{Func: exec.AggMin, Arg: col(2)},
		{Func: exec.AggMax, Arg: col(3)},
		{Func: exec.AggCount, Arg: col(1), Distinct: true},
	}
}

func refCases() []refCase {
	guard := bin(sql.OpLE, &exec.ParamExpr{Name: "k"}, lit(5))
	choosePlan := func() exec.Operator {
		return &exec.UnionAll{Inputs: []exec.Operator{
			&exec.StartupFilter{Guard: guard, Branch: "local", Input: nums()},
			&exec.StartupFilter{Guard: &exec.NotExpr{X: guard}, Branch: "remote", Input: &exec.Remote{SQLText: "SELECT a, b FROM nums", Cols: exec.NumsCols()}},
		}}
	}
	byColor := []exec.SortKey{{E: col(1)}} // 5 distinct values: ties abound
	valuesOp := func() exec.Operator {
		return &exec.Values{Cols: exec.NumsCols(), Rows: [][]exec.Expr{
			{lit(-1), &exec.ConstExpr{V: types.NewString("v1")}},
			{bin(sql.OpMul, lit(6), lit(7)), &exec.ConstExpr{V: types.Null}},
		}}
	}
	cases := []refCase{
		{name: "scan", op: func() exec.Operator { return nums() }},
		{name: "filter", op: func() exec.Operator { return &exec.Filter{Input: nums(), Pred: bin(sql.OpLT, col(0), lit(100))} }},
		{name: "filter-interpreted", op: func() exec.Operator {
			return &exec.Filter{Input: nums(), Pred: &exec.LikeMatch{X: col(1), Pattern: &exec.ConstExpr{V: types.NewString("%e%")}}}
		}},
		{name: "index-range", op: func() exec.Operator {
			return &exec.IndexScan{TableName: "nums", IndexName: "__pk", Cols: exec.NumsCols(), Lo: []exec.Expr{lit(20)}, Hi: []exec.Expr{lit(129)}}
		}},
		{name: "index-lower-only", op: func() exec.Operator {
			return &exec.IndexScan{TableName: "nums", IndexName: "__pk", Cols: exec.NumsCols(), Lo: []exec.Expr{lit(250)}}
		}},
		{name: "index-upper-only", op: func() exec.Operator {
			return &exec.IndexScan{TableName: "nums", IndexName: "__pk", Cols: exec.NumsCols(), Hi: []exec.Expr{lit(70)}}
		}},
		{name: "index-param-seek", params: exec.Params{"k": types.NewInt(42)}, op: func() exec.Operator {
			k := []exec.Expr{&exec.ParamExpr{Name: "k"}}
			return &exec.Filter{
				Input: &exec.IndexScan{TableName: "nums", IndexName: "__pk", Cols: exec.NumsCols(), Lo: k, Hi: k},
				Pred:  bin(sql.OpEQ, col(0), &exec.ParamExpr{Name: "k"}),
			}
		}},
		{name: "project", op: func() exec.Operator {
			return &exec.Project{Input: nums(), Exprs: []exec.Expr{bin(sql.OpMul, col(0), lit(2)), col(1)}, Cols: aggCols(2)}
		}},
		{name: "project-gather", op: func() exec.Operator {
			return &exec.Project{Input: &exec.Filter{Input: nums(), Pred: bin(sql.OpGE, col(0), lit(40))}, Exprs: []exec.Expr{col(1), col(0)}, Cols: aggCols(2)}
		}},
		{name: "limit-sort-desc", op: func() exec.Operator {
			return &exec.Limit{N: lit(3), Input: &exec.Sort{Input: nums(), Keys: []exec.SortKey{{E: col(0), Desc: true}}}}
		}},
		{name: "sort-multikey", op: func() exec.Operator {
			return &exec.Sort{Input: nums(), Keys: []exec.SortKey{{E: col(1)}, {E: col(0), Desc: true}}}
		}},
		{name: "sort-stable-ties", op: func() exec.Operator { return &exec.Sort{Input: nums(), Keys: byColor} }},
		{name: "hashjoin-inner", op: func() exec.Operator {
			return &exec.HashJoin{Left: nums(), Right: nums(), LeftKeys: []exec.Expr{col(0)}, RightKeys: []exec.Expr{col(0)}}
		}},
		{name: "hashjoin-fanout-residual", op: func() exec.Operator {
			return &exec.HashJoin{
				Left: &exec.Filter{Input: nums(), Pred: bin(sql.OpLT, col(0), lit(30))}, Right: nums(),
				LeftKeys: []exec.Expr{col(1)}, RightKeys: []exec.Expr{col(1)},
				Residual: bin(sql.OpLT, col(0), col(2)),
			}
		}},
		{name: "hashjoin-left-outer", op: func() exec.Operator {
			return &exec.HashJoin{
				Left: nums(), Right: nums(), LeftOuter: true,
				LeftKeys:  []exec.Expr{col(0)},
				RightKeys: []exec.Expr{bin(sql.OpAdd, col(0), lit(100))},
			}
		}},
		{name: "nestedloop-theta", op: func() exec.Operator {
			return &exec.NestedLoop{
				Left:  &exec.Filter{Input: nums(), Pred: bin(sql.OpLT, col(0), lit(20))},
				Right: nums(),
				Pred:  bin(sql.OpLT, col(0), col(2)),
			}
		}},
		{name: "nestedloop-left-outer", op: func() exec.Operator {
			return &exec.NestedLoop{
				Left: nums(), Right: &exec.Filter{Input: nums(), Pred: bin(sql.OpLT, col(0), lit(90))}, LeftOuter: true,
				Pred: bin(sql.OpEQ, col(0), bin(sql.OpAdd, col(2), lit(100))),
			}
		}},
		{name: "union-all", op: func() exec.Operator {
			return &exec.UnionAll{Inputs: []exec.Operator{nums(), valuesOp(), nums()}}
		}},
		{name: "chooseplan-local", params: exec.Params{"k": types.NewInt(3)}, op: choosePlan},
		{name: "chooseplan-remote", params: exec.Params{"k": types.NewInt(9)}, op: choosePlan},
		{name: "startup-pruned", params: exec.Params{"k": types.NewInt(7)}, op: func() exec.Operator {
			return &exec.StartupFilter{Guard: guard, Input: nums()}
		}},
		{name: "remote", op: func() exec.Operator { return &exec.Remote{SQLText: "SELECT a, b FROM nums", Cols: exec.NumsCols()} }},
		{name: "values", op: valuesOp},
		{name: "virtual-scan", op: func() exec.Operator {
			return &exec.VirtualScan{Name: "sys.test", Cols: exec.NumsCols(), Rows: func() []types.Row {
				rows := make([]types.Row, 150)
				for i := range rows {
					rows[i] = types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprint("v", i%7))}
				}
				return rows
			}}
		}},
		{name: "distinct", op: func() exec.Operator {
			return &exec.Distinct{Input: &exec.Project{Input: nums(), Exprs: []exec.Expr{col(1)}, Cols: aggCols(1)}}
		}},
		{name: "distinct-over-join", op: func() exec.Operator {
			return &exec.Distinct{Input: &exec.Project{
				Input: &exec.HashJoin{Left: nums(), Right: nums(), LeftKeys: []exec.Expr{col(1)}, RightKeys: []exec.Expr{col(1)}},
				Exprs: []exec.Expr{col(1), col(3)}, Cols: aggCols(2),
			}}
		}},
		{name: "hashagg-grouped", op: func() exec.Operator {
			return &exec.HashAgg{Input: nums(), GroupBy: []exec.Expr{col(1)}, Cols: aggCols(5), Aggs: []exec.AggSpec{
				{Func: exec.AggCountStar}, {Func: exec.AggSum, Arg: col(0)}, {Func: exec.AggMin, Arg: col(0)}, {Func: exec.AggMax, Arg: col(0)},
			}}
		}},
		{name: "hashagg-distinct", op: func() exec.Operator {
			return &exec.HashAgg{Input: nums(), Cols: aggCols(2), Aggs: []exec.AggSpec{
				{Func: exec.AggCount, Arg: col(1), Distinct: true}, {Func: exec.AggSum, Arg: bin(sql.OpMod, col(0), lit(3)), Distinct: true},
			}}
		}},
		{name: "hashagg-global-empty", store: "empty", op: func() exec.Operator {
			return &exec.HashAgg{Input: nums(), Cols: aggCols(2), Aggs: []exec.AggSpec{{Func: exec.AggCountStar}, {Func: exec.AggSum, Arg: col(0)}}}
		}},
		{name: "hashagg-grouped-empty", store: "empty", op: func() exec.Operator {
			return &exec.HashAgg{Input: nums(), GroupBy: []exec.Expr{col(1)}, Cols: aggCols(2), Aggs: []exec.AggSpec{{Func: exec.AggCountStar}}}
		}},
		{name: "int-key-agg", store: "vals", op: func() exec.Operator {
			return &exec.HashAgg{Input: vals(), GroupBy: []exec.Expr{col(1)}, Aggs: allAggs(), Cols: aggCols(9)}
		}},
		{name: "expr-key-agg-null-keys", store: "vals", op: func() exec.Operator {
			return &exec.HashAgg{
				Input:   &exec.Filter{Input: vals(), Pred: bin(sql.OpGE, col(0), lit(1))},
				GroupBy: []exec.Expr{bin(sql.OpMod, col(2), lit(4))}, Aggs: allAggs(), Cols: aggCols(9),
			}
		}},
		{name: "int-key-agg-null-migration", store: "vals", op: func() exec.Operator {
			// Grouping by x: ids 1-4 build int-keyed groups, id 5 brings the
			// first NULL key and migrates them to the generic table.
			return &exec.HashAgg{
				Input:   &exec.Filter{Input: vals(), Pred: bin(sql.OpGE, col(0), lit(1))},
				GroupBy: []exec.Expr{col(2)}, Aggs: allAggs()[:4], Cols: aggCols(5),
			}
		}},
		{name: "int-key-agg-string-migration", store: "vals", op: func() exec.Operator {
			// INT keys, then a VARCHAR key mid-stream, then INT keys that
			// must find the groups built before the migration.
			keyed := func(key exec.Expr) exec.Operator {
				return &exec.Project{Input: vals(), Exprs: []exec.Expr{key, col(2)}, Cols: aggCols(2)}
			}
			in := &exec.UnionAll{Inputs: []exec.Operator{
				keyed(col(1)),
				&exec.Values{Cols: aggCols(2), Rows: [][]exec.Expr{{&exec.ConstExpr{V: types.NewString("s")}, lit(7)}}},
				keyed(bin(sql.OpAdd, col(1), lit(1))),
			}}
			return &exec.HashAgg{Input: in, GroupBy: []exec.Expr{col(0)}, Cols: aggCols(3), Aggs: []exec.AggSpec{
				{Func: exec.AggCountStar}, {Func: exec.AggSum, Arg: col(1)},
			}}
		}},
		{name: "float-key-agg", store: "vals", op: func() exec.Operator {
			return &exec.HashAgg{Input: vals(), GroupBy: []exec.Expr{bin(sql.OpMod, col(0), lit(7)), col(3)}, Aggs: allAggs()[:3], Cols: aggCols(5)}
		}},
		{name: "partial-final-grouped", store: "vals", unordered: true, op: func() exec.Operator {
			return partialFinal([]exec.Expr{col(1)}, allAggs()[:7])
		}},
		{name: "partial-final-global", store: "vals", op: func() exec.Operator { return partialFinal(nil, allAggs()[:7]) }},
		{name: "partial-final-global-empty", store: "empty-vals", op: func() exec.Operator { return partialFinal(nil, allAggs()[:7]) }},
		{name: "exchange-scan", unordered: true, op: func() exec.Operator {
			return &exec.Exchange{Template: &exec.Scan{TableName: "nums", Cols: exec.NumsCols(), Parallel: true}, DOP: 4}
		}},
		{name: "exchange-shared-build", unordered: true, op: func() exec.Operator {
			return &exec.Exchange{DOP: 3, Template: &exec.HashJoin{
				Left:     &exec.Scan{TableName: "nums", Cols: exec.NumsCols(), Parallel: true},
				Right:    &exec.Filter{Input: nums(), Pred: bin(sql.OpLT, col(0), lit(50))},
				LeftKeys: []exec.Expr{col(1)}, RightKeys: []exec.Expr{col(1)}, ShareBuild: true,
			}}
		}},
		{name: "instrumented-topn-over-join", op: func() exec.Operator {
			return exec.Instrument(&exec.TopN{
				Input: &exec.HashJoin{Left: nums(), Right: nums(), LeftKeys: []exec.Expr{col(0)}, RightKeys: []exec.Expr{col(0)}},
				Keys:  []exec.SortKey{{E: col(1), Desc: true}, {E: col(2)}}, N: lit(20),
			})
		}},
	}
	for _, n := range []int64{0, 1, 7, 64, 65, 500} {
		n := n
		cases = append(cases, refCase{name: fmt.Sprintf("topn-ties-%d", n), op: func() exec.Operator {
			return &exec.TopN{Input: nums(), Keys: byColor, N: lit(n)}
		}})
	}
	cases = append(cases, refCase{name: "topn-desc-param", params: exec.Params{"n": types.NewInt(9)}, op: func() exec.Operator {
		return &exec.TopN{Input: nums(), Keys: []exec.SortKey{{E: col(1), Desc: true}, {E: col(0), Desc: true}}, N: &exec.ParamExpr{Name: "n"}}
	}})
	return cases
}

// sameValues is strict equality: the kinds must match too (an INT SUM must
// not come back as FLOAT).
func sameValues(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].K != b[i].K || types.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

func requireRows(t *testing.T, got, want []types.Row, unordered bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, reference %d", len(got), len(want))
	}
	if unordered {
		sorted := func(rows []types.Row) []types.Row {
			out := append([]types.Row(nil), rows...)
			sort.Slice(out, func(i, j int) bool { return types.CompareRows(out[i], out[j]) < 0 })
			return out
		}
		got, want = sorted(got), sorted(want)
	}
	for i := range want {
		if !sameValues(got[i], want[i]) {
			t.Fatalf("row %d = %v, reference %v", i, got[i], want[i])
		}
	}
}

// operatorTypes collects the dynamic type of every node in the tree.
func operatorTypes(op exec.Operator, seen map[string]bool) {
	seen[fmt.Sprintf("%T", op)] = true
	var kids []exec.Operator
	switch x := op.(type) {
	case *exec.Filter:
		kids = []exec.Operator{x.Input}
	case *exec.StartupFilter:
		kids = []exec.Operator{x.Input}
	case *exec.Project:
		kids = []exec.Operator{x.Input}
	case *exec.Limit:
		kids = []exec.Operator{x.Input}
	case *exec.Sort:
		kids = []exec.Operator{x.Input}
	case *exec.TopN:
		kids = []exec.Operator{x.Input}
	case *exec.Distinct:
		kids = []exec.Operator{x.Input}
	case *exec.HashAgg:
		kids = []exec.Operator{x.Input}
	case *exec.PartialAgg:
		kids = []exec.Operator{x.Input}
	case *exec.FinalAgg:
		kids = []exec.Operator{x.Input}
	case *exec.Exchange:
		kids = []exec.Operator{x.Template}
	case *exec.Instrumented:
		kids = []exec.Operator{x.Op}
	case *exec.HashJoin:
		kids = []exec.Operator{x.Left, x.Right}
	case *exec.NestedLoop:
		kids = []exec.Operator{x.Left, x.Right}
	case *exec.UnionAll:
		kids = x.Inputs
	}
	for _, k := range kids {
		operatorTypes(k, seen)
	}
}

// TestBatchMatchesReference runs every hand-built operator shape through the
// batch executor and the test-only reference evaluator and requires the same
// rows (same order, except across Exchange workers).
func TestBatchMatchesReference(t *testing.T) {
	stores := map[string]*storage.Store{
		"nums":       exec.NewTestStore(t, 300),
		"empty":      exec.NewTestStore(t, 0),
		"vals":       exec.NewValsStore(t, 333),
		"empty-vals": exec.NewValsStore(t, 0),
	}
	remote := stubRemote{rows: []types.Row{
		{types.NewInt(1), types.NewString("x")},
		{types.NewInt(2), types.Null},
	}}
	seen := map[string]bool{}
	for _, c := range refCases() {
		t.Run(c.name, func(t *testing.T) {
			store := c.store
			if store == "" {
				store = "nums"
			}
			s := stores[store]
			tx := s.Begin(false)
			defer tx.Abort()
			want, err := exectest.Reference(c.op(), &exec.Ctx{Txn: tx, Params: c.params, Remote: remote})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			op := c.op()
			operatorTypes(op, seen)
			got, err := exec.Run(op, &exec.Ctx{Txn: tx, Params: c.params, Remote: remote, Counters: &exec.Counters{}})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			requireRows(t, got.Rows, want.Rows, c.unordered)
		})
	}
	// Every operator type CloneOperator knows must have been checked.
	for _, typ := range []string{
		"Scan", "IndexScan", "Filter", "StartupFilter", "Project", "Limit", "Sort", "Distinct",
		"HashJoin", "NestedLoop", "UnionAll", "HashAgg", "PartialAgg", "FinalAgg", "TopN",
		"Exchange", "Remote", "Values", "VirtualScan", "Instrumented",
	} {
		if !seen["*exec."+typ] {
			t.Errorf("no differential case covers %s", typ)
		}
	}
}

// TestIndexScanUpperBoundOnly: a seek with only an upper bound (col <= x)
// stops at the bound instead of reading the whole index.
func TestIndexScanUpperBoundOnly(t *testing.T) {
	s := exec.NewTestStore(t, 1000)
	mk := func() exec.Operator {
		return &exec.Filter{
			Input: &exec.IndexScan{TableName: "nums", IndexName: "__pk", Cols: exec.NumsCols(), Hi: []exec.Expr{lit(10)}},
			Pred:  bin(sql.OpLE, col(0), lit(10)),
		}
	}
	tx := s.Begin(false)
	defer tx.Abort()
	ctr := &exec.Counters{}
	got, err := exec.Run(mk(), &exec.Ctx{Txn: tx, Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 11 {
		t.Fatalf("rows %d, want 11", len(got.Rows))
	}
	if ctr.RowsScanned != 11 {
		t.Errorf("RowsScanned = %d, want 11", ctr.RowsScanned)
	}
	want, err := exectest.Reference(mk(), &exec.Ctx{Txn: tx})
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, got.Rows, want.Rows, false)
}
