// Package exectest is a reference evaluator for exec operator trees, for use
// by tests only.
//
// Reference interprets a plan with plain materialize-everything loops. It
// reads only the operators' exported plan fields, evaluates expressions with
// Expr.Eval and exec.EvalBool, compares values with the types package, and
// never opens an operator. It therefore shares none of the machinery that
// exec.Run exercises: no compiled predicates or scan pushdown, no arenas or
// recycled slabs, no ephemeral batches, no int-keyed aggregation, no batch
// slicing. It computes every aggregate itself. Differential tests run one
// plan through both and compare the results.
//
// Parallel plans are checked as their serial equivalent: an Exchange
// evaluates its template once over the whole input, and a FinalAgg
// aggregates the input of the PartialAgg beneath it directly.
package exectest

import (
	"fmt"
	"sort"

	"mtcache/internal/exec"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// Reference evaluates op under ctx and returns its full result. Like
// exec.Run, it seeds ctx.Env.Named from ctx.Params when unset. Counters are
// not maintained.
func Reference(op exec.Operator, ctx *exec.Ctx) (*exec.ResultSet, error) {
	if ctx.Env.Named == nil {
		ctx.Env.Named = ctx.Params
	}
	rows, err := eval(op, ctx)
	if err != nil {
		return nil, err
	}
	return &exec.ResultSet{Cols: op.Columns(), Rows: rows}, nil
}

func eval(op exec.Operator, ctx *exec.Ctx) ([]types.Row, error) {
	env := &ctx.Env
	switch x := op.(type) {
	case *exec.Scan:
		tv, err := table(ctx, x.TableName)
		if err != nil {
			return nil, err
		}
		return tv.Rows(), nil
	case *exec.IndexScan:
		return indexScan(x, ctx)
	case *exec.Filter:
		in, err := eval(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		var out []types.Row
		for _, row := range in {
			ok, err := exec.EvalBool(x.Pred, row, env)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, row)
			}
		}
		return out, nil
	case *exec.StartupFilter:
		ok, err := exec.EvalBool(x.Guard, nil, env)
		if err != nil || !ok {
			return nil, err
		}
		return eval(x.Input, ctx)
	case *exec.Project:
		in, err := eval(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		out := make([]types.Row, len(in))
		for i, row := range in {
			if out[i], err = evalRow(x.Exprs, row, env); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *exec.Limit:
		n, err := x.N.Eval(nil, env)
		if err != nil {
			return nil, err
		}
		in, err := eval(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		return firstN(in, n.Int()), nil
	case *exec.Sort:
		in, err := eval(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		return sortRows(in, x.Keys, env)
	case *exec.TopN:
		in, err := eval(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		n, err := x.N.Eval(nil, env)
		if err != nil {
			return nil, err
		}
		sorted, err := sortRows(in, x.Keys, env)
		if err != nil {
			return nil, err
		}
		return firstN(sorted, n.Int()), nil
	case *exec.Distinct:
		in, err := eval(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		var out []types.Row
		seen := make(map[uint64][]types.Row)
		for _, row := range in {
			h := row.Hash()
			if !containsRow(seen[h], row) {
				seen[h] = append(seen[h], row)
				out = append(out, row)
			}
		}
		return out, nil
	case *exec.HashJoin:
		return hashJoin(x, ctx)
	case *exec.NestedLoop:
		left, right, err := evalSides(x.Left, x.Right, ctx)
		if err != nil {
			return nil, err
		}
		return join(left, right, len(x.Right.Columns()), x.LeftOuter, func(_, _ int, combined types.Row) (bool, error) {
			return exec.EvalBool(x.Pred, combined, env)
		})
	case *exec.UnionAll:
		var out []types.Row
		for _, in := range x.Inputs {
			rows, err := eval(in, ctx)
			if err != nil {
				return nil, err
			}
			out = append(out, rows...)
		}
		return out, nil
	case *exec.HashAgg:
		in, err := eval(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		return aggregate(in, x.GroupBy, x.Aggs, env, false)
	case *exec.PartialAgg:
		in, err := eval(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		return aggregate(in, x.GroupBy, x.Aggs, env, true)
	case *exec.FinalAgg:
		partial := partialBelow(x.Input)
		if partial == nil {
			return nil, fmt.Errorf("exectest: FinalAgg without a PartialAgg below")
		}
		if len(partial.GroupBy) != x.GroupKeys {
			return nil, fmt.Errorf("exectest: FinalAgg merges %d keys, PartialAgg groups by %d", x.GroupKeys, len(partial.GroupBy))
		}
		in, err := eval(partial.Input, ctx)
		if err != nil {
			return nil, err
		}
		return aggregate(in, partial.GroupBy, x.Aggs, env, false)
	case *exec.Exchange:
		return eval(x.Template, ctx)
	case *exec.Remote:
		if ctx.Remote == nil {
			return nil, fmt.Errorf("exectest: no remote server configured for query %q", x.SQLText)
		}
		rs, err := ctx.Remote.Query(x.SQLText, ctx.Params)
		if err != nil {
			return nil, err
		}
		return rs.Rows, nil
	case *exec.Values:
		out := make([]types.Row, len(x.Rows))
		for i, exprs := range x.Rows {
			var err error
			if out[i], err = evalRow(exprs, nil, env); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *exec.VirtualScan:
		return x.Rows(), nil
	case *exec.Instrumented:
		return eval(x.Op, ctx)
	}
	return nil, fmt.Errorf("exectest: no reference semantics for %T", op)
}

func table(ctx *exec.Ctx, name string) (*storage.TableView, error) {
	tv := ctx.Txn.Table(name)
	if tv == nil {
		if err := ctx.Txn.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("exectest: table %s does not exist", name)
	}
	return tv, nil
}

// indexScan walks the whole index in key order and keeps the entries whose
// key prefixes fall inside the inclusive bounds; a missing bound is open.
func indexScan(x *exec.IndexScan, ctx *exec.Ctx) ([]types.Row, error) {
	tv, err := table(ctx, x.TableName)
	if err != nil {
		return nil, err
	}
	idx := tv.Index(x.IndexName)
	if idx == nil {
		return nil, fmt.Errorf("exectest: index %s on %s does not exist", x.IndexName, x.TableName)
	}
	lo, err := evalRow(x.Lo, nil, &ctx.Env)
	if err != nil {
		return nil, err
	}
	hi, err := evalRow(x.Hi, nil, &ctx.Env)
	if err != nil {
		return nil, err
	}
	var out []types.Row
	idx.Ascend(func(it storage.Item) bool {
		if comparePrefix(it.Key, lo) >= 0 && comparePrefix(it.Key, hi) <= 0 {
			if row := tv.Get(it.RID); row != nil {
				out = append(out, row)
			}
		}
		return true
	})
	return out, nil
}

// comparePrefix compares the first len(bound) columns of key with bound.
func comparePrefix(key, bound types.Row) int {
	if len(key) > len(bound) {
		key = key[:len(bound)]
	}
	return types.CompareRows(key, bound)
}

func evalRow(exprs []exec.Expr, row types.Row, env *exec.Env) (types.Row, error) {
	out := make(types.Row, len(exprs))
	for i, e := range exprs {
		v, err := e.Eval(row, env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func firstN(rows []types.Row, n int64) []types.Row {
	if n <= 0 {
		return nil
	}
	if int64(len(rows)) > n {
		return rows[:n]
	}
	return rows
}

// sortRows is a stable sort on the evaluated keys: ties keep input order.
func sortRows(rows []types.Row, keys []exec.SortKey, env *exec.Env) ([]types.Row, error) {
	exprs := make([]exec.Expr, len(keys))
	for i, k := range keys {
		exprs[i] = k.E
	}
	vals := make([]types.Row, len(rows))
	for i, row := range rows {
		var err error
		if vals[i], err = evalRow(exprs, row, env); err != nil {
			return nil, err
		}
	}
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		for k, key := range keys {
			c := types.Compare(vals[order[a]][k], vals[order[b]][k])
			if key.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	out := make([]types.Row, len(rows))
	for i, j := range order {
		out[i] = rows[j]
	}
	return out, nil
}

func containsRow(rows []types.Row, row types.Row) bool {
	for _, r := range rows {
		if types.RowsEqual(r, row) {
			return true
		}
	}
	return false
}

func containsValue(vals []types.Value, v types.Value) bool {
	for _, prev := range vals {
		if types.Equal(prev, v) {
			return true
		}
	}
	return false
}

func evalSides(left, right exec.Operator, ctx *exec.Ctx) ([]types.Row, []types.Row, error) {
	l, err := eval(left, ctx)
	if err != nil {
		return nil, nil, err
	}
	r, err := eval(right, ctx)
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

// hashJoin is the equi-join as a nested loop: a pair joins when every key
// pair is non-NULL and compares equal, and the residual holds.
func hashJoin(x *exec.HashJoin, ctx *exec.Ctx) ([]types.Row, error) {
	left, right, err := evalSides(x.Left, x.Right, ctx)
	if err != nil {
		return nil, err
	}
	env := &ctx.Env
	keysOf := func(rows []types.Row, exprs []exec.Expr) ([]types.Row, error) {
		out := make([]types.Row, len(rows))
		for i, row := range rows {
			if out[i], err = evalRow(exprs, row, env); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	lkeys, err := keysOf(left, x.LeftKeys)
	if err != nil {
		return nil, err
	}
	rkeys, err := keysOf(right, x.RightKeys)
	if err != nil {
		return nil, err
	}
	return join(left, right, len(x.Right.Columns()), x.LeftOuter, func(l, r int, combined types.Row) (bool, error) {
		for k := range lkeys[l] {
			lv, rv := lkeys[l][k], rkeys[r][k]
			if lv.IsNull() || rv.IsNull() || types.Compare(lv, rv) != 0 {
				return false, nil
			}
		}
		return exec.EvalBool(x.Residual, combined, env)
	})
}

// join pairs every left row with every right row in input order, keeping
// the pairs match accepts; with leftOuter, a left row that matched nothing
// is emitted once padded with rightWidth NULLs.
func join(left, right []types.Row, rightWidth int, leftOuter bool, match func(l, r int, combined types.Row) (bool, error)) ([]types.Row, error) {
	var out []types.Row
	for i, l := range left {
		matched := false
		for j, r := range right {
			combined := append(append(types.Row{}, l...), r...)
			ok, err := match(i, j, combined)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				out = append(out, combined)
			}
		}
		if !matched && leftOuter {
			out = append(out, append(append(types.Row{}, l...), make(types.Row, rightWidth)...))
		}
	}
	return out, nil
}

// partialBelow finds the PartialAgg feeding a FinalAgg, looking through the
// Exchange and any EXPLAIN ANALYZE shells in between.
func partialBelow(op exec.Operator) *exec.PartialAgg {
	switch x := op.(type) {
	case *exec.PartialAgg:
		return x
	case *exec.Exchange:
		return partialBelow(x.Template)
	case *exec.Instrumented:
		return partialBelow(x.Op)
	}
	return nil
}

type group struct {
	keys types.Row
	rows []types.Row
}

// aggregate groups rows by groupBy (groups in first-seen order; with no
// groupBy there is exactly one group, even over empty input) and renders
// [keys..., aggregates...] per group. With partial set, each aggregate is
// rendered in the PartialAgg form FinalAgg merges: AVG as (sum, count).
func aggregate(rows []types.Row, groupBy []exec.Expr, aggs []exec.AggSpec, env *exec.Env, partial bool) ([]types.Row, error) {
	var groups []*group
	byHash := make(map[uint64][]*group)
	if len(groupBy) == 0 {
		groups = append(groups, &group{keys: types.Row{}})
	}
	for _, row := range rows {
		if len(groupBy) == 0 {
			groups[0].rows = append(groups[0].rows, row)
			continue
		}
		keys, err := evalRow(groupBy, row, env)
		if err != nil {
			return nil, err
		}
		h := keys.Hash()
		var g *group
		for _, cand := range byHash[h] {
			if types.RowsEqual(cand.keys, keys) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{keys: keys}
			byHash[h] = append(byHash[h], g)
			groups = append(groups, g)
		}
		g.rows = append(g.rows, row)
	}
	out := make([]types.Row, 0, len(groups))
	for _, g := range groups {
		res := append(types.Row{}, g.keys...)
		for _, spec := range aggs {
			cells, err := aggValue(spec, g.rows, env, partial)
			if err != nil {
				return nil, err
			}
			res = append(res, cells...)
		}
		out = append(out, res)
	}
	return out, nil
}

// aggValue computes one aggregate over a group's rows: NULL arguments are
// ignored, DISTINCT keeps the first of each equal value, and SUM stays INT
// only while every input is INT.
func aggValue(spec exec.AggSpec, rows []types.Row, env *exec.Env, partial bool) ([]types.Value, error) {
	if spec.Func == exec.AggCountStar {
		return []types.Value{types.NewInt(int64(len(rows)))}, nil
	}
	var vals []types.Value
	for _, row := range rows {
		v, err := spec.Arg.Eval(row, env)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue
		}
		if !spec.Distinct || !containsValue(vals, v) {
			vals = append(vals, v)
		}
	}
	n := int64(len(vals))
	var sum float64
	var sumInt int64
	allInt := true
	for _, v := range vals {
		sum += v.Float()
		sumInt += v.I
		allInt = allInt && v.K == types.KindInt
	}
	if n == 0 && spec.Func != exec.AggCount {
		if partial && spec.Func == exec.AggAvg {
			return []types.Value{types.Null, types.NewInt(0)}, nil
		}
		return []types.Value{types.Null}, nil
	}
	switch spec.Func {
	case exec.AggCount:
		return []types.Value{types.NewInt(n)}, nil
	case exec.AggSum:
		if allInt {
			return []types.Value{types.NewInt(sumInt)}, nil
		}
		return []types.Value{types.NewFloat(sum)}, nil
	case exec.AggAvg:
		if partial {
			return []types.Value{types.NewFloat(sum), types.NewInt(n)}, nil
		}
		return []types.Value{types.NewFloat(sum / float64(n))}, nil
	case exec.AggMin, exec.AggMax:
		best := vals[0]
		for _, v := range vals[1:] {
			c := types.Compare(v, best)
			if (spec.Func == exec.AggMin && c < 0) || (spec.Func == exec.AggMax && c > 0) {
				best = v
			}
		}
		return []types.Value{best}, nil
	}
	return nil, fmt.Errorf("exectest: unknown aggregate %d", spec.Func)
}
