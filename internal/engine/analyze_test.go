package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mtcache/internal/exec"
	"mtcache/internal/opt"
	"mtcache/internal/querystore"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

func mustPlan(t *testing.T, db *Database, query string) *opt.Plan {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// shellChildren returns the child shells exec.Instrument put under node.
func shellChildren(node *exec.Instrumented) []*exec.Instrumented {
	var kids []exec.Operator
	switch x := node.Op.(type) {
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
	case *exec.Distinct:
		kids = []exec.Operator{x.Input}
	case *exec.HashAgg:
		kids = []exec.Operator{x.Input}
	case *exec.TopN:
		kids = []exec.Operator{x.Input}
	case *exec.FinalAgg:
		kids = []exec.Operator{x.Input}
	case *exec.HashJoin:
		kids = []exec.Operator{x.Left, x.Right}
	case *exec.NestedLoop:
		kids = []exec.Operator{x.Left, x.Right}
	case *exec.UnionAll:
		kids = x.Inputs
	}
	out := make([]*exec.Instrumented, len(kids))
	for i, k := range kids {
		out[i] = k.(*exec.Instrumented)
	}
	return out
}

// analyzeOnBatchPath runs plan under exec.Instrument, as EXPLAIN ANALYZE
// and slow-query capture do, and checks every shell against the reference
// evaluator: an opened operator's Rows equals the rows its subtree yields;
// an unopened one (under a pruned ChoosePlan branch) emitted nothing. It
// returns how many shells of each operator type ran and were pruned.
func analyzeOnBatchPath(t *testing.T, db *Database, plan *opt.Plan, params exec.Params) (ran, pruned map[string]int) {
	t.Helper()
	root := exec.Instrument(exec.CloneOperator(plan.Root))
	tx := db.store.Begin(false)
	ctx := &exec.Ctx{Txn: tx, Remote: db.remote, Counters: &exec.Counters{}}
	bindParams(plan, params, nil, ctx)
	rs, err := exec.Run(root, ctx)
	tx.Abort()
	if err != nil {
		t.Fatal(err)
	}
	if root.Stats.Rows != int64(len(rs.Rows)) {
		t.Errorf("root shell counted %d rows, result has %d", root.Stats.Rows, len(rs.Rows))
	}
	ran, pruned = map[string]int{}, map[string]int{}
	var walk func(node *exec.Instrumented)
	walk = func(node *exec.Instrumented) {
		typ := fmt.Sprintf("%T", node.Op)
		if !node.Stats.Opened {
			pruned[typ]++
			if node.Stats.Rows != 0 {
				t.Errorf("unopened %s counted %d rows", typ, node.Stats.Rows)
			}
		} else {
			ran[typ]++
			want := referenceRun(t, db, plan, node.Op, params, nil)
			if node.Stats.Rows != int64(len(want.Rows)) {
				t.Errorf("%s counted %d rows, reference %d", typ, node.Stats.Rows, len(want.Rows))
			}
		}
		if sf, ok := node.Op.(*exec.StartupFilter); ok && node.Stats.Opened && !sf.Active() {
			for _, kid := range shellChildren(node) {
				if kid.Stats.Opened {
					t.Errorf("input of pruned branch %q was opened", sf.Branch)
				}
			}
		}
		for _, kid := range shellChildren(node) {
			walk(kid)
		}
	}
	walk(root)
	return ran, pruned
}

// captureSlow arms slow-query capture for a fresh shape, runs plan through
// runPlanCaptured, and checks the client rows against the reference
// evaluator and that an EXPLAIN ANALYZE tree was retained.
func captureSlow(t *testing.T, db *Database, plan *opt.Plan, params exec.Params, wantInTree string) {
	t.Helper()
	resetQueryStore(t)
	querystore.Default.SetSlowThreshold(time.Nanosecond)
	shape := "capture:" + t.Name()
	querystore.Default.Record(querystore.Exec{Shape: shape, Duration: time.Second})
	res, err := db.runPlanCaptured(plan, params, nil, nil, shape, "v")
	if err != nil {
		t.Fatal(err)
	}
	want := referenceRun(t, db, plan, plan.Root, params, nil)
	if len(res.Rows) != len(want.Rows) {
		t.Fatalf("captured run: %d rows, reference %d", len(res.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if types.CompareRows(res.Rows[i], want.Rows[i]) != 0 {
			t.Fatalf("captured run row %d = %v, reference %v", i, res.Rows[i], want.Rows[i])
		}
	}
	var analyzed string
	for _, s := range querystore.Default.Snapshot() {
		if s.Shape == shape {
			for _, v := range s.Variants {
				analyzed += v.Analyzed
			}
		}
	}
	if !strings.Contains(analyzed, wantInTree) {
		t.Fatalf("captured EXPLAIN ANALYZE lacks %q:\n%s", wantInTree, analyzed)
	}
}

// EXPLAIN ANALYZE and slow-query capture run the batch path: every shell of
// a TOP-N over a hash join counts the rows its operator emits.
func TestAnalyzeTopNOverHashJoinOnBatchPath(t *testing.T) {
	db := newBackendDB(t)
	for i := 1; i <= 300; i++ {
		q := fmt.Sprintf("INSERT INTO orders (o_id, o_i_id, o_qty) VALUES (%d, %d, %d)", i, i%250+1, i%7)
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, db, "SELECT TOP 5 i_title, o_qty FROM item, orders WHERE i_id = o_i_id AND o_qty > 0 ORDER BY o_qty DESC, i_title")
	captureSlow(t, db, plan, nil, "HashJoin")

	// The planner runs this TOP n as a Limit over a full Sort, which stops
	// pulling early; fuse the pair into the TopN shape, which drains the
	// join, so every shell's count is exact.
	lim, _ := plan.Root.(*exec.Limit)
	var proj *exec.Project
	var srt *exec.Sort
	if lim != nil {
		proj, _ = lim.Input.(*exec.Project)
	}
	if proj != nil {
		srt, _ = proj.Input.(*exec.Sort)
	}
	if srt == nil {
		t.Fatalf("want Limit over Project over Sort:\n%s", opt.Explain(plan))
	}
	fused := *plan
	fused.Root = &exec.Project{Input: &exec.TopN{Input: srt.Input, Keys: srt.Keys, N: lim.N}, Exprs: proj.Exprs, Cols: proj.Cols}
	ran, pruned := analyzeOnBatchPath(t, db, &fused, nil)
	if ran["*exec.TopN"] != 1 || ran["*exec.HashJoin"] != 1 || len(pruned) != 0 {
		t.Fatalf("want one TopN over one HashJoin, ran %v pruned %v", ran, pruned)
	}
	captureSlow(t, db, &fused, nil, "TopNSort")
}

// A ChoosePlan with the local branch pruned: the pruned StartupFilter's
// input is never opened and counts no rows; the remote branch's counts
// match the reference.
func TestAnalyzeChoosePlanPrunedBranchOnBatchPath(t *testing.T) {
	_, cache := newCachePair(t)
	if _, err := cache.Exec("CREATE CACHED VIEW items100 AS SELECT i_id, i_title FROM item WHERE i_id <= 100", nil); err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, cache, "SELECT i_title FROM item WHERE i_id = @id")
	params := exec.Params{"id": types.NewInt(150)}
	ran, pruned := analyzeOnBatchPath(t, cache, plan, params)
	if ran["*exec.StartupFilter"] != 2 || ran["*exec.Remote"] != 1 || len(pruned) == 0 {
		t.Fatalf("want both ChoosePlan guards evaluated, the remote branch run and the local one pruned; ran %v pruned %v:\n%s",
			ran, pruned, opt.Explain(plan))
	}
	captureSlow(t, cache, plan, params, "[pruned]")
}
