package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mtcache/internal/metrics"
	"mtcache/internal/types"
)

// newParallelDB builds a backend with big(id INT PK, grp INT, val FLOAT)
// holding n rows, stats analyzed, and GOMAXPROCS raised to 4 for the test
// (the optimizer caps DOP at GOMAXPROCS, and CI containers may have 1 CPU).
func newParallelDB(t *testing.T, n int) *Database {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	db := New(Config{Name: "backend", Role: Backend})
	err := db.ExecScript(`
		CREATE TABLE big (
			id INT PRIMARY KEY,
			grp INT,
			val FLOAT
		);
	`)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 16)), types.NewFloat(float64(i % 1000))}
	}
	if err := db.BulkLoad("big", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestEngineChoosesParallelScan(t *testing.T) {
	db := newParallelDB(t, 5000)
	const q = "SELECT id, val FROM big WHERE val >= 100.0"

	text := planText(t, db, "EXPLAIN "+q, nil)
	if !strings.Contains(text, "Gather (Exchange dop=") {
		t.Fatalf("plan not parallel:\n%s", text)
	}

	par, err := db.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	opts := db.Options()
	opts.MaxDOP = 1
	db.SetOptions(opts)
	serText := planText(t, db, "EXPLAIN "+q, nil)
	if strings.Contains(serText, "Exchange") {
		t.Fatalf("MaxDOP=1 plan still parallel:\n%s", serText)
	}
	ser, err := db.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	if len(par.Rows) != len(ser.Rows) {
		t.Fatalf("parallel rows %d, serial rows %d", len(par.Rows), len(ser.Rows))
	}
	seen := make(map[int64]float64, len(ser.Rows))
	for _, r := range ser.Rows {
		seen[r[0].Int()] = r[1].Float()
	}
	for _, r := range par.Rows {
		v, ok := seen[r[0].Int()]
		if !ok || v != r[1].Float() {
			t.Fatalf("parallel row %v not in serial result", r)
		}
	}
}

func TestEngineExplainAnalyzeShowsWorkerRows(t *testing.T) {
	db := newParallelDB(t, 5000)
	text := planText(t, db, "EXPLAIN ANALYZE SELECT id, val FROM big WHERE val >= 100.0", nil)
	if !strings.Contains(text, "Gather (Exchange dop=") {
		t.Fatalf("plan not parallel:\n%s", text)
	}
	if !strings.Contains(text, "worker_rows=[") {
		t.Fatalf("no per-worker row counts:\n%s", text)
	}
}

func TestEngineParallelAggregation(t *testing.T) {
	db := newParallelDB(t, 5000)
	const q = "SELECT grp, COUNT(*), SUM(val), AVG(val) FROM big GROUP BY grp"

	text := planText(t, db, "EXPLAIN "+q, nil)
	for _, want := range []string{"FinalAggregate", "Gather (Exchange dop=", "PartialAggregate"} {
		if !strings.Contains(text, want) {
			t.Fatalf("plan missing %q:\n%s", want, text)
		}
	}
	par, err := db.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}

	opts := db.Options()
	opts.MaxDOP = 1
	db.SetOptions(opts)
	ser, err := db.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Rows) != 16 || len(ser.Rows) != 16 {
		t.Fatalf("groups: parallel %d serial %d, want 16", len(par.Rows), len(ser.Rows))
	}
	byGrp := make(map[int64]types.Row)
	for _, r := range ser.Rows {
		byGrp[r[0].Int()] = r
	}
	for _, r := range par.Rows {
		s := byGrp[r[0].Int()]
		if s == nil || r[1].Int() != s[1].Int() || r[2].Float() != s[2].Float() || r[3].Float() != s[3].Float() {
			t.Fatalf("group %v: parallel %v, serial %v", r[0], r, s)
		}
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	// Auto-parameterization would fold the literal-distinct statements below
	// into one shape (one plan); disable it so each text gets its own plan
	// and the LRU actually evicts. The intermediate-result cache is disabled
	// too: admitting an intermediate invalidates plans (like DDL), which
	// would empty the cache mid-test.
	db := New(Config{Name: "backend", Role: Backend, PlanCacheCap: 4, DisableIMCache: true})
	db.autoOff = true
	if err := db.ExecScript("CREATE TABLE tiny (id INT PRIMARY KEY, v INT);"); err != nil {
		t.Fatal(err)
	}
	before := metrics.Default.Counter("engine.plan_cache_evictions").Value()
	for i := 0; i < 10; i++ {
		q := fmt.Sprintf("SELECT v FROM tiny WHERE id = %d", i)
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.PlanCacheSize(); n > 4 {
		t.Fatalf("plan cache size %d exceeds cap 4", n)
	}
	evicted := metrics.Default.Counter("engine.plan_cache_evictions").Value() - before
	if evicted < 6 {
		t.Fatalf("evictions %d, want >= 6", evicted)
	}
	// Re-running the most recent statement must hit the cache (no growth).
	sz := db.PlanCacheSize()
	if _, err := db.Exec("SELECT v FROM tiny WHERE id = 9", nil); err != nil {
		t.Fatal(err)
	}
	if db.PlanCacheSize() != sz {
		t.Fatalf("cache grew on a repeat statement: %d -> %d", sz, db.PlanCacheSize())
	}
}

func TestPlanCacheDefaultCapBounded(t *testing.T) {
	db := New(Config{Name: "backend", Role: Backend})
	db.autoOff = true
	if err := db.ExecScript("CREATE TABLE tiny (id INT PRIMARY KEY, v INT);"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < defaultPlanCacheCap+50; i++ {
		q := fmt.Sprintf("SELECT v FROM tiny WHERE id = %d", i)
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.PlanCacheSize(); n > defaultPlanCacheCap {
		t.Fatalf("plan cache size %d exceeds default cap %d", n, defaultPlanCacheCap)
	}
}
