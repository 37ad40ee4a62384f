package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"mtcache/internal/imcache"
	"mtcache/internal/metrics"
	"mtcache/internal/sql"
	"mtcache/internal/types"
)

// imTestDB builds a backend with one fact table for intermediate-result
// cache tests. opts == nil uses the default cache configuration.
func imTestDB(t *testing.T, opts *imcache.Options) *Database {
	t.Helper()
	db := New(Config{Name: "im-test", Role: Backend, IMCache: opts})
	err := db.ExecScript(`CREATE TABLE t (id INT PRIMARY KEY, grp INT, v INT, w FLOAT);`)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 0, 1000)
	for i := 0; i < 1000; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 64)),
			types.NewInt(int64(i % 100)),
			types.NewFloat(float64(i) / 7),
		})
	}
	if err := db.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	return db
}

func imCanon(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var cells []string
		for _, v := range r {
			cells = append(cells, v.Display())
		}
		out[i] = strings.Join(cells, "|")
	}
	sort.Strings(out)
	return out
}

// TestIMCacheDifferential: a warmed cached aggregate must be row-identical
// to the cold computation, and repeat executions must hit the cache.
func TestIMCacheDifferential(t *testing.T) {
	db := imTestDB(t, nil)
	const q = "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY grp"

	db.SetIMCacheEnabled(false)
	cold, err := db.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.SetIMCacheEnabled(true)

	hitsBefore := metrics.Default.Counter("imcache.hits").Value()
	var warm *Result
	for i := 0; i < 4; i++ {
		if warm, err = db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := metrics.Default.Counter("imcache.hits").Value(); got == hitsBefore {
		t.Fatal("repeated aggregate never hit the intermediate-result cache")
	}
	want, got := imCanon(cold.Rows), imCanon(warm.Rows)
	if len(want) != len(got) {
		t.Fatalf("row count: cold %d, cached %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("differential mismatch at row %d: cold %q, cached %q", i, want[i], got[i])
		}
	}
}

// TestIMCacheInvalidationOnWrite: DML against a lineage table marks the
// intermediate stale; without a freshness allowance the next execution
// recomputes and sees the write.
func TestIMCacheInvalidationOnWrite(t *testing.T) {
	db := imTestDB(t, nil)
	const q = "SELECT COUNT(*) AS n FROM t"
	var before *Result
	var err error
	for i := 0; i < 3; i++ {
		if before, err = db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := before.Rows[0][0].Int(); n != 1000 {
		t.Fatalf("baseline count %d, want 1000", n)
	}
	if _, err := db.Exec("INSERT INTO t (id, grp, v, w) VALUES (5000, 1, 1, 1.0)", nil); err != nil {
		t.Fatal(err)
	}
	after, err := db.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.Rows[0][0].Int(); n != 1001 {
		t.Fatalf("served a stale intermediate after DML: count %d, want 1001", n)
	}
}

// TestIMCacheFreshnessComposition: WITH FRESHNESS gives a stale intermediate
// a second life — a bounded-stale execution may serve it, a plain (or
// zero-bound) execution must recompute.
func TestIMCacheFreshnessComposition(t *testing.T) {
	db := imTestDB(t, nil)
	const q = "SELECT COUNT(*) AS n FROM t WHERE grp = 1"
	var base *Result
	var err error
	for i := 0; i < 3; i++ {
		if base, err = db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	baseN := base.Rows[0][0].Int()
	if _, err := db.Exec("INSERT INTO t (id, grp, v, w) VALUES (5001, 1, 1, 1.0)", nil); err != nil {
		t.Fatal(err)
	}

	// Bounded-stale read first: the stale entry is within any generous bound.
	stale, err := db.Exec(q+" WITH FRESHNESS 300", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := stale.Rows[0][0].Int(); n != baseN {
		t.Fatalf("WITH FRESHNESS 300 recomputed (%d); want the stale intermediate (%d)", n, baseN)
	}
	// Zero bound means "current": the stale entry is unusable.
	zero, err := db.Exec(q+" WITH FRESHNESS 0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := zero.Rows[0][0].Int(); n != baseN+1 {
		t.Fatalf("WITH FRESHNESS 0 served stale data: %d, want %d", n, baseN+1)
	}
	// Plain read recomputes and refreshes the entry in place.
	fresh, err := db.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := fresh.Rows[0][0].Int(); n != baseN+1 {
		t.Fatalf("plain read served stale data: %d, want %d", n, baseN+1)
	}
}

// TestIMCacheEvictionUnderPressure: a byte budget far below the working set
// keeps total bytes bounded and evicts lower-benefit entries.
func TestIMCacheEvictionUnderPressure(t *testing.T) {
	db := imTestDB(t, &imcache.Options{MaxBytes: 8 << 10, MaxEntryBytes: 4 << 10, AdmitAfter: 1})
	evBefore := metrics.Default.Counter("imcache.evictions").Value()
	for g := 0; g < 16; g++ {
		q := fmt.Sprintf("SELECT id, v, w FROM t WHERE grp = %d", g)
		for i := 0; i < 3; i++ {
			if _, err := db.Exec(q, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	imc := db.IMCache()
	if imc.Bytes() > 8<<10 {
		t.Fatalf("cache bytes %d exceed the 8KiB budget", imc.Bytes())
	}
	if ev := metrics.Default.Counter("imcache.evictions").Value() - evBefore; ev == 0 {
		t.Fatal("no evictions under a budget far below the working set")
	}
}

// TestIMCacheSubsumedQueryDifferential: once a select-project result is
// admitted, a different query it subsumes (same filter, narrower
// projection, extra residual) must return the same rows with the imcache
// on and off, and must plan over the catalog only.
func TestIMCacheSubsumedQueryDifferential(t *testing.T) {
	db := imTestDB(t, nil)
	const q1 = "SELECT id, v FROM t WHERE grp = 5"
	const q2 = "SELECT v FROM t WHERE grp = 5 AND v >= 0"
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(q1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if db.IMCache().Len() == 0 {
		t.Fatal("repeated select-project result was never admitted")
	}
	stmt, err := sql.Parse(q2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range plan.UsedViews {
		if db.Catalog().Table(v) == nil {
			t.Fatalf("plan reads %q, which is not a catalog relation", v)
		}
	}
	var on *Result
	for i := 0; i < 3; i++ { // cold, admitting and served-from-cache runs
		if on, err = db.Exec(q2, nil); err != nil {
			t.Fatal(err)
		}
	}
	db.SetIMCacheEnabled(false)
	off, err := db.Exec(q2, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, g := imCanon(off.Rows), imCanon(on.Rows)
	if len(w) == 0 || len(w) != len(g) {
		t.Fatalf("row count: imcache off %d, on %d", len(w), len(g))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("row %d: imcache off %q, on %q", i, w[i], g[i])
		}
	}
}

// TestIMCachePlansSurviveChurn: admits, invalidations, refreshes,
// evictions and enable toggles over many distinct keys never touch the
// plan cache — it keeps every plan and keeps serving hits.
func TestIMCachePlansSurviveChurn(t *testing.T) {
	db := imTestDB(t, &imcache.Options{AdmitAfter: 1, MaxBytes: 16 << 10, MaxEntryBytes: 4 << 10})
	queries := []string{
		"SELECT id, v FROM t WHERE grp = %d",
		"SELECT COUNT(*) AS n FROM t WHERE grp = %d",
		"SELECT SUM(v) AS s FROM t WHERE grp = %d AND v > 10",
	}
	for _, q := range queries {
		if _, err := db.Exec(fmt.Sprintf(q, 0), nil); err != nil {
			t.Fatal(err)
		}
	}
	plans := db.PlanCacheSize()
	if plans == 0 {
		t.Fatal("no plans cached after warm-up")
	}
	db.planMu.Lock()
	gen := db.planCache.gen
	db.planMu.Unlock()
	hits := metrics.Default.Counter("engine.plan_cache_hits")
	evictions := metrics.Default.Counter("imcache.evictions")
	invalidations := metrics.Default.Counter("imcache.invalidations")
	ev0, inv0 := evictions.Value(), invalidations.Value()

	id := 20000
	for round := 0; round < 3; round++ {
		hits0 := hits.Value()
		// The first pass admits; the write then stales every entry, so
		// the second pass refreshes in place whatever eviction left.
		for pass := 0; pass < 2; pass++ {
			for g := 0; g < 64; g++ {
				for _, q := range queries {
					for i := 0; i < 2; i++ {
						if _, err := db.Exec(fmt.Sprintf(q, g), nil); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			id++
			ins := fmt.Sprintf("INSERT INTO t (id, grp, v, w) VALUES (%d, %d, 1, 1.0)", id, id%64)
			if _, err := db.Exec(ins, nil); err != nil {
				t.Fatal(err)
			}
		}
		db.SetIMCacheEnabled(false)
		db.SetIMCacheEnabled(true)
		if got := db.PlanCacheSize(); got < plans {
			t.Fatalf("round %d: plan cache shrank from %d to %d", round, plans, got)
		}
		if hits.Value() <= hits0 {
			t.Fatalf("round %d: engine.plan_cache_hits did not rise", round)
		}
	}
	db.planMu.Lock()
	gotGen := db.planCache.gen
	db.planMu.Unlock()
	if gotGen != gen {
		t.Fatalf("plan cache was invalidated %d times by imcache churn", gotGen-gen)
	}
	if evictions.Value() == ev0 || invalidations.Value() == inv0 {
		t.Fatalf("churn exercised no evictions (%d) or invalidations (%d)",
			evictions.Value()-ev0, invalidations.Value()-inv0)
	}
}

// TestIMCacheConcurrentStress drives queries, writes and enable/disable
// toggles concurrently; run under -race this checks the locking discipline
// between the cache and the query path.
func TestIMCacheConcurrentStress(t *testing.T) {
	db := imTestDB(t, &imcache.Options{AdmitAfter: 1})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := fmt.Sprintf("SELECT COUNT(*) AS n FROM t WHERE grp = %d", (w*50+i)%16)
				if _, err := db.Exec(q, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			ins := fmt.Sprintf("INSERT INTO t (id, grp, v, w) VALUES (%d, %d, 1, 1.0)", 10000+i, i%16)
			if _, err := db.Exec(ins, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			db.SetIMCacheEnabled(i%2 == 0)
		}
		db.SetIMCacheEnabled(true)
	}()
	wg.Wait()
}

// TestIMCacheSysTable: sys.intermediate_results lists admitted entries with
// lineage and turns stale after a write.
func TestIMCacheSysTable(t *testing.T) {
	db := imTestDB(t, nil)
	const q = "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp"
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec("SELECT shape, lineage, hits, staleness_seconds FROM sys.intermediate_results", nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Rows {
		if strings.Contains(r[0].Str(), "GROUP BY") && strings.Contains(r[1].Str(), "t") {
			found = true
			if r[2].Int() == 0 {
				t.Fatal("sys.intermediate_results shows zero hits for a repeated aggregate")
			}
			if r[3].Float() != 0 {
				t.Fatalf("fresh entry reports staleness %v", r[3].Float())
			}
		}
	}
	if !found {
		t.Fatalf("admitted aggregate missing from sys.intermediate_results: %v", res.Rows)
	}
	if _, err := db.Exec("DELETE FROM t WHERE id = 0", nil); err != nil {
		t.Fatal(err)
	}
	res, err = db.Exec("SELECT staleness_seconds FROM sys.intermediate_results", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[0].Float() < 0 {
			t.Fatalf("stale entry reports negative staleness %v", r[0].Float())
		}
	}
}
