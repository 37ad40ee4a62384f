package main

// vectorized.go gates the single-node hot path: 64-row batch execution and
// the zero-allocation auto-parameterized plan-cache front door. Each query
// runs against a 20,000-row fact table at MaxDOP 1 with the
// intermediate-result cache off, so the numbers measure planning and
// execution rather than parallelism or cached results. Allocations per query
// must stay at or below fixed ceilings (the counts the batch engine reached
// when it was introduced), and the warmed key computation must not allocate.
// ns/op is reported without a gate; end-to-end latency is gated by the
// repo's benchmark (BENCHMARK.json). Results land in BENCH_vectorized.json.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"mtcache/internal/engine"
	"mtcache/internal/types"
)

// vecRows is the fact-table size the allocation ceilings were measured at.
const vecRows = 20000

type vecWorkload struct {
	name       string
	query      func(i int) string // i varies the literal for the point workload
	allocLimit int64              // allocs/op ceiling
}

type vecResult struct {
	Query      string  `json:"query"`
	NsPerOp    float64 `json:"ns_per_op"`
	AllocsOp   int64   `json:"allocs_per_op"`
	AllocLimit int64   `json:"allocs_ceiling"`
	Pass       bool    `json:"pass"`
}

// vecDB builds the benchmark database: a 5-column fact table and a small
// dimension table, serial plans only (MaxDOP 1).
func vecDB() (*engine.Database, error) {
	const dimRows = 256
	db := engine.New(engine.Config{Name: "vec", Role: engine.Backend, DisableIMCache: true})
	err := db.ExecScript(`
		CREATE TABLE big (
			b_id INT PRIMARY KEY,
			b_grp INT,
			b_dim INT,
			b_val FLOAT,
			b_pad VARCHAR(40)
		);
		CREATE TABLE dim (
			d_id INT PRIMARY KEY,
			d_name VARCHAR(20)
		);
	`)
	if err != nil {
		return nil, err
	}
	pad := strings.Repeat("x", 32)
	facts := make([]types.Row, 0, vecRows)
	for i := 0; i < vecRows; i++ {
		facts = append(facts, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 64)),
			types.NewInt(int64(i % dimRows)),
			types.NewFloat(float64(i % 1000)),
			types.NewString(pad),
		})
	}
	if err := db.BulkLoad("big", facts); err != nil {
		return nil, err
	}
	dims := make([]types.Row, 0, dimRows)
	for i := 0; i < dimRows; i++ {
		dims = append(dims, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("d%d", i))})
	}
	if err := db.BulkLoad("dim", dims); err != nil {
		return nil, err
	}
	if err := db.Analyze(); err != nil {
		return nil, err
	}
	opts := db.Options()
	opts.MaxDOP = 1
	db.SetOptions(opts)
	return db, nil
}

// benchExec times query execution on db, varying the literal through gen.
func benchExec(db *engine.Database, gen func(i int) string) testing.BenchmarkResult {
	// Warm the plan and shape caches before timing.
	for i := 0; i < 64; i++ {
		if _, err := db.Exec(gen(i), nil); err != nil {
			panic(fmt.Sprintf("vectorized warmup: %v", err))
		}
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(gen(i%vecRows), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// buildCommit is the VCS revision stamped into the binary, "+dirty" when
// built from a modified tree, or "unknown".
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// printVectorized runs the gated workloads and writes the snapshot.
func printVectorized(jsonPath string) {
	fmt.Println("== vectorized batch execution + auto-parameterized plan keys ==")
	fmt.Printf("  %d-row fact table, 256-row dim table, MaxDOP 1, imcache off, GOMAXPROCS %d\n",
		vecRows, runtime.GOMAXPROCS(0))

	db, err := vecDB()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vectorized setup:", err)
		os.Exit(1)
	}

	workloads := []vecWorkload{
		// Literal-varying point query: resolves the shape cache with zero
		// allocations, then one index seek.
		{
			name:       "point-query",
			query:      func(i int) string { return fmt.Sprintf("SELECT b_id, b_val FROM big WHERE b_id = %d", i) },
			allocLimit: 43,
		},
		// Selective filter scan: the batch scan→filter→project pipeline.
		{
			name:       "scan",
			query:      func(int) string { return "SELECT b_id, b_val FROM big WHERE b_val >= 900.0" },
			allocLimit: 86,
		},
		// Hash-join probe in batch form over the dim build.
		{
			name:       "join",
			query:      func(int) string { return "SELECT COUNT(*) AS c FROM big, dim WHERE b_dim = d_id AND b_val >= 500.0" },
			allocLimit: 513,
		},
		// Grouped aggregation over the int-keyed group table.
		{
			name: "agg",
			query: func(int) string {
				return "SELECT b_grp, COUNT(*) AS c, SUM(b_val) AS s, AVG(b_val) AS a FROM big GROUP BY b_grp"
			},
			allocLimit: 525,
		},
	}

	results := make(map[string]vecResult, len(workloads)+1)
	allPass := true
	fmt.Printf("  %-12s %12s %10s %10s\n", "workload", "ns/op", "allocs/op", "ceiling")
	for _, w := range workloads {
		// Keep the least-noisy (fastest, fewest-allocation) of three rounds.
		var ns float64
		var allocs int64
		for round := 0; round < 3; round++ {
			r := benchExec(db, w.query)
			if round == 0 || float64(r.NsPerOp()) < ns {
				ns = float64(r.NsPerOp())
			}
			if round == 0 || r.AllocsPerOp() < allocs {
				allocs = r.AllocsPerOp()
			}
		}
		r := vecResult{Query: w.query(0), NsPerOp: ns, AllocsOp: allocs, AllocLimit: w.allocLimit, Pass: allocs <= w.allocLimit}
		allPass = allPass && r.Pass
		results[w.name] = r
		fmt.Printf("  %-12s %12.0f %10d %10d  %s\n", w.name, ns, allocs, w.allocLimit, passMark(r.Pass))
	}

	// The warmed cache-hit key computation — normalize, shape lookup,
	// literal extraction — must not allocate.
	const keyQuery = "SELECT b_id, b_val FROM big WHERE b_id = 123"
	if !db.AutoParamProbe(keyQuery) {
		fmt.Fprintln(os.Stderr, "vectorized: shape did not cache")
		os.Exit(1)
	}
	rk := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !db.AutoParamProbe(keyQuery) {
				b.Fatal("shape cache miss")
			}
		}
	})
	keyResult := vecResult{Query: keyQuery, NsPerOp: float64(rk.NsPerOp()), AllocsOp: rk.AllocsPerOp(), Pass: rk.AllocsPerOp() == 0}
	allPass = allPass && keyResult.Pass
	results["key-computation"] = keyResult
	fmt.Printf("  %-12s %12.0f %10d %10d  %s\n", "key-compute", keyResult.NsPerOp, keyResult.AllocsOp, 0, passMark(keyResult.Pass))
	fmt.Printf("  overall: %s\n", passMark(allPass))

	if jsonPath != "" {
		snap := map[string]any{
			"benchmark":  "vectorized-batch-execution",
			"date":       time.Now().UTC().Format(time.RFC3339),
			"commit":     buildCommit(),
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"rows":       vecRows,
			"config":     "64-row batches + zero-alloc auto-parameterized shape cache; MaxDOP 1, imcache off",
			"gates":      "allocs_per_op <= allocs_ceiling per query; key-computation 0 allocs; ns_per_op reported only",
			"results":    results,
			"pass":       allPass,
		}
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-json:", err)
			os.Exit(1)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintln(os.Stderr, "bench-json:", err)
		}
		fmt.Printf("  snapshot written to %s\n", jsonPath)
	}
	if !allPass {
		os.Exit(1) // CI regression gate
	}
}

func passMark(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
