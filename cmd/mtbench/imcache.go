package main

// imcache.go measures the intermediate-result cache on repeated TPC-W
// aggregates: the same bestseller-style aggregations the paper runs on the
// mid-tier, executed over cached views, with the result cache off versus
// on. Acceptance is a >= 2x speedup per aggregate with zero differential
// mismatches against the backend, plus a demonstrated invalidation under
// concurrent replication apply (a stale intermediate is never served
// without a freshness allowance). Results land in BENCH_imcache.json.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/metrics"
	"mtcache/internal/tpcw"
)

// imcacheFloor is the acceptance floor: a repeated aggregate served from
// the intermediate-result cache must run at least this many times faster
// than recomputing it.
const imcacheFloor = 2.0

type imcacheQuery struct {
	name string
	sql  string
}

type imcacheResult struct {
	Query        string  `json:"query"`
	DisabledNsOp float64 `json:"disabled_ns_per_op"`
	EnabledNsOp  float64 `json:"enabled_ns_per_op"`
	Speedup      float64 `json:"speedup"`
	Differential string  `json:"differential"` // "match" | "MISMATCH"
	Pass         bool    `json:"pass"`
}

// imcacheCanon canonicalizes a result set for order-insensitive comparison.
func imcacheCanon(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

// printIMCache builds a backend+cache pair on TPC-W data and measures the
// intermediate-result cache on repeated aggregates.
func printIMCache(jsonPath string) {
	fmt.Println("== intermediate-result caching on repeated TPC-W aggregates ==")
	cfg := tpcw.Config{Items: 500, Customers: 500, OrdersPerCustomer: 2.0, Seed: 20030609}
	backend := core.NewBackend("im-backend")
	if err := tpcw.Load(backend, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "imcache load failed:", err)
		os.Exit(1)
	}
	cache, err := core.NewCache("im-cache", backend, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imcache cache failed:", err)
		os.Exit(1)
	}
	if err := tpcw.SetupCache(cache); err != nil {
		fmt.Fprintln(os.Stderr, "imcache setup:", err)
		os.Exit(1)
	}

	queries := []imcacheQuery{
		{"agg-orderline", "SELECT ol_i_id, SUM(ol_qty) AS total_qty FROM order_line GROUP BY ol_i_id"},
		{"agg-orders", "SELECT o_c_id, COUNT(*) AS n FROM orders GROUP BY o_c_id"},
		{"agg-item", "SELECT i_subject, COUNT(*) AS n, AVG(i_cost) AS avg_cost FROM item GROUP BY i_subject"},
	}

	canonOf := func(exec func(string) ([][]string, error), q string) []string {
		rows, err := exec(q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imcache query:", err)
			os.Exit(1)
		}
		return imcacheCanon(rows)
	}
	cacheExec := func(q string) ([][]string, error) {
		res, err := cache.Exec(q, nil)
		if err != nil {
			return nil, err
		}
		out := make([][]string, len(res.Rows))
		for i, r := range res.Rows {
			cells := make([]string, len(r))
			for j, v := range r {
				cells[j] = v.Display()
			}
			out[i] = cells
		}
		return out, nil
	}
	backendExec := func(q string) ([][]string, error) {
		res, err := backend.Exec(q, nil)
		if err != nil {
			return nil, err
		}
		out := make([][]string, len(res.Rows))
		for i, r := range res.Rows {
			cells := make([]string, len(r))
			for j, v := range r {
				cells[j] = v.Display()
			}
			out[i] = cells
		}
		return out, nil
	}

	const iters = 200
	timeQuery := func(q string) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := cache.Exec(q, nil); err != nil {
				fmt.Fprintln(os.Stderr, "imcache bench:", err)
				os.Exit(1)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}

	results := make(map[string]imcacheResult, len(queries))
	allPass := true
	fmt.Printf("  %-14s %14s %14s %9s %6s\n", "query", "disabled ns", "enabled ns", "speedup", "diff")
	for _, q := range queries {
		// Interleave off/on rounds to cancel machine drift; keep the best
		// (least noisy) round per mode.
		var offNs, onNs float64
		for round := 0; round < 3; round++ {
			cache.DB.SetIMCacheEnabled(false)
			for i := 0; i < 3; i++ { // warm the plan cache
				if _, err := cache.Exec(q.sql, nil); err != nil {
					fmt.Fprintln(os.Stderr, "imcache warmup:", err)
					os.Exit(1)
				}
			}
			off := timeQuery(q.sql)
			cache.DB.SetIMCacheEnabled(true)
			for i := 0; i < 3; i++ { // admit the intermediate (AdmitAfter executions)
				if _, err := cache.Exec(q.sql, nil); err != nil {
					fmt.Fprintln(os.Stderr, "imcache warmup:", err)
					os.Exit(1)
				}
			}
			on := timeQuery(q.sql)
			if round == 0 || off < offNs {
				offNs = off
			}
			if round == 0 || on < onNs {
				onNs = on
			}
		}
		speedup := offNs / onNs

		// Differential: the cached result (imcache enabled, warmed) must be
		// row-identical to the backend's answer.
		want := canonOf(backendExec, q.sql)
		got := canonOf(cacheExec, q.sql)
		diff := "match"
		if len(want) != len(got) {
			diff = "MISMATCH"
		} else {
			for i := range want {
				if want[i] != got[i] {
					diff = "MISMATCH"
					break
				}
			}
		}

		r := imcacheResult{
			Query:        q.sql,
			DisabledNsOp: offNs,
			EnabledNsOp:  onNs,
			Speedup:      speedup,
			Differential: diff,
			Pass:         speedup >= imcacheFloor && diff == "match",
		}
		allPass = allPass && r.Pass
		results[q.name] = r
		fmt.Printf("  %-14s %14.0f %14.0f %8.1fx %6s %s\n",
			q.name, offNs, onNs, speedup, diff, passMark(r.Pass))
	}

	// Invalidation under concurrent replication apply: a writer inserts
	// orders on the backend and syncs replication while a reader repeats a
	// COUNT on the cache. The served count must never move backwards (a
	// regression would mean a stale intermediate was served without a
	// freshness allowance), the final read must equal the backend's truth,
	// and the imcache.invalidations counter must have fired.
	backend.DB.SetIMCacheEnabled(false) // isolate the counter to cache-side invalidations
	cache.DB.SetIMCacheEnabled(true)
	const countQ = "SELECT COUNT(*) AS n FROM orders"
	for i := 0; i < 3; i++ { // admit the count as an intermediate
		if _, err := cache.Exec(countQ, nil); err != nil {
			fmt.Fprintln(os.Stderr, "imcache invalidation warmup:", err)
			os.Exit(1)
		}
	}
	invBefore := metrics.Default.Counter("imcache.invalidations").Value()

	const writerRounds = 25
	var wg sync.WaitGroup
	writerErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writerRounds; i++ {
			ins := fmt.Sprintf(
				"INSERT INTO orders (o_id, o_c_id, o_sub_total, o_total, o_ship_type, o_status) VALUES (%d, 1, 10.0, 11.0, 'AIR', 'SHIPPED')",
				1000000+i)
			if _, err := backend.Exec(ins, nil); err != nil {
				writerErr <- err
				return
			}
			if err := backend.SyncReplication(); err != nil {
				writerErr <- err
				return
			}
		}
	}()

	monotone := true
	last := int64(-1)
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < writerRounds*4; i++ {
			res, err := cache.Exec(countQ, nil)
			if err != nil || len(res.Rows) == 0 {
				continue
			}
			n := res.Rows[0][0].Int()
			if n < last {
				monotone = false
				return
			}
			last = n
		}
	}()
	wg.Wait()
	<-readerDone
	select {
	case err := <-writerErr:
		fmt.Fprintln(os.Stderr, "imcache writer:", err)
		os.Exit(1)
	default:
	}
	if err := backend.SyncReplication(); err != nil {
		fmt.Fprintln(os.Stderr, "imcache final sync:", err)
		os.Exit(1)
	}

	finalCache, err := cache.Exec(countQ, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imcache final read:", err)
		os.Exit(1)
	}
	finalBackend, err := backend.Exec(countQ, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imcache final backend read:", err)
		os.Exit(1)
	}
	cacheN, backendN := finalCache.Rows[0][0].Int(), finalBackend.Rows[0][0].Int()
	invDelta := metrics.Default.Counter("imcache.invalidations").Value() - invBefore
	invPass := monotone && cacheN == backendN && invDelta > 0
	allPass = allPass && invPass
	fmt.Printf("  invalidation under concurrent apply: monotone=%v final cache=%d backend=%d invalidations=%d %s\n",
		monotone, cacheN, backendN, invDelta, passMark(invPass))
	fmt.Printf("  overall: %s  (floor: %.1fx)\n", passMark(allPass), imcacheFloor)

	if jsonPath != "" {
		snap := map[string]any{
			"benchmark":     "intermediate-result-cache",
			"date":          time.Now().UTC().Format(time.RFC3339),
			"num_cpu":       runtime.NumCPU(),
			"items":         cfg.Items,
			"customers":     cfg.Customers,
			"iters":         iters,
			"floor_speedup": imcacheFloor,
			"results":       results,
			"invalidation": map[string]any{
				"monotone":      monotone,
				"final_cache":   cacheN,
				"final_backend": backendN,
				"invalidations": invDelta,
				"pass":          invPass,
			},
			"pass": allPass,
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
