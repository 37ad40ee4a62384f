package engine

import (
	"fmt"
	"strings"
	"testing"

	"mtcache/internal/types"
)

// benchDB builds the fact/dim pair the vectorized benchmarks run against.
func benchDB(b *testing.B, rows int) *Database {
	b.Helper()
	db := New(Config{Name: "bench", Role: Backend, DisableIMCache: true})
	err := db.ExecScript(`
		CREATE TABLE big (
			b_id INT PRIMARY KEY,
			b_grp INT,
			b_dim INT,
			b_val FLOAT,
			b_pad VARCHAR(40)
		);
		CREATE TABLE dim (d_id INT PRIMARY KEY, d_name VARCHAR(20));
	`)
	if err != nil {
		b.Fatal(err)
	}
	pad := strings.Repeat("x", 32)
	facts := make([]types.Row, 0, rows)
	for i := 0; i < rows; i++ {
		facts = append(facts, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 64)),
			types.NewInt(int64(i % 256)),
			types.NewFloat(float64(i % 1000)),
			types.NewString(pad),
		})
	}
	if err := db.BulkLoad("big", facts); err != nil {
		b.Fatal(err)
	}
	dims := make([]types.Row, 0, 256)
	for i := 0; i < 256; i++ {
		dims = append(dims, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("d%d", i))})
	}
	if err := db.BulkLoad("dim", dims); err != nil {
		b.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		b.Fatal(err)
	}
	opts := db.Options()
	opts.MaxDOP = 1
	db.SetOptions(opts)
	return db
}

func benchQuery(b *testing.B, gen func(i int) string) {
	b.Helper()
	db := benchDB(b, 20000)
	for i := 0; i < 16; i++ { // warm plan + shape caches
		if _, err := db.Exec(gen(i), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(gen(i%20000), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointQueryBatch(b *testing.B) {
	benchQuery(b, func(i int) string { return fmt.Sprintf("SELECT b_id, b_val FROM big WHERE b_id = %d", i) })
}

func BenchmarkScanBatch(b *testing.B) {
	benchQuery(b, func(int) string { return "SELECT b_id, b_val FROM big WHERE b_val >= 900.0" })
}

func BenchmarkJoinBatch(b *testing.B) {
	benchQuery(b, func(int) string {
		return "SELECT COUNT(*) AS c FROM big, dim WHERE b_dim = d_id AND b_val >= 500.0"
	})
}

func BenchmarkAggBatch(b *testing.B) {
	benchQuery(b, func(int) string {
		return "SELECT b_grp, COUNT(*) AS c, SUM(b_val) AS s, AVG(b_val) AS a FROM big GROUP BY b_grp"
	})
}
