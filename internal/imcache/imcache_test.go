package imcache

import (
	"fmt"
	"testing"
	"time"

	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/types"
)

func intCols() []exec.ColInfo {
	return []exec.ColInfo{{Name: "n", Kind: types.KindInt}}
}

func intRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i))}
	}
	return rows
}

func obs(key string, rows int, costNs int64, lineage ...string) Observation {
	return Observation{
		Key:     key,
		Shape:   "SELECT " + key,
		Cols:    intCols(),
		Rows:    intRows(rows),
		Lineage: lineage,
		LSN:     7,
		CostNs:  costNs,
	}
}

func TestAdmitAfterThreshold(t *testing.T) {
	c := New(Options{AdmitAfter: 3})
	now := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if c.Observe(obs("k1", 4, 100, "item"), now) {
			t.Fatalf("admitted on execution %d, want threshold 3", i+1)
		}
		if _, ok := c.Lookup("k1", now, 0); ok {
			t.Fatal("lookup hit before admission")
		}
	}
	if !c.Observe(obs("k1", 4, 100, "item"), now) {
		t.Fatal("not admitted at threshold")
	}
	hit, ok := c.Lookup("k1", now, 0)
	if !ok || len(hit.Rows) != 4 || hit.LSN != 7 || hit.Staleness != 0 {
		t.Fatalf("bad hit after admission: ok=%v hit=%+v", ok, hit)
	}
}

func TestInvalidateByLineageAndFreshnessWindow(t *testing.T) {
	c := New(Options{AdmitAfter: 1, MaxStaleAge: time.Minute})
	now := time.Unix(1000, 0)
	c.Observe(obs("k1", 2, 50, "item", "author"), now)
	c.Observe(obs("k2", 2, 50, "orders"), now)

	if n := c.Invalidate("AUTHOR", now); n != 1 {
		t.Fatalf("invalidated %d entries, want 1 (lineage is case-insensitive)", n)
	}
	if _, ok := c.Lookup("k1", now, 0); ok {
		t.Fatal("fresh-only lookup served a stale entry")
	}
	// Under a freshness budget the stale entry stays usable.
	later := now.Add(10 * time.Second)
	if hit, ok := c.Lookup("k1", later, 30*time.Second); !ok || hit.Staleness != 10*time.Second {
		t.Fatalf("bounded-stale lookup: ok=%v staleness=%v", ok, hit.Staleness)
	}
	if _, ok := c.Lookup("k1", later, 5*time.Second); ok {
		t.Fatal("lookup served an entry staler than its budget")
	}
	// The untouched entry is unaffected.
	if _, ok := c.Lookup("k2", later, 0); !ok {
		t.Fatal("invalidation leaked onto an unrelated lineage")
	}
	// Beyond MaxStaleAge the entry is dropped even for generous budgets.
	expired := now.Add(2 * time.Minute)
	if _, ok := c.Lookup("k1", expired, time.Hour); ok {
		t.Fatal("lookup served an entry beyond MaxStaleAge")
	}
}

func TestRefreshClearsStaleness(t *testing.T) {
	c := New(Options{AdmitAfter: 1})
	now := time.Unix(1000, 0)
	c.Observe(obs("k1", 2, 50, "item"), now)
	c.Invalidate("item", now)
	// Recomputation (the miss path re-ran the query) refreshes in place.
	o := obs("k1", 3, 60, "item")
	o.Epoch = c.Epoch()
	if !c.Observe(o, now.Add(time.Second)) {
		t.Fatal("refresh observation not accepted")
	}
	hit, ok := c.Lookup("k1", now.Add(2*time.Second), 0)
	if !ok || len(hit.Rows) != 3 || hit.Staleness != 0 {
		t.Fatalf("refresh did not clear staleness: ok=%v hit=%+v", ok, hit)
	}
}

// TestResultOlderThanInvalidationRefused: a result whose snapshot may
// predate an invalidation of one of its tables must not be stored as
// fresh — not admitted, and not allowed to refresh a stale entry.
func TestResultOlderThanInvalidationRefused(t *testing.T) {
	c := New(Options{AdmitAfter: 1})
	now := time.Unix(1000, 0)
	c.Observe(obs("k1", 2, 50, "item"), now)
	before := c.Epoch() // a re-execution of k1 reads this, then takes its snapshot
	c.Invalidate("ITEM", now)
	old := obs("k1", 3, 50, "item")
	old.Epoch = before
	if c.Observe(old, now) {
		t.Fatal("a result older than the invalidation refreshed the entry")
	}
	if _, ok := c.Lookup("k1", now, 0); ok {
		t.Fatal("a plain lookup was served a result older than the invalidation")
	}
	fresh := obs("new", 1, 50, "item")
	fresh.Epoch = before
	if c.Observe(fresh, now) || c.Len() != 1 {
		t.Fatal("a result older than the invalidation was admitted")
	}
	// Other tables are unaffected, and a result read after the
	// invalidation is stored normally.
	other := obs("k2", 1, 50, "orders")
	other.Epoch = before
	if !c.Observe(other, now) {
		t.Fatal("an invalidation of item refused a result over orders")
	}
	old.Epoch = c.Epoch()
	if !c.Observe(old, now) {
		t.Fatal("a result read after the invalidation was refused")
	}
}

func TestEvictionUnderPressurePrefersLowBenefit(t *testing.T) {
	// Budget fits roughly two of the three entries; the cheap-to-recompute
	// one must go first.
	rowBytes := estimateBytes(intCols(), intRows(100))
	c := New(Options{AdmitAfter: 1, MaxBytes: 2*rowBytes + rowBytes/2, MaxEntryBytes: rowBytes * 2})
	now := time.Unix(1000, 0)
	c.Observe(obs("cheap", 100, 10, "a"), now)
	c.Observe(obs("costly", 100, 10_000_000, "b"), now)
	// Hit the costly entry to raise its benefit further.
	c.Lookup("costly", now, 0)
	c.Observe(obs("new", 100, 5_000_000, "c"), now)

	if _, ok := c.Lookup("cheap", now, 0); ok {
		t.Fatal("low-benefit entry survived eviction pressure")
	}
	if _, ok := c.Lookup("costly", now, 0); !ok {
		t.Fatal("high-benefit entry was evicted")
	}
	if _, ok := c.Lookup("new", now, 0); !ok {
		t.Fatal("newly admitted entry was evicted instead of the cheap one")
	}
	if c.Bytes() > c.Options().MaxBytes {
		t.Fatalf("bytes %d exceed budget %d", c.Bytes(), c.Options().MaxBytes)
	}
}

func TestStaleEvictedFirst(t *testing.T) {
	rowBytes := estimateBytes(intCols(), intRows(100))
	c := New(Options{AdmitAfter: 1, MaxBytes: 2*rowBytes + rowBytes/2, MaxEntryBytes: rowBytes * 2})
	now := time.Unix(1000, 0)
	c.Observe(obs("stale", 100, 10_000_000, "a"), now)
	c.Observe(obs("fresh", 100, 10, "b"), now)
	c.Invalidate("a", now)
	c.Observe(obs("new", 100, 10, "c"), now)
	if _, ok := c.Lookup("stale", now, time.Hour); ok {
		t.Fatal("stale entry survived pressure ahead of fresh ones")
	}
	if _, ok := c.Lookup("fresh", now, 0); !ok {
		t.Fatal("fresh entry evicted while a stale one existed")
	}
}

func TestOversizeEntryNeverAdmitted(t *testing.T) {
	small := estimateBytes(intCols(), intRows(10))
	c := New(Options{AdmitAfter: 1, MaxBytes: 100 * small, MaxEntryBytes: small})
	now := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		if c.Observe(obs("big", 1000, 100, "item"), now) {
			t.Fatal("oversize result admitted")
		}
	}
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries, want 0", c.Len())
	}
}

func TestCandidateTrackerBounded(t *testing.T) {
	c := New(Options{AdmitAfter: 100, MaxTracked: 8})
	now := time.Unix(1000, 0)
	for i := 0; i < 50; i++ {
		c.Observe(obs(fmt.Sprintf("k%d", i), 1, 10, "item"), now)
	}
	c.mu.Lock()
	n := len(c.cands)
	c.mu.Unlock()
	if n > 8 {
		t.Fatalf("candidate tracker grew to %d, cap 8", n)
	}
}

// TestOverStaleNeverServedAndSwept: an entry stale beyond MaxStaleAge is
// never served, not even under a generous WITH FRESHNESS budget; Lookup
// drops only the key it touches, and Invalidate sweeps the rest.
func TestOverStaleNeverServedAndSwept(t *testing.T) {
	c := New(Options{AdmitAfter: 1, MaxStaleAge: time.Minute})
	now := time.Unix(1000, 0)
	for _, k := range []string{"k1", "k2", "k3"} {
		c.Observe(obs(k, 2, 50, "item"), now)
	}
	c.Observe(obs("other", 2, 50, "orders"), now)
	c.Invalidate("item", now)

	expired := now.Add(2 * time.Minute)
	if _, ok := c.Lookup("k1", expired, time.Hour); ok { // WITH FRESHNESS 3600
		t.Fatal("served an entry stale beyond MaxStaleAge")
	}
	if n := c.Len(); n != 3 {
		t.Fatalf("Lookup dropped %d entries, want only the touched one", 4-n)
	}
	// Observe of an over-stale key drops it; the new rows are admitted
	// as a fresh entry, never merged into the expired one.
	o := obs("k2", 3, 50, "item")
	o.Epoch = c.Epoch()
	c.Observe(o, expired)
	if hit, ok := c.Lookup("k2", expired, 0); !ok || len(hit.Rows) != 3 || hit.Staleness != 0 {
		t.Fatalf("recomputed key: ok=%v hit=%+v, want a fresh 3-row entry", ok, hit)
	}
	// Invalidate walks every entry: k3 goes, the fresh ones stay.
	c.Invalidate("customer", expired)
	if n := c.Len(); n != 2 {
		t.Fatalf("after the Invalidate sweep %d entries remain, want 2", n)
	}
	if _, ok := c.Lookup("other", expired, 0); !ok {
		t.Fatal("the sweep dropped a fresh entry")
	}
	if b, want := c.Bytes(), estimateBytes(intCols(), intRows(2))+estimateBytes(intCols(), intRows(3)); b != want {
		t.Fatalf("bytes %d after the sweep, want %d", b, want)
	}
}

func TestMetricsAccounting(t *testing.T) {
	metrics.Default.Reset()
	c := New(Options{AdmitAfter: 1})
	now := time.Unix(1000, 0)
	c.Observe(obs("k1", 2, 50, "item"), now)
	c.Lookup("k1", now, 0)
	c.Lookup("nope", now, 0)
	c.Invalidate("item", now)
	c.Clear()
	snap := metrics.Default.Snapshot()
	for name, want := range map[string]int64{
		"imcache.admits":        1,
		"imcache.hits":          1,
		"imcache.misses":        1,
		"imcache.invalidations": 1,
		"imcache.evictions":     1,
	} {
		if snap[name] != want {
			t.Errorf("%s = %d, want %d", name, snap[name], want)
		}
	}
	if g := metrics.Default.Gauge("imcache.bytes").Value(); g != 0 {
		t.Errorf("imcache.bytes = %v after Clear, want 0", g)
	}
}

func TestSnapshotOrderAndFields(t *testing.T) {
	c := New(Options{AdmitAfter: 1})
	now := time.Unix(1000, 0)
	c.Observe(obs("a", 2, 50, "item"), now)
	c.Observe(obs("b", 3, 50, "orders", "item"), now)
	c.Lookup("b", now, 0)
	infos := c.Snapshot(now)
	if len(infos) != 2 || infos[0].Shape != "SELECT b" {
		t.Fatalf("snapshot order wrong: %+v", infos)
	}
	if infos[0].Rows != 3 || infos[0].Hits != 1 || infos[0].SavedNs != 50 || infos[0].LSN != 7 {
		t.Fatalf("snapshot fields wrong: %+v", infos[0])
	}
	if len(infos[0].Lineage) != 2 || infos[0].Lineage[0] != "item" {
		t.Fatalf("lineage not normalized: %v", infos[0].Lineage)
	}
}

// BenchmarkLookup times a hit against caches of 10 and 4,000 entries,
// a quarter of them stale: ns/op must not grow with the entry count.
func BenchmarkLookup(b *testing.B) {
	for _, n := range []int{10, 4000} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			c := New(Options{AdmitAfter: 1, MaxStaleAge: time.Hour})
			now := time.Unix(1000, 0)
			for i := 0; i < n; i++ {
				table := "item"
				if i%4 == 0 {
					table = "orders"
				}
				c.Observe(obs(fmt.Sprintf("k%d", i), 1, 100, table), now)
			}
			c.Invalidate("orders", now)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Lookup("k1", now, 0); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}
