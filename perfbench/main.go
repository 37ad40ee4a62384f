// Command perfbench is the repository's end-to-end benchmark: routed TPC-W
// (and ad-hoc point reads) through the deployed fleet path — driver process
// with the session router → TCP → one cache process → TCP → one durable
// backend process, with log-sniffing replication back to the cache.
//
//	perfbench --workload browsing|ordering|point --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
// the per-layer metrics (see README.md). Human-readable lines before it
// carry provenance, workload shares, sample counts and error_rate. The
// command exits nonzero on a read-your-writes violation, a final-state
// differential mismatch or any failed interaction.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtcache/internal/imcache"
	"mtcache/internal/metrics"
	"mtcache/internal/router"
	"mtcache/internal/tpcw"
	"mtcache/internal/wire"
)

// options configure one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	data     tpcw.Config
	sessions int           // closed-loop router sessions
	setups   int           // fleets booted to take setup_s's median
	warmup   time.Duration // load before the measurement window
	window   time.Duration // wips / trace-alternation window
	root     string        // scratch directory for data directories
}

// workloads maps a workload name to its TPC-W mix; point has none.
var workloads = map[string]*tpcw.Workload{
	"browsing": ptr(tpcw.Browsing),
	"ordering": ptr(tpcw.Ordering),
	"point":    nil,
}

func ptr[T any](v T) *T { return &v }

func main() {
	if runChild(os.Args[1:]) {
		return
	}
	o := options{
		data:     tpcw.DefaultConfig(),
		sessions: runtime.NumCPU(),
		setups:   3,
		warmup:   3 * time.Second,
		window:   2 * time.Second,
		root:     filepath.Join(".bench_build", "perfbench-data"),
	}
	flag.StringVar(&o.workload, "workload", "", "browsing, ordering or point")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (the dataset seed is fixed)")
	flag.IntVar(&o.seconds, "seconds", 10, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	o.trace = *traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload browsing|ordering|point --seconds >= 1 --trace 0|1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final line, plus the human-readable lines before it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints the notes, every metric by name with its unit, and the JSON
// result as the last line.
func (r *result) write(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// snapshot is the state the measurement window is differenced over.
type snapshot struct {
	at                              time.Time
	driverCPU, cacheCPU, backendCPU time.Duration
	driver, cache, backend          metrics.Export
}

func takeSnapshot(f *fleet) (snapshot, error) {
	s := snapshot{at: time.Now(), driver: metrics.Default.Export()}
	var errs [5]error
	s.driverCPU, errs[0] = cpuTime(os.Getpid())
	s.cacheCPU, errs[1] = cpuTime(f.cache.pid())
	s.backendCPU, errs[2] = cpuTime(f.backend.pid())
	s.cache, errs[3] = fetchMetrics(f.cache.httpAddr)
	s.backend, errs[4] = fetchMetrics(f.backend.httpAddr)
	return s, errors.Join(errs[:]...)
}

// counter returns a counter's (or histogram's sample count's) growth
// between two exports.
func counter(a, b metrics.Export, name string) float64 {
	if h, ok := b.Histograms[name]; ok {
		return float64(h.Count - a.Histograms[name].Count)
	}
	return float64(b.Counters[name] - a.Counters[name])
}

// run boots the fleet, drives the workload and returns the result. An error
// means the benchmark could not run at all; a run that ran but observed
// incorrect output returns Correct=false.
func run(o options) (*result, error) {
	if err := os.MkdirAll(o.root, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(o.root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root) //nolint:errcheck — scratch

	if d := time.Duration(o.seconds) * time.Second; o.window > d {
		o.window = d
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.note("%s", provenance(o))

	// Set-up: boot the fleet o.setups times and keep the last.
	var setups []float64
	var f *fleet
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		nf, err := startFleet(root, o.data)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < o.setups-1 {
			nf.stop()
		} else {
			f = nf
		}
	}
	stopped := false
	stopFleet := func() {
		if !stopped {
			f.stop()
			stopped = true
		}
	}
	defer stopFleet()

	rt, err := router.New(router.Config{Backend: f.backend.wireAddr, Caches: []string{f.cache.wireAddr}, PoolSize: 1})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	cacheCli, err := wire.Dial(f.cache.wireAddr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer cacheCli.Close()
	backendCli, err := wire.Dial(f.backend.wireAddr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer backendCli.Close()

	clk := &clock{dur: time.Duration(o.seconds) * time.Second, win: o.window, traced: o.trace}
	var rec *recorder
	if o.trace {
		rec = &recorder{streamCap: 20000}
	}
	conns, clients := buildClients(o, rt, clk, rec)
	probeConn := newMeteredConn(rt.Session(), clk, rec, true)

	var (
		wg       sync.WaitGroup
		firstErr atomic.Value
		samples  = make([][]sample, len(clients))
		pr       probeResult
	)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c client) {
			defer wg.Done()
			samples[i] = worker(c, clk, &firstErr)
		}(i, c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		pr = probe(probeConn, cacheCli, clk)
	}()

	time.Sleep(o.warmup)
	before, err := takeSnapshot(f)
	if err != nil {
		clk.start.Store(time.Now().UnixNano() - int64(clk.dur)) // stop the load
		wg.Wait()
		return nil, err
	}
	clk.start.Store(before.at.UnixNano())
	time.Sleep(clk.dur)
	after, snapErr := takeSnapshot(f)
	var cacheRSS, backendRSS float64
	var rssErr [2]error
	cacheRSS, rssErr[0] = peakRSSMB(f.cache.pid())
	backendRSS, rssErr[1] = peakRSSMB(f.backend.pid())
	wg.Wait()
	if err := errors.Join(snapErr, rssErr[0], rssErr[1]); err != nil {
		return nil, err
	}

	// Correctness: every interaction succeeded, no stale probe read, and the
	// final state of every cached view matches its source on the backend.
	m := &measured{probe: pr, conns: conns, probeConn: probeConn, before: before, after: after}
	failed := 0
	for _, ss := range samples {
		for _, s := range ss {
			if s.ok {
				m.ok = append(m.ok, s)
			} else {
				failed++
			}
		}
	}
	res.Attempted = len(m.ok) + failed + pr.rounds
	res.Failed = failed + pr.stale + pr.errors
	if e := firstErr.Load(); e != nil {
		res.note("first interaction error: %v", e)
	}
	if pr.err != nil {
		res.note("first probe error: %v", pr.err)
	}
	if len(pr.lag) == 0 {
		res.note("probe completed no round in the window")
		res.Correct = false
	}
	res.note("read-your-writes probe: %d rounds, %d stale reads, %d errors", pr.rounds, pr.stale, pr.errors)
	if err := differential(cacheCli, backendCli); err != nil {
		res.note("differential check FAILED: %v", err)
		res.Failed++
		res.Correct = false
	} else {
		res.note("differential check: every cached view matches its backend source")
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	res.note("error_rate %.6f ratio (%d failed of %d attempted)", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	if len(m.ok) == 0 {
		return nil, fmt.Errorf("no interaction completed in the window")
	}
	res.note("%s", shares(m))

	if !o.trace {
		endToEnd(res, o, setups, m, cacheRSS, backendRSS)
		return res, nil
	}
	stopFleet()
	lt, err := replay(rec.stream, o.data, filepath.Join(root, "replay"))
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	perLayer(res, o, m, rec, lt)
	return res, nil
}

// measured is what the measurement window produced.
type measured struct {
	ok            []sample // completed interactions
	probe         probeResult
	conns         []*meteredConn // the workload's sessions
	probeConn     *meteredConn
	before, after snapshot
}

// ops is the number of completed interactions, the per-op denominator.
func (m *measured) ops() float64 { return float64(len(m.ok)) }

// buildClients opens o.sessions router sessions (pool size 1 per target) and
// the workload's client on each.
func buildClients(o options, rt *router.Router, clk *clock, rec *recorder) ([]*meteredConn, []client) {
	mix := workloads[o.workload]
	var conns []*meteredConn
	var clients []client
	var master *tpcw.App
	for i := 0; i < o.sessions; i++ {
		m := newMeteredConn(rt.Session(), clk, rec, false)
		conns = append(conns, m)
		if mix == nil {
			clients = append(clients, &pointClient{conn: m.conn(), gen: newPointGen(o.seed, i, o.data)})
			continue
		}
		app := tpcw.NewApp(m.conn(), o.data)
		if master == nil {
			master = app
		} else {
			// One id pool for every session, like web servers sharing
			// one backend.
			app.ShareIDsWith(master)
		}
		clients = append(clients, newTPCWClient(app, *mix, o.seed, i))
	}
	return conns, clients
}

// windowed splits the completed interactions' latencies by measurement
// window (whole windows only).
func windowed(ok []sample, o options) [][]time.Duration {
	out := make([][]time.Duration, int(time.Duration(o.seconds)*time.Second/o.window))
	for _, s := range ok {
		if w := int(s.at / o.window); w < len(out) {
			out[w] = append(out[w], s.dur)
		}
	}
	return out
}

// rate is a window's completed interactions per second.
func rate(w []time.Duration, o options) float64 { return float64(len(w)) / o.window.Seconds() }

// endToEnd fills the untraced run's metrics. Throughput and the latency
// tail are medians over the windows, so one slow second of a shared host
// does not own the run's top percentile.
func endToEnd(res *result, o options, setups []float64, m *measured, cacheRSS, backendRSS float64) {
	var rates, p99s []float64
	minN := len(m.ok)
	for _, w := range windowed(m.ok, o) {
		rates = append(rates, rate(w, o))
		p99s = append(p99s, percentile(micros(w), 99))
		minN = min(minN, len(w))
	}
	lat := make([]time.Duration, len(m.ok))
	for i, s := range m.ok {
		lat[i] = s.dur
	}
	l := micros(lat)
	lag := micros(m.probe.lag)
	before, after := m.before, m.after
	cpu := func(d time.Duration) float64 { return float64(d.Microseconds()) / m.ops() }
	res.set("setup_s", median(setups), "s")
	res.set("wips", median(rates), "1/s")
	res.set("latency_p50_ms", percentile(l, 50)/1e3, "ms")
	res.set("latency_p99_ms", median(p99s)/1e3, "ms")
	res.set("backend_cpu_us_per_op", cpu(after.backendCPU-before.backendCPU), "us")
	res.set("cpu_us_per_op", cpu(after.backendCPU-before.backendCPU+after.cacheCPU-before.cacheCPU+after.driverCPU-before.driverCPU), "us")
	res.set("repl_lag_p50_ms", percentile(lag, 50)/1e3, "ms")
	res.set("repl_lag_p90_ms", percentile(lag, 90)/1e3, "ms")
	res.set("cache_rss_mb", cacheRSS, "MiB")
	res.set("backend_rss_mb", backendRSS, "MiB")
	tail := tailPercentile(len(l))
	res.note("samples: %d interactions in %d windows of %v, at least %d per window; wips and latency_p99_ms are medians over the windows",
		len(l), len(rates), o.window, minN)
	res.note("wips per window: %v", rates)
	res.note("whole-run latency: p99 = %.3f ms, tail p%g = %.3f ms; %d probe lag samples; setups %v s",
		percentile(l, 99)/1e3, tail, percentile(l, tail)/1e3, len(lag), setups)
}

// perLayer fills the traced run's metrics.
func perLayer(res *result, o options, m *measured, rec *recorder, lt *layerTimes) {
	ok, ops, before, after := m.ok, m.ops(), m.before, m.after
	var untracedRates, tracedRates []float64
	for i, w := range windowed(ok, o) {
		if i%2 == 1 {
			tracedRates = append(tracedRates, rate(w, o))
		} else {
			untracedRates = append(untracedRates, rate(w, o))
		}
	}
	res.set("trace_overhead_pct", 100*ratio(median(untracedRates)-median(tracedRates), median(untracedRates)), "%")
	res.set("cache.cpu_us_per_op", float64((after.cacheCPU-before.cacheCPU).Microseconds())/ops, "us")
	res.set("driver.cpu_us_per_op", float64((after.driverCPU-before.driverCPU).Microseconds())/ops, "us")

	// tpcw: spans around App.Run, traced windows only.
	byLabel := map[uint8][]time.Duration{}
	calls := 0
	for _, s := range ok {
		calls += s.calls
		if int(s.at/o.window)%2 == 1 {
			byLabel[s.label] = append(byLabel[s.label], s.dur)
		}
	}
	for _, in := range tpcw.Interactions() {
		if in == tpcw.SearchRequest {
			continue // page generation only: no database call to time
		}
		d := byLabel[uint8(in)]
		res.set("tpcw."+in.String()+".p50_ms", percentile(micros(d), 50)/1e3, "ms")
		if len(d) > 0 {
			res.note("tpcw.%s: %d traced samples", in, len(d))
		}
	}
	cpi := float64(calls) / ops
	if workloads[o.workload] == nil {
		cpi = 0 // point runs no TPC-W interaction
	}
	res.set("tpcw.calls_per_interaction", cpi, "count")

	// router: spans around Session.Exec/Call, traced windows only.
	stmts := float64(m.probeConn.stmts)
	for _, c := range m.conns {
		stmts += float64(c.stmts)
	}
	kstmt := stmts / 1000
	all := micros(append(append([]time.Duration(nil), rec.reads...), rec.writes...))
	reads := micros(rec.reads)
	dm := func(name string) float64 { return counter(before.driver, after.driver, name) }
	cm := func(name string) float64 { return counter(before.cache, after.cache, name) }
	bm := func(name string) float64 { return counter(before.backend, after.backend, name) }
	routerP50 := percentile(all, 50)
	res.set("router.stmt_p50_us", routerP50, "us")
	res.set("router.stmt_p99_us", percentile(all, 99), "us")
	res.set("router.write_p50_us", percentile(micros(rec.writes), 50), "us")
	res.set("router.bypass_per_kstmt", ratio(dm("router.ryw_bypass")+dm("router.backend_direct"), kstmt), "per_kstmt")
	res.set("router.failovers_per_kstmt", ratio(dm("router.failovers"), kstmt), "per_kstmt")
	res.note("router: %d traced statements (%d writes) of %.0f in the window", len(all), len(rec.writes), stmts)

	// wire.
	engineP50 := percentile(sorted(lt.stmt), 50)
	ping := percentile(micros(m.probe.pings), 50)
	res.set("wire.ping_p50_us", ping, "us")
	res.set("wire.overhead_p50_us", percentile(reads, 50)-engineP50, "us")
	res.set("wire.retries_per_kstmt", ratio(dm("wire.retries")+cm("wire.retries")+bm("wire.retries"), kstmt), "per_kstmt")
	res.set("wire.pull_failures", cm("wire.pull_failures"), "count")
	res.set("router.unattributed_p50_us", routerP50-ping-engineP50, "us")

	// Layer replay.
	res.set("engine.stmt_p50_us", engineP50, "us")
	res.set("sql.parse_p50_us", percentile(sorted(lt.parse), 50), "us")
	res.set("opt.optimize_p50_us", percentile(sorted(lt.optimize), 50), "us")
	res.set("exec.run_p50_us", percentile(sorted(lt.run), 50), "us")
	res.set("engine.overhead_p50_us", percentile(sorted(lt.overhead), 50), "us")
	res.set("storage.commit_p50_us", percentile(sorted(lt.commit), 50), "us")
	res.set("repl.step_p50_us", percentile(sorted(lt.step), 50), "us")
	res.note("layer replay: %d reads, %d writes replayed of %d recorded statements, %d errors",
		len(lt.stmt), len(lt.commit), len(rec.stream), lt.errors)

	// Counter deltas from the servers' /metrics.json.
	res.set("engine.plan_cache_hit_ratio", ratio(cm("engine.plan_cache_hits"), cm("engine.plan_cache_hits")+cm("engine.plan_cache_misses")), "ratio")
	res.set("engine.autoparam_hit_ratio", ratio(cm("engine.autoparam_hits"), cm("engine.autoparam_hits")+cm("engine.autoparam_misses")), "ratio")
	res.set("engine.session_gate_stale_ratio", ratio(cm("engine.session_gate_stale"), cm("engine.session_gate_stale")+cm("engine.session_gate_pass")), "ratio")
	res.set("imcache.hit_ratio", ratio(cm("imcache.hits"), cm("imcache.hits")+cm("imcache.misses")), "ratio")
	res.set("imcache.admits_per_kop", 1000*cm("imcache.admits")/ops, "per_kop")
	res.set("imcache.invalidations_per_kop", 1000*cm("imcache.invalidations")/ops, "per_kop")
	plans := cm("opt.plan_local") + cm("opt.plan_remote") + cm("opt.plan_mixed") + cm("opt.plan_dynamic")
	res.set("opt.remote_plan_ratio", ratio(cm("opt.plan_remote")+cm("opt.plan_mixed"), plans), "ratio")
	res.set("storage.wal_fsyncs_per_kop", 1000*bm("storage.wal_fsyncs")/ops, "per_kop")
	res.set("storage.wal_bytes_per_op", bm("storage.wal_bytes")/ops, "B")
	res.set("repl.apply_errors", cm("repl.apply_errors"), "count")
}

// shares describes what the workload asked of the system: the share of
// statements that write, that the router bypassed to the backend, and that
// the cache answered (possibly with remote sub-queries, counted per
// statement), and the distinct read keys and shapes it touched against the
// capacities of the caches that key on them.
func shares(m *measured) string {
	var stmts, writes int64
	keys, shapes := map[string]struct{}{}, map[string]struct{}{}
	before, after := m.before, m.after
	for _, c := range m.conns {
		stmts += c.stmts
		writes += c.writes
		for k := range c.keys {
			keys[k] = struct{}{}
		}
		for k := range c.shapes {
			shapes[k] = struct{}{}
		}
	}
	n := float64(stmts)
	bypass := counter(before.driver, after.driver, "router.ryw_bypass") + counter(before.driver, after.driver, "router.backend_direct")
	out := map[string]any{
		"interactions":               len(m.ok),
		"statements":                 stmts,
		"write_share":                ratio(float64(writes), n),
		"bypass_share":               ratio(bypass, n),
		"cache_answered_share":       ratio(n-float64(writes)-bypass, n),
		"remote_roundtrips_per_stmt": ratio(counter(before.cache, after.cache, "exec.remote_roundtrip_seconds"), n),
		"distinct_read_keys":         len(keys),
		"distinct_read_shapes":       len(shapes),
		"autoparam_capacity":         autoParamCapacity,
		"imcache_candidate_capacity": imcache.New(imcache.Options{}).Options().MaxTracked,
		"plan_cache_capacity":        planCacheCapacity,
	}
	b, _ := json.Marshal(map[string]any{"shares": out}) //nolint:errcheck — plain values
	return string(b)
}

// The engine's default cache capacities (internal/engine: defaultAutoCacheCap
// and defaultPlanCacheCap), reported next to the distinct keys a workload
// touches. They are unexported there, so they are restated here.
const (
	autoParamCapacity = 512
	planCacheCapacity = 256
)

// provenance records what the numbers were measured on and with.
func provenance(o options) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	b, _ := json.Marshal(map[string]any{"provenance": map[string]any{ //nolint:errcheck — plain values
		"num_cpu":           runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go_version":        runtime.Version(),
		"commit":            commit,
		"workload":          o.workload,
		"seed":              o.seed,
		"seconds":           o.seconds,
		"trace":             o.trace,
		"items":             o.data.Items,
		"customers":         o.data.Customers,
		"data_seed":         o.data.Seed,
		"wal_sync":          syncPolicy,
		"pull_interval_ms":  pullInterval.Milliseconds(),
		"sessions":          o.sessions,
		"router_pool":       1,
		"think_time_ms":     0,
		"probe_interval_ms": probeInterval.Milliseconds(),
	}})
	return string(b)
}

// diffCheck pairs a cached view with its backend source and the numeric
// columns whose sums must agree.
type diffCheck struct{ view, table, cols string }

var diffChecks = []diffCheck{
	{"cv_item", "item", "i_id, i_a_id, i_related1, i_stock, i_cost, i_srp"},
	{"cv_author", "author", "a_id"},
	{"cv_orders", "orders", "o_id, o_c_id"},
	{"cv_order_line", "order_line", "ol_o_id, ol_id, ol_i_id, ol_qty"},
	{"cv_probe", "bench_probe", "id, v"},
}

// differential waits until the cache has applied everything the backend
// committed, then compares COUNT(*) and column sums of every cached view
// with its source table on the backend.
func differential(cacheCli, backendCli *wire.Client) error {
	target, err := backendCli.AppliedLSN()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		applied, err := cacheCli.AppliedLSN()
		if err != nil {
			return err
		}
		if applied >= target {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cache applied LSN %d never reached the backend's %d", applied, target)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, d := range diffChecks {
		agg := "COUNT(*)"
		for _, c := range strings.Split(d.cols, ",") {
			agg += ", SUM(" + strings.TrimSpace(c) + ")"
		}
		got, err := cacheCli.Query("SELECT "+agg+" FROM "+d.view, nil)
		if err != nil {
			return fmt.Errorf("%s on the cache: %w", d.view, err)
		}
		want, err := backendCli.Query("SELECT "+agg+" FROM "+d.table, nil)
		if err != nil {
			return fmt.Errorf("%s on the backend: %w", d.table, err)
		}
		if len(got.Rows) != 1 || len(want.Rows) != 1 || len(got.Rows[0]) != len(want.Rows[0]) {
			return fmt.Errorf("%s: malformed aggregate results", d.view)
		}
		for i := range want.Rows[0] {
			g, w := got.Rows[0][i].Float(), want.Rows[0][i].Float()
			if math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
				return fmt.Errorf("%s column %d: cache %s, backend %s", d.view, i,
					strconv.FormatFloat(g, 'g', -1, 64), strconv.FormatFloat(w, 'g', -1, 64))
			}
		}
	}
	return nil
}
