package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/router"
	"mtcache/internal/sql"
	"mtcache/internal/tpcw"
	"mtcache/internal/types"
	"mtcache/internal/wire"
)

// pointLabel tags point-workload samples; TPC-W samples carry their
// tpcw.Interaction.
const pointLabel = 255

// clock holds the run's phase: warm-up until start is set, then a
// measurement window of length dur split into windows of length win.
type clock struct {
	start  atomic.Int64 // measurement start, UnixNano; 0 while warming up
	dur    time.Duration
	win    time.Duration
	traced bool // alternate windows record spans (odd) or not (even)
}

// offset returns t's position in the measurement window and whether t lies
// inside it.
func (c *clock) offset(t time.Time) (time.Duration, bool) {
	s := c.start.Load()
	if s == 0 {
		return 0, false
	}
	off := time.Duration(t.UnixNano() - s)
	return off, off >= 0 && off < c.dur
}

// over reports whether the measurement window has ended.
func (c *clock) over(t time.Time) bool {
	s := c.start.Load()
	return s != 0 && t.UnixNano() >= s+int64(c.dur)
}

// tracing reports whether spans are recorded for work starting at t.
func (c *clock) tracing(t time.Time) bool {
	off, in := c.offset(t)
	return c.traced && in && int(off/c.win)%2 == 1
}

// sample is one completed interaction inside the measurement window.
type sample struct {
	at    time.Duration // start offset in the window
	dur   time.Duration
	label uint8
	calls int
	ok    bool
}

// stmt is one statement of the recorded stream, replayed in process by the
// traced run's layer replay.
type stmt struct {
	text   string
	params exec.Params
	write  bool
}

// recorder collects the traced run's router spans and statement stream.
type recorder struct {
	mu        sync.Mutex
	stream    []stmt
	streamCap int
	reads     []time.Duration // router statement latencies (traced windows)
	writes    []time.Duration // ... of statements that returned a commit LSN
}

func (r *recorder) add(s stmt, d time.Duration, traced bool) {
	r.mu.Lock()
	if len(r.stream) < r.streamCap {
		r.stream = append(r.stream, s)
	}
	if traced {
		if s.write {
			r.writes = append(r.writes, d)
		} else {
			r.reads = append(r.reads, d)
		}
	}
	r.mu.Unlock()
}

// meteredConn wraps a router session as the application's core.Conn. It
// always counts statements, writes and distinct read keys (the workload
// shares in every result); with a recorder it also times each statement and
// records the stream — the traced run's router spans.
type meteredConn struct {
	s   *router.Session
	clk *clock
	rec *recorder // nil in untraced runs
	// probe marks the freshness probe's session: its statements are
	// recorded and counted, but its keys are not the workload's.
	probe bool

	stmts, writes int64
	keys          map[string]struct{}
	shapes        map[string]struct{}
}

func newMeteredConn(s *router.Session, clk *clock, rec *recorder, probe bool) *meteredConn {
	return &meteredConn{s: s, clk: clk, rec: rec, probe: probe,
		keys: map[string]struct{}{}, shapes: map[string]struct{}{}}
}

// conn exposes the wrapper as the opaque application connection.
func (m *meteredConn) conn() *core.Conn {
	return core.NewConn("perfbench", m.exec, m.call)
}

func (m *meteredConn) exec(text string, params exec.Params) (*engine.Result, error) {
	t0 := time.Now()
	res, err := m.s.Exec(text, params)
	m.observe(t0, res, err, "", text, params)
	return res, err
}

func (m *meteredConn) call(proc string, params exec.Params) (*engine.Result, error) {
	t0 := time.Now()
	res, err := m.s.Call(proc, params)
	m.observe(t0, res, err, proc, "", params)
	return res, err
}

// observe accounts one finished statement: a call of proc, or ad-hoc text
// when proc is "". Keys are built only for measured reads, and the stream
// text only in traced runs.
func (m *meteredConn) observe(t0 time.Time, res *engine.Result, err error, proc, text string, params exec.Params) {
	d := time.Since(t0)
	if err != nil {
		return
	}
	write := res.CommitLSN > 0
	if _, in := m.clk.offset(t0); in {
		m.stmts++
		if write {
			m.writes++
		} else if !m.probe {
			if proc == "" {
				m.keys[text] = struct{}{}
				m.shapes[shapeOf(text)] = struct{}{}
			} else {
				m.keys[callKey(proc, params)] = struct{}{}
				m.shapes[proc] = struct{}{}
			}
		}
	}
	if m.rec != nil {
		if proc != "" {
			text, params = callText(proc, params), nil
		}
		m.rec.add(stmt{text: text, params: params, write: write}, d, m.clk.tracing(t0))
	}
}

// shapeOf strips literals from ad-hoc text: the point workload's two
// statement shapes.
func shapeOf(text string) string {
	if i := strings.LastIndexByte(text, '='); i >= 0 {
		return text[:i]
	}
	return text
}

// callKey identifies a procedure call by name and argument values. Time
// arguments carry the wall clock and are left out.
func callKey(proc string, params exec.Params) string {
	names := make([]string, 0, len(params))
	for n, v := range params {
		if v.K != types.KindTime {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(proc)
	for _, n := range names {
		b.WriteByte(' ')
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(params[n].String())
	}
	return b.String()
}

// callText renders a call as the EXEC text the router sends.
func callText(proc string, params exec.Params) string {
	call := &sql.ExecStmt{Proc: proc}
	for name, v := range params {
		call.Args = append(call.Args, sql.ExecArg{Name: name, Expr: &sql.Literal{Val: v}})
	}
	return sql.Deparse(call)
}

// client is one closed-loop emulated user: next runs one interaction and
// returns its label and the number of database calls it made.
type client interface {
	next() (label uint8, calls int, err error)
}

// tpcwClient is a TPC-W emulated browser: the mix is drawn from its own
// seeded generator, keys from the tpcw.Session's.
type tpcwClient struct {
	app     *tpcw.App
	browser *tpcw.Session
	mix     tpcw.Workload
	rng     *rand.Rand
}

func newTPCWClient(app *tpcw.App, mix tpcw.Workload, seed int64, session int) *tpcwClient {
	return &tpcwClient{
		app:     app,
		browser: app.NewSession(seed*1000 + int64(session)),
		mix:     mix,
		rng:     rand.New(rand.NewSource(seed*1000 + int64(session) + 500)),
	}
}

func (c *tpcwClient) next() (uint8, int, error) {
	in := tpcw.Pick(c.mix, c.rng)
	n, err := c.app.Run(c.browser, in)
	return uint8(in), n, err
}

// pointGen draws the point workload's ad-hoc statements: 3 in 4 read the
// cached item table, 1 in 4 the uncached customer table, keys Zipf-skewed
// within each table through a seeded permutation (so each seed has its own
// hot set).
type pointGen struct {
	rng              *rand.Rand
	items, customers *rand.Zipf
	itemIDs, custIDs []int
}

// pointZipfS is the Zipf exponent: a few hundred hot keys take most draws,
// while the tail touches well over the 512 keys the engine's autoparam and
// imcache-candidate tables hold.
const pointZipfS = 1.1

func newPointGen(seed int64, session int, cfg tpcw.Config) *pointGen {
	// The permutation depends on the seed alone: every session shares one
	// hot set, as real users of one shop do.
	keys := rand.New(rand.NewSource(seed))
	rng := rand.New(rand.NewSource(seed*1000 + int64(session) + 900))
	perm := func(n int) []int {
		ids := keys.Perm(n)
		for i := range ids {
			ids[i]++
		}
		return ids
	}
	g := &pointGen{rng: rng, itemIDs: perm(cfg.Items), custIDs: perm(cfg.Customers)}
	g.items = rand.NewZipf(rng, pointZipfS, 1, uint64(cfg.Items-1))
	g.customers = rand.NewZipf(rng, pointZipfS, 1, uint64(cfg.Customers-1))
	return g
}

func (g *pointGen) next() string {
	if g.rng.Intn(4) < 3 {
		return fmt.Sprintf("SELECT i_title, i_cost, i_stock FROM item WHERE i_id = %d", g.itemIDs[g.items.Uint64()])
	}
	return fmt.Sprintf("SELECT c_uname, c_fname, c_lname FROM customer WHERE c_id = %d", g.custIDs[g.customers.Uint64()])
}

// pointClient issues one generated statement per interaction.
type pointClient struct {
	conn *core.Conn
	gen  *pointGen
}

func (c *pointClient) next() (uint8, int, error) {
	res, err := c.conn.Exec(c.gen.next(), nil)
	if err == nil && len(res.Rows) != 1 {
		err = fmt.Errorf("point read returned %d rows, want 1", len(res.Rows))
	}
	return pointLabel, 1, err
}

// worker drives one client in a closed loop (zero think time) until the
// measurement window ends, keeping the samples that start inside it.
func worker(c client, clk *clock, firstErr *atomic.Value) []sample {
	var out []sample
	for {
		t0 := time.Now()
		if clk.over(t0) {
			return out
		}
		label, calls, err := c.next()
		d := time.Since(t0)
		if err != nil {
			firstErr.CompareAndSwap(nil, err)
		}
		if off, in := clk.offset(t0); in {
			out = append(out, sample{at: off, dur: d, label: label, calls: calls, ok: err == nil})
		}
	}
}

// probeResult is the freshness probe's record over the measurement window.
type probeResult struct {
	rounds, stale, errors int
	lag                   []time.Duration // commit ack -> cache applied LSN
	pings                 []time.Duration // AppliedLSN round trips
	err                   error
}

// probeInterval paces the freshness probe. It is not a multiple of
// pullInterval, so probe writes land at every phase of the pull cycle.
const probeInterval = 20 * time.Millisecond

// probe writes a strictly increasing value through its router session,
// polls the cache's applied LSN until it covers the commit (the replication
// lag), then reads the row back through the session and demands the read
// covers the write (read-your-writes). The read carries a loose freshness
// bound: it is still answered from the cache's replicated view, but bounded
// reads are never admitted to the intermediate-result cache nor planned
// through the plan cache, so the probe leaves both undisturbed.
func probe(m *meteredConn, cacheCli *wire.Client, clk *clock) probeResult {
	var r probeResult
	conn := m.conn()
	for v := int64(1); ; v++ {
		t0 := time.Now()
		if clk.over(t0) {
			return r
		}
		_, in := clk.offset(t0)
		err := r.round(conn, cacheCli, v, in)
		if in {
			r.rounds++
		}
		if err != nil {
			if r.err == nil {
				r.err = err
			}
			if in {
				r.errors++
			}
		}
		if d := probeInterval - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
	}
}

// round is one probe write, lag wait and read-back.
func (r *probeResult) round(conn *core.Conn, cacheCli *wire.Client, v int64, in bool) error {
	res, err := conn.Exec(fmt.Sprintf("UPDATE bench_probe SET v = %d WHERE id = 1", v), nil)
	if err != nil {
		return err
	}
	if res.CommitLSN == 0 {
		return fmt.Errorf("probe write returned no commit LSN")
	}
	ack := time.Now()
	for {
		p0 := time.Now()
		applied, err := cacheCli.AppliedLSN()
		if err != nil {
			return err
		}
		if in {
			r.pings = append(r.pings, time.Since(p0))
		}
		if applied >= res.CommitLSN {
			break
		}
		if time.Since(ack) > 10*time.Second {
			return fmt.Errorf("cache did not apply LSN %d within 10s", res.CommitLSN)
		}
		time.Sleep(time.Millisecond)
	}
	if in {
		r.lag = append(r.lag, time.Since(ack))
	}
	got, err := conn.Exec("SELECT v FROM bench_probe WHERE id = 1 WITH FRESHNESS 3600", nil)
	if err != nil {
		return err
	}
	if in && (len(got.Rows) != 1 || got.Rows[0][0].Int() < v) {
		r.stale++
	}
	return nil
}
