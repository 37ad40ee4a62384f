// Package engine binds the parser, catalog, storage, optimizer and executor
// into a Database: the unit that plays either the backend server or an
// MTCache server. The engine implements:
//
//   - DDL: CREATE TABLE / INDEX / VIEW / MATERIALIZED VIEW / PROCEDURE, DROP;
//   - DML: INSERT / UPDATE / DELETE — executed locally on a backend, and
//     transparently forwarded to the backend on a cache (paper §5: "all
//     insert, delete and update requests against a shadow table are
//     immediately converted to remote ... and forwarded");
//   - queries through the cost-based optimizer with a plan cache — dynamic
//     plans make the cache effective for parameterized queries because one
//     cached plan serves all parameter values (paper §5.1);
//   - stored procedures: run locally when present, transparently forwarded
//     otherwise (paper §5.2);
//   - synchronous maintenance of local materialized views, so backend MVs
//     stay consistent within the updating transaction and their changes are
//     visible to the replication log reader.
package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/exec"
	"mtcache/internal/imcache"
	"mtcache/internal/metrics"
	"mtcache/internal/opt"
	"mtcache/internal/querystore"
	"mtcache/internal/resilience"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/trace"
	"mtcache/internal/types"
)

// Role distinguishes backend databases from mid-tier caches.
type Role uint8

const (
	// Backend holds the authoritative data.
	Backend Role = iota
	// Cache is an MTCache shadow database: empty shadow tables plus cached
	// views maintained by replication.
	Cache
)

// Database is one database server instance (backend or cache).
type Database struct {
	Name string

	cat   *catalog.Catalog
	store *storage.Store
	role  Role
	opts  opt.Options

	// remote is the linked backend server (cache role only).
	remote exec.RemoteClient

	planMu    sync.Mutex
	planCache *planLRU

	// autoMu guards autoCache, the auto-parameterization shape cache
	// (normalized text → parsed statement; see autoparam.go).
	autoMu    sync.Mutex
	autoCache *autoLRU
	autoOff   bool // Config.DisableAutoParam
	rowMode   bool // Config.RowMode: force row-at-a-time execution

	// mvPlans caches compiled matview maintenance plans per view. It is
	// per-database (a *catalog.Table key from one database must never serve
	// another's plan) and cleared by InvalidatePlans so DDL cannot leave
	// stale entries behind.
	mvPlans sync.Map // map[*catalog.Table]*mvPlan

	// imc is the intermediate-result cache (nil when disabled by config);
	// imcOn gates it at runtime so benchmarks can toggle phases. It serves
	// exact-match repeats before planning and never invalidates plans.
	imc   *imcache.Cache
	imcOn atomic.Bool

	// onCachedViewCreate is invoked when CREATE CACHED VIEW runs, so the
	// MTCache layer can provision the replication subscription (paper §4).
	onCachedViewCreate func(view *catalog.Table) error

	// stalenessOf reports a cached view's replication staleness in seconds
	// (wired by the MTCache layer); it backs WITH FRESHNESS queries.
	stalenessOf func(view string) (float64, bool)

	// sessionGate waits (bounded by the budget) until the cache has applied
	// every replicated commit at or below min, reporting the applied LSN it
	// reached and whether the bound was met. Wired by the MTCache layer; it
	// backs ExecSession's read-your-writes guarantee.
	sessionGate func(min storage.LSN, budget time.Duration) (storage.LSN, bool)
}

// Config configures a new Database.
type Config struct {
	Name    string
	Role    Role
	Remote  exec.RemoteClient // backend link; required for Cache role
	Options *opt.Options      // nil = opt.DefaultOptions

	// PlanCacheCap bounds the number of cached plans; LRU eviction beyond
	// it. 0 means defaultPlanCacheCap.
	PlanCacheCap int

	// Durability, when non-nil, backs the store with an on-disk WAL in the
	// given directory (see storage.DurabilityOptions). Only honored by Open;
	// New ignores it because enabling durability can fail.
	Durability *storage.DurabilityOptions

	// DisableAutoParam turns off auto-parameterization of ad-hoc SELECT
	// text: every execution parses its own text and literal-distinct
	// queries optimize separately. Benchmarks use it as the measured
	// "before" of the zero-alloc plan-cache-key work.
	DisableAutoParam bool

	// RowMode forces row-at-a-time Volcano iteration even through
	// operators with a vectorized batch path; the measured baseline of
	// the vectorized-execution benchmarks.
	RowMode bool

	// DisableIMCache turns the intermediate-result cache off entirely
	// (no candidate tracking, no lookups). The default-on cache serves
	// repeated identical SELECTs from materialized results.
	DisableIMCache bool

	// IMCache overrides the intermediate-result cache bounds (nil =
	// imcache defaults: 64 MiB, admit on 2nd execution).
	IMCache *imcache.Options
}

// New creates an empty database.
func New(cfg Config) *Database {
	opts := opt.DefaultOptions()
	if cfg.Options != nil {
		opts = *cfg.Options
	}
	db := &Database{
		Name:      cfg.Name,
		cat:       catalog.New(),
		store:     storage.NewStore(),
		role:      cfg.Role,
		opts:      opts,
		remote:    cfg.Remote,
		planCache: newPlanLRU(cfg.PlanCacheCap),
		autoCache: newAutoLRU(0),
		autoOff:   cfg.DisableAutoParam,
		rowMode:   cfg.RowMode,
	}
	if !cfg.DisableIMCache {
		var imOpts imcache.Options
		if cfg.IMCache != nil {
			imOpts = *cfg.IMCache
		}
		db.imc = imcache.New(imOpts)
		db.imcOn.Store(true)
	}
	db.registerSystemTables()
	return db
}

// Open is New plus durability: when cfg.Durability is set the store's WAL
// becomes a segmented on-disk log (group commit, checkpoints) rooted at
// cfg.Durability.Dir. The caller recreates the schema (DDL is unlogged) and
// then calls Recover to rebuild state from the latest checkpoint plus the
// log tail.
func Open(cfg Config) (*Database, error) {
	db := New(cfg)
	if cfg.Durability != nil {
		if err := db.store.EnableDurability(*cfg.Durability); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Recover rebuilds a durable database's state from its latest checkpoint and
// WAL tail. The schema must already have been recreated. Refreshes optimizer
// statistics for every recovered table.
func (db *Database) Recover() (*storage.RecoveryStats, error) {
	stats, err := db.store.Recover()
	if err != nil {
		return nil, err
	}
	if err := db.Analyze(); err != nil {
		return nil, err
	}
	return stats, nil
}

// Checkpoint snapshots the heap to the durable data directory, bounding both
// recovery replay time and WAL disk growth.
func (db *Database) Checkpoint() (storage.LSN, error) { return db.store.Checkpoint() }

// CloseStore flushes and closes the durable log (no-op for an in-memory
// database).
func (db *Database) CloseStore() error { return db.store.Close() }

// Catalog exposes the catalog (read-mostly; DDL goes through Exec).
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// Store exposes the storage manager (used by replication and tests).
func (db *Database) Store() *storage.Store { return db.store }

// Role returns the database role.
func (db *Database) Role() Role { return db.role }

// SetRemote installs the backend link on a cache.
func (db *Database) SetRemote(rc exec.RemoteClient) { db.remote = rc }

// SetOptions replaces the optimizer options and clears the plan cache.
func (db *Database) SetOptions(o opt.Options) {
	db.opts = o
	db.InvalidatePlans()
}

// Options returns the current optimizer options.
func (db *Database) Options() opt.Options { return db.opts }

// OnCachedViewCreate registers the cached-view provisioning hook.
func (db *Database) OnCachedViewCreate(fn func(view *catalog.Table) error) {
	db.onCachedViewCreate = fn
}

// SetStalenessProbe wires the per-view staleness source used by
// WITH FRESHNESS queries.
func (db *Database) SetStalenessProbe(fn func(view string) (float64, bool)) {
	db.stalenessOf = fn
}

// ErrSessionStale reports that a session-gated statement could not be served
// because the cache has not yet applied the session's watermark LSN within
// the wait budget. The statement did not execute; the caller (typically a
// session router) should retry against the backend, which is always current.
var ErrSessionStale = fmt.Errorf("engine: cache behind session watermark")

// SetSessionGate wires the applied-LSN waiter used by ExecSession (cache
// role; the MTCache layer installs it alongside the staleness probe).
func (db *Database) SetSessionGate(fn func(min storage.LSN, budget time.Duration) (storage.LSN, bool)) {
	db.sessionGate = fn
}

// ExecSession is Exec with a session-consistency precondition: when minLSN
// is nonzero on a cache, the statement runs only after the cache has applied
// every replicated commit at or below minLSN — the session's read-your-writes
// watermark. The gate waits up to the given budget (a pull round is kicked
// while waiting) and fails with ErrSessionStale if the cache is still behind,
// so a stale cache can never time-travel a session that has seen its own
// write acknowledged.
//
// The gate composes with WITH FRESHNESS: the LSN bound is checked first
// (point-in-log consistency for this session), then the statement plans
// normally, including any declared staleness bound (wall-clock freshness for
// everyone). On a backend the gate passes trivially — the backend is the
// source of truth for every LSN it ever issued.
func (db *Database) ExecSession(sqlText string, params exec.Params, minLSN storage.LSN, wait time.Duration) (*Result, error) {
	if minLSN > 0 && db.role == Cache {
		gate := db.sessionGate
		if gate == nil {
			// No applied-LSN source: the cache cannot prove it has caught up,
			// so the only honest answer is "not guaranteed here".
			metrics.Default.Counter("engine.session_gate_stale").Add(1)
			return nil, ErrSessionStale
		}
		if _, ok := gate(minLSN, wait); !ok {
			metrics.Default.Counter("engine.session_gate_stale").Add(1)
			return nil, ErrSessionStale
		}
		metrics.Default.Counter("engine.session_gate_pass").Add(1)
	}
	return db.Exec(sqlText, params)
}

// InvalidatePlans clears the plan cache and the matview maintenance-plan
// cache (after DDL or stats refresh).
func (db *Database) InvalidatePlans() {
	db.planMu.Lock()
	db.planCache.clear()
	db.planMu.Unlock()
	db.autoMu.Lock()
	db.autoCache.clear()
	db.autoMu.Unlock()
	db.mvPlans.Range(func(k, _ any) bool {
		db.mvPlans.Delete(k)
		return true
	})
}

// mvPlanCacheSize reports the number of cached matview maintenance plans
// (including negative entries); used by tests.
func (db *Database) mvPlanCacheSize() int {
	n := 0
	db.mvPlans.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

func (db *Database) env() *opt.Env {
	return &opt.Env{Cat: db.cat, IsCache: db.role == Cache, Opts: db.opts, Staleness: db.stalenessOf}
}

// Result is the outcome of one statement.
type Result struct {
	// Set for queries.
	Cols []exec.ColInfo
	Rows []types.Row

	// Set for DML.
	RowsAffected int64

	// CommitLSN is the WAL position of the commit this statement performed
	// (0 for reads, DDL and unlogged operations). On a backend it is the
	// local commit's LSN; on a cache it is the backend commit LSN carried
	// back in the forwarded update's acknowledgement, when the backend link
	// supports it (exec.LSNExecer). Session routers use it as the session's
	// read-your-writes high-water mark.
	CommitLSN storage.LSN

	// SnapshotLSN is the MVCC position a query's rows were read at — the
	// store's durable LSN when the read transaction began. The
	// intermediate-result cache records it as the lineage watermark of a
	// materialized result.
	SnapshotLSN storage.LSN

	// Executor work counters (local to this server).
	Counters exec.Counters

	// TraceID identifies the trace recorded for this statement ("" when the
	// statement ran untraced).
	TraceID string
}

// Exec parses and executes one SQL statement (query, DML or DDL). The
// statement is traced; the finished trace lands in trace.Traces.
func (db *Database) Exec(sqlText string, params exec.Params) (*Result, error) {
	res, _, err := db.ExecTraced(sqlText, params, "")
	return res, err
}

// ExecTraced executes one statement under a trace. An empty traceID starts a
// fresh trace; a non-empty one (arriving in a wire frame) joins the caller's
// trace so backend-side spans stitch under the cache-side DataTransfer span.
// The returned trace is always non-nil and finished.
func (db *Database) ExecTraced(sqlText string, params exec.Params, traceID string) (*Result, *trace.Trace, error) {
	tr := trace.New(traceID, db.Name+".exec")
	tr.Root.Attr("sql", sqlText)
	// Auto-parameterization fast path: shape-identical SELECTs share one
	// parsed statement (and through it one cached plan), skipping the
	// parse entirely. Ineligible text falls through to the parser below.
	if stmt, autoArgs, norm, ok := db.autoParse(sqlText); ok {
		tr.Root.Attr("autoparam", "1")
		res, err := db.querySpan(stmt, params, autoArgs, tr.Root)
		normPool.Put(norm)
		tr.Finish()
		trace.Traces.Add(tr)
		if res != nil {
			res.TraceID = tr.ID
		}
		return res, tr, err
	}
	sp := tr.Root.Child("parse")
	stmt, err := sql.Parse(sqlText)
	sp.End()
	metrics.Default.Histogram("engine.parse_seconds").ObserveDuration(sp.Duration())
	if err != nil {
		tr.Finish()
		trace.Traces.Add(tr)
		return nil, tr, err
	}
	res, err := db.execStmtSpan(stmt, params, tr.Root)
	tr.Finish()
	trace.Traces.Add(tr)
	if res != nil {
		res.TraceID = tr.ID
	}
	return res, tr, err
}

// ExecScript executes a multi-statement script, stopping on the first error.
func (db *Database) ExecScript(script string) error {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if _, err := db.ExecStmt(s, nil); err != nil {
			return fmt.Errorf("engine: %s: %w", sql.Deparse(s), err)
		}
	}
	return nil
}

// ExecStmt executes a parsed statement.
func (db *Database) ExecStmt(stmt sql.Statement, params exec.Params) (*Result, error) {
	return db.execStmtSpan(stmt, params, nil)
}

// execStmtSpan executes a parsed statement, hanging stage spans off span
// (nil disables tracing).
func (db *Database) execStmtSpan(stmt sql.Statement, params exec.Params, span *trace.Span) (*Result, error) {
	switch x := stmt.(type) {
	case *sql.SelectStmt:
		return db.querySpan(x, params, nil, span)
	case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		return db.execDML(stmt, params)
	case *sql.CreateTableStmt:
		return db.execCreateTable(x)
	case *sql.CreateIndexStmt:
		return db.execCreateIndex(x)
	case *sql.CreateViewStmt:
		return db.execCreateView(x)
	case *sql.CreateProcStmt:
		return db.execCreateProc(x, sql.Deparse(x))
	case *sql.ExecStmt:
		return db.execProcCall(x, params)
	case *sql.DropStmt:
		return db.execDrop(x)
	case *sql.ExplainStmt:
		return db.execExplain(x, params, span)
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

// Query plans (with caching) and runs a SELECT. Queries carrying a
// WITH FRESHNESS clause are planned per execution against the views'
// current staleness, so they bypass the plan cache.
//
// On a cache whose backend link has failed, queries without a freshness
// bound degrade gracefully: the query is re-planned onto local (possibly
// stale) cached views and answered from them. A WITH FRESHNESS query never
// degrades — the user asked for a bound the cache can no longer guarantee,
// so it fails fast with the transport error instead.
func (db *Database) Query(stmt *sql.SelectStmt, params exec.Params) (*Result, error) {
	return db.querySpan(stmt, params, nil, nil)
}

// querySpan runs one SELECT. autoArgs, when non-nil, holds the literal
// values the auto-parameterization front door extracted from the original
// text, bound positionally to the plan's @__pN parameters.
func (db *Database) querySpan(stmt *sql.SelectStmt, params exec.Params, autoArgs []types.Value, span *trace.Span) (*Result, error) {
	// Query-store accounting is keyed by the normalized statement text (the
	// plan-cache key). When the store is disabled the shape stays "" and
	// every hook below is a no-op.
	qs := querystore.Default
	var shape string
	if qs.Enabled() {
		shape = stmt.CacheKey()
	}
	// Intermediate-result exact-match fast path: a repeated statement with
	// identical bound values is answered straight from the materialized
	// result — no planning, no execution. Ordinary queries demand a fresh
	// entry; WITH FRESHNESS accepts one stale up to the declared bound.
	imc := db.imcacheIfEnabled()
	var imkey string
	var imEpoch uint64
	if imc != nil {
		imEpoch = imc.Epoch() // before the snapshot below is taken
		istart := time.Now()
		maxStale, boundOK := time.Duration(0), true
		if stmt.Freshness != nil {
			if bound, err := db.freshnessBound(stmt, params); err == nil {
				maxStale = time.Duration(bound * float64(time.Second))
			} else {
				boundOK = false // let the planner surface the error
			}
		}
		if boundOK {
			if stmt.Freshness == nil {
				imkey = imKey(stmt.CacheKey(), params, autoArgs)
			} else {
				imkey = db.imFreshnessKey(stmt, params)
			}
			if hit, found := imc.Lookup(imkey, time.Now(), maxStale); found {
				span.Child("imcache_hit").End()
				res := &Result{Cols: hit.Cols, Rows: hit.Rows, SnapshotLSN: storage.LSN(hit.LSN)}
				if shape != "" {
					qs.Record(querystore.Exec{
						Shape: shape, Variant: "imcache", Duration: time.Since(istart),
						Rows: int64(len(res.Rows)), PlanCacheHit: true,
						Staleness: hit.Staleness.Seconds(), TraceID: span.TraceID(),
					})
				}
				return res, nil
			}
		}
	}
	osp := span.Child("optimize")
	start := time.Now()
	var plan *opt.Plan
	var err error
	var hit bool
	if stmt.Freshness != nil {
		// Freshness-bounded queries are planned per execution against the
		// views' current staleness, bypassing the plan cache.
		plan, err = db.planWithFreshness(stmt, params)
	} else {
		plan, hit, err = db.planCached(stmt)
		if err == nil {
			osp.Attr("plan_cache", map[bool]string{true: "hit", false: "miss"}[hit])
		}
	}
	osp.End()
	metrics.Default.Histogram("engine.optimize_seconds").ObserveDuration(time.Since(start))
	if err != nil {
		return nil, err
	}
	variant := ""
	if shape != "" {
		variant = planVariant(plan)
		if !hit {
			// Rendering the plan costs once per cached plan, not per run.
			qs.NotePlan(shape, variant, opt.Explain(plan))
		}
	}
	qstart := time.Now()
	res, err := db.runPlanCaptured(plan, params, autoArgs, span, shape, variant)
	if err != nil && stmt.Freshness == nil && db.role == Cache && resilience.Degradable(err) {
		if lres, lerr := db.queryLocalOnly(stmt, params, autoArgs); lerr == nil {
			if shape != "" {
				e := querystore.Exec{
					Shape: shape, Variant: "degraded-local", Duration: time.Since(qstart),
					Rows: int64(len(lres.Rows)), Degraded: true,
					Staleness: db.servedStaleness(plan), TraceID: span.TraceID(),
				}
				qs.Record(e)
			}
			return lres, nil
		}
		// fall through to record the original failure
	}
	if shape != "" {
		e := querystore.Exec{
			Shape: shape, Variant: variant, Duration: time.Since(qstart),
			PlanCacheHit: hit, Staleness: db.servedStaleness(plan),
			Err: err, TraceID: span.TraceID(),
		}
		if res != nil {
			e.Rows = int64(len(res.Rows))
			e.RemoteQueries = res.Counters.RemoteQueries
			e.RowsRemote = res.Counters.RowsRemote
		}
		qs.Record(e)
	}
	// Feed the intermediate cache. Freshness-bounded executions are not
	// observed: their plan may have read bounded-stale views, so the rows
	// are not a fresh materialization of the statement.
	if imc != nil && imkey != "" && err == nil && stmt.Freshness == nil {
		db.imObserve(imc, imkey, imEpoch, imShape(stmt), stmt, autoArgs, plan, res, time.Since(qstart))
	}
	return res, err
}

// queryLocalOnly answers a query from cached views alone (the degraded,
// backend-down path).
func (db *Database) queryLocalOnly(stmt *sql.SelectStmt, params exec.Params, autoArgs []types.Value) (*Result, error) {
	plan, err := opt.OptimizeLocalOnly(stmt, db.env())
	if err != nil {
		return nil, err
	}
	res, err := db.runPlanSpan(plan, params, autoArgs, nil)
	if err != nil {
		return nil, err
	}
	metrics.Default.Counter("engine.degraded_stale").Add(1)
	return res, nil
}

// runPlanCaptured is runPlanSpan plus slow-query capture: when the query
// store armed this shape (a prior run exceeded the slow threshold), the
// plan runs under exec.Instrument and the resulting EXPLAIN ANALYZE tree
// is retained for sys.query_plans / \slow. Instrumented wrappers pass rows
// through unchanged, so the client sees the identical result.
func (db *Database) runPlanCaptured(plan *opt.Plan, params exec.Params, autoArgs []types.Value, span *trace.Span, shape, variant string) (*Result, error) {
	if shape == "" || !querystore.Default.WantCapture(shape) {
		return db.runPlanSpan(plan, params, autoArgs, span)
	}
	esp := span.Child("execute")
	start := time.Now()
	tx := db.store.Begin(false)
	defer tx.Abort()
	res := &Result{}
	ctx := &exec.Ctx{
		Txn: tx, Remote: db.remote, Counters: &res.Counters,
		Span: esp, TraceID: esp.TraceID(), EstRows: plan.Card, RowMode: db.rowMode,
	}
	bindParams(plan, params, autoArgs, ctx)
	root := exec.Instrument(exec.CloneOperator(plan.Root))
	rs, err := exec.Run(root, ctx)
	total := time.Since(start)
	esp.End()
	metrics.Default.Histogram("engine.execute_seconds").ObserveDuration(total)
	if err != nil {
		return nil, err
	}
	querystore.Default.StoreAnalyzed(shape, variant, opt.ExplainAnalyze(plan, root, total), formatLiterals(autoArgs))
	res.Cols = rs.Cols
	res.Rows = rs.Rows
	res.SnapshotLSN = tx.AsOfLSN()
	return res, nil
}

// freshnessBound evaluates the query's WITH FRESHNESS expression to its
// bound in seconds.
func (db *Database) freshnessBound(stmt *sql.SelectStmt, params exec.Params) (float64, error) {
	bound, err := opt.CompileScalar(stmt.Freshness, nil)
	if err != nil {
		return 0, fmt.Errorf("engine: WITH FRESHNESS: %w", err)
	}
	v, err := bound.Eval(nil, &exec.Env{Named: params})
	if err != nil {
		return 0, fmt.Errorf("engine: WITH FRESHNESS: %w", err)
	}
	if v.IsNull() || v.Float() < 0 {
		return 0, fmt.Errorf("engine: WITH FRESHNESS requires a non-negative number of seconds")
	}
	return v.Float(), nil
}

// planWithFreshness optimizes under the query's declared staleness bound.
func (db *Database) planWithFreshness(stmt *sql.SelectStmt, params exec.Params) (*opt.Plan, error) {
	bound, err := db.freshnessBound(stmt, params)
	if err != nil {
		return nil, err
	}
	env := db.env()
	env.HasFreshness = true
	env.MaxStaleness = bound
	return opt.Optimize(stmt, env)
}

// Plan returns the (possibly cached) plan for a SELECT. The cache key is the
// deparsed text, so the same parameterized statement reuses its dynamic plan
// instead of reoptimizing (paper §5.1: dynamic plans "avoid the need for
// frequent reoptimization").
func (db *Database) Plan(stmt *sql.SelectStmt) (*opt.Plan, error) {
	p, _, err := db.planCached(stmt)
	return p, err
}

// planCached is Plan plus a cache-hit indicator, feeding the
// engine.plan_cache_hits / engine.plan_cache_misses counters.
func (db *Database) planCached(stmt *sql.SelectStmt) (*opt.Plan, bool, error) {
	// CacheKey memoizes the deparsed text on the statement, so repeated
	// executions of a prepared statement skip the deparse entirely.
	key := stmt.CacheKey()
	db.planMu.Lock()
	if p, ok := db.planCache.get(key); ok {
		db.planMu.Unlock()
		metrics.Default.Counter("engine.plan_cache_hits").Add(1)
		return p, true, nil
	}
	gen := db.planCache.gen
	db.planMu.Unlock()
	metrics.Default.Counter("engine.plan_cache_misses").Add(1)
	p, err := opt.Optimize(stmt, db.env())
	if err != nil {
		return nil, false, err
	}
	db.planMu.Lock()
	// Optimization ran outside the lock; if InvalidatePlans fired in
	// between (DDL or a stats refresh), this plan may reference state that
	// no longer exists — run it once but do not cache it.
	if db.planCache.gen == gen {
		db.planCache.put(key, p)
	}
	db.planMu.Unlock()
	return p, false, nil
}

// PlanCacheSize reports the number of cached plans.
func (db *Database) PlanCacheSize() int {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	return db.planCache.len()
}

// RunPlan executes a previously produced plan. The operator tree is cloned
// per execution: cached plans are shared across sessions, and operators
// carry per-run state (cursors, hash tables).
func (db *Database) RunPlan(plan *opt.Plan, params exec.Params) (*Result, error) {
	return db.runPlanSpan(plan, params, nil, nil)
}

func (db *Database) runPlanSpan(plan *opt.Plan, params exec.Params, autoArgs []types.Value, span *trace.Span) (*Result, error) {
	esp := span.Child("execute")
	start := time.Now()
	tx := db.store.Begin(false)
	defer tx.Abort()
	res := &Result{}
	ctx := &exec.Ctx{
		Txn: tx, Remote: db.remote, Counters: &res.Counters,
		Span: esp, TraceID: esp.TraceID(), EstRows: plan.Card, RowMode: db.rowMode,
	}
	bindParams(plan, params, autoArgs, ctx)
	rs, err := exec.Run(exec.CloneOperator(plan.Root), ctx)
	esp.End()
	metrics.Default.Histogram("engine.execute_seconds").ObserveDuration(time.Since(start))
	if err != nil {
		return nil, err
	}
	res.Cols = rs.Cols
	res.Rows = rs.Rows
	res.SnapshotLSN = tx.AsOfLSN()
	return res, nil
}

// Explain returns the optimizer's plan description for a query.
func (db *Database) Explain(query string) (string, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return "", err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok {
		return "", fmt.Errorf("engine: EXPLAIN supports only SELECT")
	}
	p, err := opt.Optimize(sel, db.env())
	if err != nil {
		return "", err
	}
	return opt.Explain(p), nil
}

// execExplain implements EXPLAIN [ANALYZE] <select>. Plain EXPLAIN renders
// the optimized plan. ANALYZE additionally executes a private instrumented
// clone (its result rows are discarded) and renders per-operator rows,
// timings and which ChoosePlan branch fired. The rendered text comes back as
// a one-column result set, one row per line, so it flows through the wire
// protocol and the shell like any query result.
func (db *Database) execExplain(x *sql.ExplainStmt, params exec.Params, span *trace.Span) (*Result, error) {
	sel, ok := x.Stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: EXPLAIN supports only SELECT")
	}
	var plan *opt.Plan
	var err error
	if sel.Freshness != nil {
		plan, err = db.planWithFreshness(sel, params)
	} else {
		plan, _, err = db.planCached(sel)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Cols: []exec.ColInfo{{Name: "plan", Kind: types.KindString}}}
	var text string
	if x.Analyze {
		root := exec.Instrument(exec.CloneOperator(plan.Root))
		esp := span.Child("execute")
		tx := db.store.Begin(false)
		ctx := &exec.Ctx{
			Txn: tx, Remote: db.remote, Counters: &res.Counters,
			Span: esp, TraceID: esp.TraceID(), EstRows: plan.Card, RowMode: db.rowMode,
		}
		bindParams(plan, params, nil, ctx)
		start := time.Now()
		_, runErr := exec.Run(root, ctx)
		total := time.Since(start)
		tx.Abort()
		esp.End()
		if runErr != nil {
			return nil, runErr
		}
		text = opt.ExplainAnalyze(plan, root, total)
	} else {
		text = opt.Explain(plan)
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, types.Row{types.NewString(line)})
	}
	return res, nil
}

// AnalyzeTable recomputes optimizer statistics for one table from its
// current contents.
func (db *Database) AnalyzeTable(name string) error {
	t := db.cat.Table(name)
	if t == nil {
		return fmt.Errorf("engine: table %s does not exist", name)
	}
	tx := db.store.Begin(false)
	td := tx.Table(name)
	if td == nil {
		tx.Abort()
		return fmt.Errorf("engine: no storage for %s", name)
	}
	rows := td.Rows()
	tx.Abort()
	t.Stats = catalog.BuildTableStats(t.ColumnNames(), rows)
	db.InvalidatePlans()
	return nil
}

// Analyze refreshes statistics for every stored table.
func (db *Database) Analyze() error {
	for _, t := range db.cat.Tables() {
		if t.IsView && !t.Materialized {
			continue
		}
		if db.store.Table(t.Name) == nil {
			continue
		}
		if err := db.AnalyzeTable(t.Name); err != nil {
			return err
		}
	}
	return nil
}

// BulkLoad inserts rows directly into a table in one unlogged transaction.
// It is the data-loading path: initial populations are not replicated (the
// replication snapshot covers them), and bypassing SQL parsing makes
// benchmark-scale loads fast. Values are cast to the column types.
func (db *Database) BulkLoad(table string, rows []types.Row) error {
	t := db.cat.Table(table)
	if t == nil {
		return fmt.Errorf("engine: table %s does not exist", table)
	}
	tx := db.store.Begin(true)
	for _, row := range rows {
		if len(row) != len(t.Columns) {
			tx.Abort()
			return fmt.Errorf("engine: %s: row width %d != %d columns", table, len(row), len(t.Columns))
		}
		cast := make(types.Row, len(row))
		for i, v := range row {
			cv, err := v.Cast(t.Columns[i].Type)
			if err != nil {
				tx.Abort()
				return fmt.Errorf("engine: %s column %s: %w", table, t.Columns[i].Name, err)
			}
			cast[i] = cv
		}
		if _, err := tx.Insert(table, cast); err != nil {
			tx.Abort()
			return err
		}
		if err := db.maintainViews(tx, t, storage.OpInsert, nil, cast); err != nil {
			tx.Abort()
			return err
		}
	}
	if err := tx.CommitUnlogged(); err != nil {
		return err
	}
	db.InvalidateCachedResults(table)
	return nil
}

// TableRowCount returns the stored row count (0 if no storage).
func (db *Database) TableRowCount(name string) int {
	tx := db.store.Begin(false)
	defer tx.Abort()
	td := tx.Table(name)
	if td == nil {
		return 0
	}
	return td.Count()
}

// strEqualFold is a tiny helper used across the engine.
func strEqualFold(a, b string) bool { return strings.EqualFold(a, b) }
