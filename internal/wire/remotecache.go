package wire

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/core"
	"mtcache/internal/engine"
	"mtcache/internal/metrics"
	"mtcache/internal/opt"
	"mtcache/internal/querystore"
	"mtcache/internal/repl"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// RemoteCache is an MTCache server connected to its backend over TCP. It
// mirrors core.CacheServer but uses pull subscriptions: a local distribution
// agent periodically pulls committed transactions and applies them.
//
// The agent is fault-tolerant: a failed pull leaves the subscription's
// batches queued on the backend (they are only deleted once acknowledged by
// a later pull), a failing subscription does not block the others, and
// batches are applied exactly once and in LSN order — each subscription
// tracks the last applied LSN and skips re-delivered batches.
type RemoteCache struct {
	DB     *engine.Database
	client BackendClient
	reg    *metrics.Registry

	// pullMu serializes whole pull-and-apply rounds. With a multiplexed
	// transport a manual Pull can genuinely overlap the background agent's
	// round; overlapping rounds would read the same lastLSN and apply the
	// same batch twice.
	pullMu sync.Mutex

	mu     sync.Mutex
	pulls  []pullSub
	stopCh chan struct{}
	wg     sync.WaitGroup

	// Durable-cache state (nil/empty for a purely in-memory cache). recovered
	// holds the loaded checkpoint's per-view state until the view's
	// provisioning hook consumes it: a view found there resumes its
	// subscription at the checkpointed LSN instead of reseeding.
	dataDir   string
	recovered map[string]*cacheViewState
}

type pullSub struct {
	subID    int
	view     string
	lastPull time.Time
	lastLSN  storage.LSN // highest LSN applied; pulls ack and dedup with it
	// through is the LSN this subscription's view is known current through:
	// lastLSN plus the pull responses' ThroughLSN, which also advances past
	// commits that never touch the view. Without it, a cache's applied
	// position would stall at the last write that happened to hit one of its
	// views, wedging every session gated on a later watermark.
	through storage.LSN
}

// NewRemoteCache dials nothing itself: pass a connected BackendClient (a
// bare *Client, or a *ResilientClient for retry/backoff/re-dial). It
// performs the shadow setup over the wire and registers the cached-view
// hook.
func NewRemoteCache(name string, client BackendClient, options *opt.Options) (*RemoteCache, error) {
	return newRemoteCache(name, client, options, "")
}

// NewRemoteCacheDurable is NewRemoteCache plus a data directory the cache
// checkpoints its state to (see Checkpoint). When the directory already
// holds a checkpoint from a previous run, cached views re-created with the
// same definitions restore their rows from it and resume their change
// streams at the checkpointed LSN — no reseed over the wire — as long as the
// backend still retains that log position.
func NewRemoteCacheDurable(name string, client BackendClient, options *opt.Options, dataDir string) (*RemoteCache, error) {
	return newRemoteCache(name, client, options, dataDir)
}

func newRemoteCache(name string, client BackendClient, options *opt.Options, dataDir string) (*RemoteCache, error) {
	db := engine.New(engine.Config{Name: name, Role: engine.Cache, Remote: client, Options: options})
	rc := &RemoteCache{DB: db, client: client, reg: metrics.Default, dataDir: dataDir}
	if dataDir != "" {
		ck, err := loadCacheCheckpoint(dataDir)
		if err != nil {
			// A damaged checkpoint costs a reseed, never correctness: the
			// backend is the source of truth.
			metrics.Default.Counter("wire.cache_ckpt_errors").Add(1)
		} else if ck != nil {
			rc.recovered = make(map[string]*cacheViewState, len(ck.Views))
			for i := range ck.Views {
				v := &ck.Views[i]
				rc.recovered[strings.ToLower(v.Name)] = v
			}
		}
	}
	data, err := client.Snapshot()
	if err != nil {
		return nil, err
	}
	snap, err := catalog.DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	if err := core.ImportSnapshotInto(db, snap); err != nil {
		return nil, err
	}
	db.OnCachedViewCreate(rc.provision)
	// Session gate: MinLSN-gated requests wait for replication to reach the
	// session's watermark (kicking pulls) instead of serving stale rows.
	db.SetSessionGate(rc.WaitApplied)
	db.SetStalenessProbe(func(view string) (float64, bool) {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		for _, p := range rc.pulls {
			if strings.EqualFold(p.view, view) {
				if p.lastPull.IsZero() {
					return 0, false
				}
				return time.Since(p.lastPull).Seconds(), true
			}
		}
		return 0, false
	})
	// Cache-side sys.repl_status: one row per pull subscription.
	_ = db.RegisterVirtualTable("sys.repl_status", engine.ReplStatusColumns(), func() []types.Row {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		rows := make([]types.Row, 0, len(rc.pulls))
		for _, p := range rc.pulls {
			stale := -1.0
			if !p.lastPull.IsZero() {
				stale = time.Since(p.lastPull).Seconds()
			}
			rows = append(rows, types.Row{
				types.NewString(p.view),
				types.NewString(fmt.Sprintf("pull sub %d", p.subID)),
				types.NewInt(0), // pending batches are queued backend-side
				types.NewInt(0),
				types.NewString(""),
				types.NewInt(int64(p.lastLSN)),
				types.NewFloat(stale),
			})
		}
		return rows
	})
	return rc, nil
}

// viewSource extracts the (table, columns, filter) a cached view publishes
// over, shared by the provision and resume paths.
func viewSource(view *catalog.Table) (table string, cols []string, filter string, err error) {
	def := view.ViewDef
	if len(def.From) != 1 {
		return "", nil, "", fmt.Errorf("wire: cached views must be select-project over one table")
	}
	tn, ok := def.From[0].(*sql.TableName)
	if !ok {
		return "", nil, "", fmt.Errorf("wire: cached view source must be a table or materialized view")
	}
	for _, item := range def.Columns {
		if item.Star {
			cols = nil
			break
		}
		ref, ok := item.Expr.(*sql.ColumnRef)
		if !ok {
			return "", nil, "", fmt.Errorf("wire: cached views may project only plain columns")
		}
		cols = append(cols, ref.Name)
	}
	if def.Where != nil {
		filter = sql.DeparseExpr(def.Where)
	}
	return tn.Name, cols, filter, nil
}

func (rc *RemoteCache) provision(view *catalog.Table) error {
	table, cols, filter, err := viewSource(view)
	if err != nil {
		return err
	}
	subName := rc.DB.Name + "." + view.Name

	// A view present in the loaded checkpoint tries to resume its change
	// stream at the checkpointed position before falling back to a reseed.
	// Resume is attempted before any population: on a miss there is nothing
	// to undo.
	if st, ok := rc.recovered[strings.ToLower(view.Name)]; ok {
		delete(rc.recovered, strings.ToLower(view.Name))
		subID, resumed, rerr := rc.client.Resume(table, cols, filter, subName, st.LastLSN+1)
		if rerr == nil && resumed {
			if err := rc.populate(view.Name, st.Rows); err != nil {
				return err
			}
			rc.reg.Counter("wire.view_resumed").Add(1)
			querystore.Emit("view_resumed", "view", view.Name, "lsn", fmt.Sprint(st.LastLSN))
			rc.mu.Lock()
			rc.pulls = append(rc.pulls, pullSub{subID: subID, view: view.Name, lastPull: time.Now(), lastLSN: st.LastLSN, through: st.LastLSN})
			rc.mu.Unlock()
			return nil
		}
		if rerr != nil {
			return rerr
		}
		// resumed == false: the backend cannot serve the checkpointed
		// position anymore; fall through to a fresh snapshot.
	}

	subID, startLSN, rows, err := rc.client.Provision(table, cols, filter, subName)
	if err != nil {
		return err
	}
	if err := rc.populate(view.Name, rows); err != nil {
		return err
	}
	rc.reg.Counter("wire.view_seeded").Add(1)
	querystore.Emit("view_seeded", "view", view.Name, "rows", fmt.Sprint(len(rows)))
	rc.mu.Lock()
	// startLSN is the first LSN the change stream will produce; lastLSN holds
	// the highest LSN already applied, so seed it one below the stream start.
	rc.pulls = append(rc.pulls, pullSub{subID: subID, view: view.Name, lastPull: time.Now(), lastLSN: startLSN - 1, through: startLSN - 1})
	rc.mu.Unlock()
	return nil
}

// populate bulk-inserts a view's initial rows (from a backend snapshot or a
// local checkpoint) and refreshes its statistics.
func (rc *RemoteCache) populate(view string, rows []types.Row) error {
	tx := rc.DB.Store().Begin(true)
	for _, row := range rows {
		if _, err := tx.Insert(view, row); err != nil {
			tx.Abort()
			return err
		}
	}
	if err := tx.CommitUnlogged(); err != nil {
		return err
	}
	// Seeding replaces the view's contents; intermediates derived from it
	// are stale.
	rc.DB.InvalidateCachedResults(view)
	return rc.DB.AnalyzeTable(view)
}

// CreateCachedView runs a CREATE CACHED VIEW statement.
func (rc *RemoteCache) CreateCachedView(ddl string) error {
	_, err := rc.DB.Exec(ddl, nil)
	return err
}

// CopyProcedureText installs a procedure from source text.
func (rc *RemoteCache) CopyProcedureText(text string) error {
	return rc.DB.CopyProcedureFrom(text)
}

// Pull performs one pull-and-apply round for every subscription and returns
// the number of transactions applied. A failing subscription is skipped —
// its unacknowledged batches stay queued on the backend and are re-delivered
// next round — and the remaining subscriptions still pull. The first error
// encountered is returned alongside the applied count.
func (rc *RemoteCache) Pull() (int, error) {
	rc.pullMu.Lock()
	defer rc.pullMu.Unlock()
	rc.mu.Lock()
	pulls := append([]pullSub(nil), rc.pulls...)
	rc.mu.Unlock()
	total := 0
	var firstErr error
	pullStart := time.Now()
	defer func() {
		rc.reg.Histogram("repl.pull_seconds").ObserveDuration(time.Since(pullStart))
	}()
	for i, p := range pulls {
		batches, through, err := rc.client.Pull(p.subID, 0, p.lastLSN)
		if err != nil {
			rc.reg.Counter("wire.pull_failures").Add(1)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		applied := p.lastLSN
		applyOK := true
		for _, b := range batches {
			if b.LSN <= applied {
				// Re-delivered batch from a pull whose response was lost —
				// already applied; acknowledging happens on the next pull.
				rc.reg.Counter("wire.pull_redelivered").Add(1)
				continue
			}
			if err := rc.applyBatch(p.view, b); err != nil {
				// Stop this subscription at the failed batch to preserve LSN
				// order; everything unapplied is still queued on the backend.
				rc.reg.Counter("wire.pull_failures").Add(1)
				applyOK = false
				if firstErr == nil {
					firstErr = err
				}
				break
			}
			applied = b.LSN
			total++
		}
		rc.mu.Lock()
		if i < len(rc.pulls) && rc.pulls[i].subID == p.subID {
			rc.pulls[i].lastLSN = applied
			// The view is current through the stream-completeness position
			// only when everything delivered was applied; a failed apply caps
			// it at the last applied batch.
			cur := applied
			if applyOK && through > cur {
				cur = through
			}
			if cur > rc.pulls[i].through {
				rc.pulls[i].through = cur
			}
			rc.pulls[i].lastPull = time.Now()
		}
		rc.mu.Unlock()
	}
	rc.publishLag()
	return total, firstErr
}

// publishLag refreshes the per-view replication-lag gauges: seconds since
// each subscription's last successful pull (how stale the view may be).
func (rc *RemoteCache) publishLag() {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, p := range rc.pulls {
		if p.lastPull.IsZero() {
			continue
		}
		rc.reg.Gauge("repl.lag_seconds." + p.view).Set(time.Since(p.lastPull).Seconds())
	}
}

func (rc *RemoteCache) applyBatch(view string, b repl.TxnBatch) error {
	if len(b.Changes) > 0 && !strings.EqualFold(b.Changes[0].Table, view) {
		// Change records carry the source table name; the target is the view.
		for i := range b.Changes {
			b.Changes[i].Table = view
		}
	}
	return repl.ApplyBatch(rc.DB, view, b)
}

// appliedFloor is the AppliedLSN answer for a cache with no pull
// subscriptions: such a cache holds no replicated data at all, every query
// forwards to the backend, so it is vacuously current at any watermark.
const appliedFloor = storage.LSN(1) << 62

// AppliedLSN reports the LSN this cache's replicated data is current
// through: the floor across its pull subscriptions' completeness positions.
// A session whose last write committed at or below this value reads its own
// writes from this cache.
func (rc *RemoteCache) AppliedLSN() storage.LSN {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	min := appliedFloor
	for _, p := range rc.pulls {
		cur := p.through
		if p.lastLSN > cur {
			cur = p.lastLSN
		}
		if cur < min {
			min = cur
		}
	}
	return min
}

// WaitApplied blocks until the cache has applied min, kicking pull rounds
// instead of waiting for the background agent's next tick, and gives up when
// the budget runs out. It returns the applied position reached and whether
// it satisfies min — the engine's session gate (engine.SetSessionGate).
func (rc *RemoteCache) WaitApplied(min storage.LSN, budget time.Duration) (storage.LSN, bool) {
	if a := rc.AppliedLSN(); a >= min {
		return a, true
	}
	deadline := time.Now().Add(budget)
	for {
		rc.Pull() //nolint:errcheck — a failed kick only delays the recheck
		if a := rc.AppliedLSN(); a >= min {
			return a, true
		}
		if !time.Now().Before(deadline) {
			return rc.AppliedLSN(), false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// LastLSN reports the highest LSN applied for a cached view's subscription
// (0 when the view has no subscription).
func (rc *RemoteCache) LastLSN(view string) storage.LSN {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, p := range rc.pulls {
		if strings.EqualFold(p.view, view) {
			return p.lastLSN
		}
	}
	return 0
}

// Checkpoint writes the cache's durable state file: every subscribed view's
// rows plus the LSN they are current through. It runs under pullMu so no
// pull round is half-applied — the rows and cursors are mutually consistent,
// which is what lets a restart resume the stream at LastLSN+1 with no gap
// and no double-apply. Requires a data directory (NewRemoteCacheDurable).
func (rc *RemoteCache) Checkpoint() error {
	if rc.dataDir == "" {
		return fmt.Errorf("wire: cache has no data directory")
	}
	rc.pullMu.Lock()
	defer rc.pullMu.Unlock()
	start := time.Now()
	rc.mu.Lock()
	pulls := append([]pullSub(nil), rc.pulls...)
	rc.mu.Unlock()

	ck := &cacheCheckpoint{}
	tx := rc.DB.Store().Begin(false)
	for _, p := range pulls {
		tv := tx.Table(p.view)
		if tv == nil {
			continue
		}
		ck.Views = append(ck.Views, cacheViewState{Name: p.view, LastLSN: p.lastLSN, Rows: tv.Rows()})
	}
	tx.Abort()
	if err := writeCacheCheckpoint(rc.dataDir, ck); err != nil {
		return err
	}
	rc.reg.Counter("wire.cache_checkpoints").Add(1)
	querystore.Emit("cache_checkpoint", "views", fmt.Sprint(len(ck.Views)))
	rc.reg.Histogram("wire.cache_checkpoint_seconds").ObserveDuration(time.Since(start))
	return nil
}

// StartPulling launches the background pull agent. The agent survives failed
// pulls: an error leaves the subscription's state untouched (the backend
// re-delivers unacknowledged batches) and the agent simply retries on its
// next tick.
func (rc *RemoteCache) StartPulling(interval time.Duration) {
	rc.mu.Lock()
	if rc.stopCh != nil {
		rc.mu.Unlock()
		return
	}
	rc.stopCh = make(chan struct{})
	stop := rc.stopCh
	rc.mu.Unlock()
	rc.wg.Add(1)
	go func() {
		defer rc.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				rc.Pull() //nolint:errcheck — agent retries next tick
			}
		}
	}()
}

// StopPulling halts the pull agent.
func (rc *RemoteCache) StopPulling() {
	rc.mu.Lock()
	if rc.stopCh == nil {
		rc.mu.Unlock()
		return
	}
	close(rc.stopCh)
	rc.stopCh = nil
	rc.mu.Unlock()
	rc.wg.Wait()
}
