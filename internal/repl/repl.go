// Package repl implements transactional replication in the style of SQL
// Server (paper §2.2): a publish–subscribe pipeline where
//
//   - a publisher defines articles — select-project expressions over a table
//     or materialized view;
//   - a log reader agent collects committed changes by sniffing the
//     publisher's transaction log (our storage WAL) and inserts them into a
//     distribution database;
//   - per-subscription distribution agents wake up periodically and apply
//     pending transactions to subscribers one complete committed transaction
//     at a time, in commit order — so a subscriber always sees a
//     transactionally consistent (if slightly stale) state;
//   - changes are deleted from the distribution database once every
//     subscriber has received them (WAL truncation).
//
// Agents can run as background goroutines with a poll interval (the paper's
// "separate agent process that wakes up periodically") or be stepped
// manually for deterministic tests.
package repl

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"sync"
	"time"

	"mtcache/internal/catalog"
	"mtcache/internal/engine"
	"mtcache/internal/exec"
	"mtcache/internal/metrics"
	"mtcache/internal/opt"
	"mtcache/internal/sql"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// Article is a select-project publication unit over one source table or
// materialized view.
type Article struct {
	Name    string
	Table   string   // source table/MV name on the publisher
	Columns []string // projected source columns (nil = all, in table order)
	Filter  sql.Expr // row filter over source columns (nil = all rows)

	source *catalog.Table
	pred   exec.Expr // compiled Filter
	ords   []int     // source ordinals of the projected columns
}

// project maps a source row to an article row.
func (a *Article) project(row types.Row) types.Row {
	out := make(types.Row, len(a.ords))
	for i, ord := range a.ords {
		out[i] = row[ord]
	}
	return out
}

func (a *Article) matches(row types.Row) (bool, error) {
	if a.pred == nil {
		return true, nil
	}
	return exec.EvalBool(a.pred, row, nil)
}

// Subscription routes one article to one target table on a subscriber.
type Subscription struct {
	Name        string
	Article     *Article
	Target      *engine.Database
	TargetTable string

	mu      sync.Mutex
	queue   []queuedTxn // the distribution database's pending transactions
	nextLSN storage.LSN // first LSN not yet enqueued for this subscription

	// currentAsOf is the moment the target is known to reflect: set to the
	// snapshot time at subscription, and advanced to the log reader's pass
	// start whenever the queue fully drains. It backs the WITH FRESHNESS
	// extension (paper §7): staleness = now − currentAsOf.
	currentAsOf time.Time

	// Apply-failure bookkeeping, surfaced by Server.Health and the
	// repl.apply_errors metric. The agent tick loop retries failed applies,
	// so errors here are the only durable record of trouble.
	applyErrors int64
	lastErr     string
	lastErrAt   time.Time
}

// LastError returns the most recent apply failure and when it happened
// (zero values when the subscription has never failed).
func (sub *Subscription) LastError() (string, time.Time) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.lastErr, sub.lastErrAt
}

// Staleness returns an upper bound on how far the target trails the
// publisher. With pending transactions it is the age of the oldest one;
// otherwise the time since the subscription was last known current.
func (sub *Subscription) Staleness(now time.Time) time.Duration {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if len(sub.queue) > 0 {
		return now.Sub(sub.queue[0].commitTime)
	}
	return now.Sub(sub.currentAsOf)
}

// queuedTxn is one pending transaction in the distribution database. Like
// SQL Server's distribution database, entries are stored in serialized form:
// the log reader pays the encode cost (backend-side overhead), the
// distribution agent pays the decode cost (subscriber-side overhead).
type queuedTxn struct {
	lsn        storage.LSN
	commitTime time.Time
	encoded    []byte
}

func encodeChanges(changes []storage.ChangeRec) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(changes); err != nil {
		return nil, fmt.Errorf("repl: encode distribution record: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeChanges(data []byte) ([]storage.ChangeRec, error) {
	var changes []storage.ChangeRec
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&changes); err != nil {
		return nil, fmt.Errorf("repl: decode distribution record: %w", err)
	}
	return changes, nil
}

// Stats reports replication pipeline health and overheads, used by the
// replication experiments (paper §6.2.2 and §6.2.3).
type Stats struct {
	TxnsApplied    *metrics.Counter
	ChangesApplied *metrics.Counter
	TxnsQueued     *metrics.Counter
	Latency        *metrics.Histogram // commit-to-commit propagation delay
	ReaderTime     *metrics.Counter   // ns spent by the log reader (backend overhead)
	ApplyTime      *metrics.Counter   // ns spent applying on subscribers (cache overhead)
}

// Server is the replication runtime for one publisher: its articles, the
// log reader, the distribution queues and the distribution agents.
type Server struct {
	publisher *engine.Database

	mu           sync.Mutex
	articles     []*Article
	subs         []*Subscription
	readerLSN    storage.LSN
	readerOn     bool
	lastReaderAt time.Time

	stopCh chan struct{}
	wg     sync.WaitGroup

	Stats Stats
}

// NewServer creates the replication runtime for a publisher database.
func NewServer(publisher *engine.Database) *Server {
	return &Server{
		publisher: publisher,
		readerLSN: publisher.Store().WAL().End(),
		readerOn:  true,
		Stats: Stats{
			TxnsApplied:    &metrics.Counter{},
			ChangesApplied: &metrics.Counter{},
			TxnsQueued:     &metrics.Counter{},
			Latency:        metrics.NewHistogram(0),
			ReaderTime:     &metrics.Counter{},
			ApplyTime:      &metrics.Counter{},
		},
	}
}

// SetLogReader turns the log reader on or off (experiment §6.2.2 measures
// backend overhead by comparing throughput with the reader on vs off).
func (s *Server) SetLogReader(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readerOn = on
}

// EnsureArticle finds or creates an article matching (table, columns,
// filter). Mirrors the paper's "if no suitable publication exists, one is
// automatically created" (§4).
func (s *Server) EnsureArticle(table string, columns []string, filter sql.Expr) (*Article, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := articleKey(table, columns, filter)
	for _, a := range s.articles {
		if articleKey(a.Table, a.Columns, a.Filter) == key {
			return a, nil
		}
	}
	src := s.publisher.Catalog().Table(table)
	if src == nil {
		return nil, fmt.Errorf("repl: source table %s does not exist on publisher", table)
	}
	a := &Article{
		Name:    fmt.Sprintf("art_%s_%d", strings.ToLower(table), len(s.articles)+1),
		Table:   src.Name,
		Columns: columns,
		Filter:  filter,
		source:  src,
	}
	if filter != nil {
		pred, err := opt.CompileScalar(filter, src)
		if err != nil {
			return nil, fmt.Errorf("repl: article filter: %w", err)
		}
		a.pred = pred
	}
	if columns == nil {
		for i := range src.Columns {
			a.ords = append(a.ords, i)
		}
	} else {
		for _, c := range columns {
			ord := src.ColumnIndex(c)
			if ord < 0 {
				return nil, fmt.Errorf("repl: article column %s not in %s", c, table)
			}
			a.ords = append(a.ords, ord)
		}
	}
	s.articles = append(s.articles, a)
	return a, nil
}

func articleKey(table string, columns []string, filter sql.Expr) string {
	k := strings.ToLower(table) + "|" + strings.ToLower(strings.Join(columns, ","))
	if filter != nil {
		k += "|" + sql.DeparseExpr(filter)
	}
	return k
}

// Subscribe creates a subscription and performs the initial snapshot: the
// target table is populated with the article's current contents and the
// subscription starts streaming from that point.
func (s *Server) Subscribe(a *Article, target *engine.Database, targetTable string) (*Subscription, error) {
	if target.Catalog().Table(targetTable) == nil {
		return nil, fmt.Errorf("repl: target table %s does not exist", targetTable)
	}
	sub := &Subscription{
		Name:        fmt.Sprintf("sub_%s_%s_%d", target.Name, strings.ToLower(targetTable), len(s.subs)+1),
		Article:     a,
		Target:      target,
		TargetTable: targetTable,
		currentAsOf: time.Now(),
	}
	if err := s.snapshot(sub); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	return sub, nil
}

// snapshot copies the article's current state into the target table and
// records the log position the stream starts from.
func (s *Server) snapshot(sub *Subscription) error {
	pubStore := s.publisher.Store()
	rtx := pubStore.Begin(false)
	src := rtx.Table(sub.Article.Table)
	if src == nil {
		rtx.Abort()
		return fmt.Errorf("repl: no storage for %s on publisher", sub.Article.Table)
	}
	var rows []types.Row
	var evalErr error
	src.Scan(func(_ storage.RowID, row types.Row) bool {
		ok, err := sub.Article.matches(row)
		if err != nil {
			evalErr = err
			return false
		}
		if ok {
			rows = append(rows, sub.Article.project(row))
		}
		return true
	})
	// Under MVCC the scan no longer blocks commits, so the current WAL end
	// may already include transactions our snapshot cannot see. AsOfLSN is
	// the WAL position published atomically with the snapshot's commit
	// timestamp: the stream resumes exactly where the snapshot ends.
	sub.nextLSN = rtx.AsOfLSN()
	rtx.Abort()
	if evalErr != nil {
		return evalErr
	}

	ttx := sub.Target.Store().Begin(true)
	for _, row := range rows {
		if _, err := ttx.Insert(sub.TargetTable, row); err != nil {
			ttx.Abort()
			return fmt.Errorf("repl: snapshot of %s: %w", sub.TargetTable, err)
		}
	}
	if err := ttx.CommitUnlogged(); err != nil {
		return err
	}
	// A (re)seed changes the target table's contents wholesale; any
	// intermediate results derived from it are stale.
	sub.Target.InvalidateCachedResults(sub.TargetTable)
	return sub.Target.AnalyzeTable(sub.TargetTable)
}

// RunLogReader performs one log-reader pass: committed transactions since
// the last pass are filtered per subscription and enqueued in the
// distribution database. Returns the number of commit records processed.
func (s *Server) RunLogReader() int {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		s.Stats.ReaderTime.Add(int64(d))
		metrics.Default.Histogram("repl.reader_seconds").ObserveDuration(d)
	}()

	s.mu.Lock()
	if !s.readerOn {
		s.mu.Unlock()
		return 0
	}
	from := s.readerLSN
	subs := append([]*Subscription(nil), s.subs...)
	s.lastReaderAt = start
	s.mu.Unlock()

	// Subscriptions with empty queues are current as of this pass start
	// (any later commit will be seen by the next pass).
	defer func() {
		for _, sub := range subs {
			sub.mu.Lock()
			if len(sub.queue) == 0 && start.After(sub.currentAsOf) {
				sub.currentAsOf = start
			}
			sub.mu.Unlock()
			metrics.Default.Gauge("repl.staleness_seconds." + sub.Name).
				Set(sub.Staleness(time.Now()).Seconds())
		}
	}()

	recs := s.publisher.Store().WAL().ReadFrom(from, 0)
	if len(recs) == 0 {
		s.truncate()
		return 0
	}
	for _, rec := range recs {
		for _, sub := range subs {
			sub.mu.Lock()
			if sub.nextLSN > rec.LSN {
				sub.mu.Unlock()
				continue // already included in this subscription's snapshot
			}
			sub.mu.Unlock()
			// Filter and encode outside the lock, but advance the cursor and
			// enqueue in ONE critical section: the cursor doubles as the
			// stream-completeness position (DrainAfterThrough reports
			// nextLSN-1), so a cursor advanced before its record is queued
			// would let a concurrent drain claim completeness through a
			// record it did not deliver. The re-check under the lock keeps
			// concurrent reader passes from enqueueing the record twice.
			filtered := filterTxn(sub.Article, rec)
			var encoded []byte
			if len(filtered) > 0 {
				var err error
				encoded, err = encodeChanges(filtered)
				if err != nil {
					filtered = nil // undecodable change; skip rather than wedge the reader
				}
			}
			sub.mu.Lock()
			if sub.nextLSN > rec.LSN {
				sub.mu.Unlock()
				continue // another pass delivered this record first
			}
			// Advance the per-subscription cursor record by record (not once
			// per pass): it is this subscription's resume point after a
			// subscriber restart, and the truncation floor that keeps records
			// a resumed subscription still needs in the WAL.
			sub.nextLSN = rec.LSN + 1
			if len(filtered) > 0 {
				sub.queue = append(sub.queue, queuedTxn{lsn: rec.LSN, commitTime: rec.CommitTime, encoded: encoded})
			}
			sub.mu.Unlock()
			if len(filtered) > 0 {
				s.Stats.TxnsQueued.Add(1)
			}
		}
	}
	s.mu.Lock()
	s.readerLSN = recs[len(recs)-1].LSN + 1
	s.mu.Unlock()
	s.truncate()
	return len(recs)
}

// filterTxn maps a commit record through an article: changes to other
// tables drop out, rows are filtered and projected, and updates that move
// rows across the filter boundary become inserts or deletes.
func filterTxn(a *Article, rec storage.CommitRecord) []storage.ChangeRec {
	var out []storage.ChangeRec
	for _, ch := range rec.Changes {
		if !strings.EqualFold(ch.Table, a.Table) {
			continue
		}
		oldIn, newIn := false, false
		if ch.Before != nil {
			oldIn, _ = a.matches(ch.Before)
		}
		if ch.After != nil {
			newIn, _ = a.matches(ch.After)
		}
		switch ch.Op {
		case storage.OpInsert:
			if newIn {
				out = append(out, storage.ChangeRec{Table: a.Table, Op: storage.OpInsert, After: a.project(ch.After)})
			}
		case storage.OpDelete:
			if oldIn {
				out = append(out, storage.ChangeRec{Table: a.Table, Op: storage.OpDelete, Before: a.project(ch.Before)})
			}
		case storage.OpUpdate:
			switch {
			case oldIn && newIn:
				out = append(out, storage.ChangeRec{Table: a.Table, Op: storage.OpUpdate, Before: a.project(ch.Before), After: a.project(ch.After)})
			case oldIn:
				out = append(out, storage.ChangeRec{Table: a.Table, Op: storage.OpDelete, Before: a.project(ch.Before)})
			case newIn:
				out = append(out, storage.ChangeRec{Table: a.Table, Op: storage.OpInsert, After: a.project(ch.After)})
			}
		}
	}
	return out
}

// truncate drops distribution/WAL entries every subscription has consumed
// ("once changes have been propagated to all subscribers, they are deleted
// from the distribution database", §2.2).
func (s *Server) truncate() {
	s.mu.Lock()
	min := s.readerLSN
	for _, sub := range s.subs {
		sub.mu.Lock()
		if len(sub.queue) > 0 && sub.queue[0].lsn < min {
			min = sub.queue[0].lsn
		}
		// A subscription that has not consumed up to the reader yet — or was
		// just rewound by ResumeRemote — still needs everything from its own
		// cursor onward, queued or not.
		if sub.nextLSN < min {
			min = sub.nextLSN
		}
		sub.mu.Unlock()
	}
	s.mu.Unlock()
	s.publisher.Store().WAL().Truncate(min)
}

// RunDistribution applies a subscription's pending transactions to its
// target, one committed transaction at a time in commit order. Returns the
// number of transactions applied.
func (s *Server) RunDistribution(sub *Subscription) (int, error) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		s.Stats.ApplyTime.Add(int64(d))
		metrics.Default.Histogram("repl.apply_seconds").ObserveDuration(d)
	}()

	// Queue-only subscriptions (SubscribeRemote) have no local target: a
	// remote agent drains them with pulls and acks. Applying here would nil-
	// panic the agent loop and, worse, discard batches the puller still needs.
	if sub.Target == nil {
		return 0, nil
	}
	sub.mu.Lock()
	pending := sub.queue
	sub.queue = nil
	sub.mu.Unlock()
	if len(pending) == 0 {
		return 0, nil
	}
	for i, txn := range pending {
		changes, err := decodeChanges(txn.encoded)
		if err == nil {
			err = applyTxn(sub, txn, changes)
		}
		if err != nil {
			// Re-queue the unapplied suffix to preserve commit order, and
			// record the failure: the agent loop retries on the next tick, so
			// without a counter and a last-error slot these would vanish.
			sub.mu.Lock()
			sub.queue = append(append([]queuedTxn{}, pending[i:]...), sub.queue...)
			sub.applyErrors++
			sub.lastErr = err.Error()
			sub.lastErrAt = time.Now()
			sub.mu.Unlock()
			metrics.Default.Counter("repl.apply_errors").Add(1)
			return i, err
		}
		s.Stats.TxnsApplied.Add(1)
		s.Stats.ChangesApplied.Add(int64(len(changes)))
		lat := time.Since(txn.commitTime)
		s.Stats.Latency.ObserveDuration(lat)
		metrics.Default.Histogram("repl.latency_seconds").ObserveDuration(lat)
	}
	return len(pending), nil
}

// applyTxn applies one transaction to the subscriber. The apply commits
// unlogged: replicated changes must not re-enter the subscriber's own WAL.
func applyTxn(sub *Subscription, txn queuedTxn, changes []storage.ChangeRec) error {
	return ApplyBatch(sub.Target, sub.TargetTable, TxnBatch{
		LSN: txn.lsn, CommitTime: txn.commitTime, Changes: changes,
	})
}

// locateTargetRow finds a row by target primary key, falling back to
// full-row equality.
func locateTargetRow(td *storage.TableView, target *catalog.Table, row types.Row) storage.RowID {
	if len(target.PrimaryKey) > 0 {
		key := make(types.Row, len(target.PrimaryKey))
		for i, ord := range target.PrimaryKey {
			key[i] = row[ord]
		}
		return td.PKLookup(key)
	}
	found := storage.RowID(-1)
	td.Scan(func(rid storage.RowID, r types.Row) bool {
		if types.RowsEqual(r, row) {
			found = rid
			return false
		}
		return true
	})
	return found
}

// StepAll runs one log-reader pass followed by one distribution pass per
// subscription (deterministic mode for tests and examples).
func (s *Server) StepAll() error {
	s.RunLogReader()
	s.mu.Lock()
	subs := append([]*Subscription(nil), s.subs...)
	s.mu.Unlock()
	for _, sub := range subs {
		if _, err := s.RunDistribution(sub); err != nil {
			return err
		}
	}
	return nil
}

// Start launches the background agents: a log-reader goroutine and a
// distribution goroutine, each waking at its interval. The distribution
// agent serves every subscription, including ones created after Start.
func (s *Server) Start(readerInterval, distInterval time.Duration) {
	s.mu.Lock()
	if s.stopCh != nil {
		s.mu.Unlock()
		return
	}
	s.stopCh = make(chan struct{})
	stop := s.stopCh
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(readerInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.RunLogReader()
			}
		}
	}()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(distInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				for _, sub := range s.Subscriptions() {
					if _, err := s.RunDistribution(sub); err != nil {
						// Counted in repl.apply_errors and remembered on the
						// subscription; the next tick retries from the
						// re-queued suffix.
						continue
					}
				}
			}
		}
	}()
}

// Stop halts the background agents and waits for them to exit.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopCh == nil {
		s.mu.Unlock()
		return
	}
	close(s.stopCh)
	s.stopCh = nil
	s.mu.Unlock()
	s.wg.Wait()
}

// Subscriptions returns the current subscription list.
func (s *Server) Subscriptions() []*Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Subscription(nil), s.subs...)
}

// PendingFor reports the queued transaction count for a subscription.
func (s *Server) PendingFor(sub *Subscription) int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return len(sub.queue)
}

// SubHealth is one subscription's health snapshot for the obs endpoint.
type SubHealth struct {
	Name             string    `json:"name"`
	Target           string    `json:"target"`
	Pending          int       `json:"pending"`
	ApplyErrors      int64     `json:"apply_errors"`
	LastError        string    `json:"last_error,omitempty"`
	LastErrorAt      time.Time `json:"last_error_at,omitzero"`
	StalenessSeconds float64   `json:"staleness_seconds"`
}

// Health reports per-subscription replication health: queue depth, staleness
// and the apply-failure record. Served at /debug/status by the obs handler.
func (s *Server) Health() []SubHealth {
	now := time.Now()
	subs := s.Subscriptions()
	out := make([]SubHealth, 0, len(subs))
	for _, sub := range subs {
		// Queue-only (pull) subscriptions have no local target database.
		target := "(pull)"
		if sub.Target != nil {
			target = sub.Target.Name + "." + sub.TargetTable
		}
		sub.mu.Lock()
		h := SubHealth{
			Name:             sub.Name,
			Target:           target,
			Pending:          len(sub.queue),
			ApplyErrors:      sub.applyErrors,
			LastError:        sub.lastErr,
			LastErrorAt:      sub.lastErrAt,
			StalenessSeconds: 0,
		}
		sub.mu.Unlock()
		h.StalenessSeconds = sub.Staleness(now).Seconds()
		out = append(out, h)
	}
	return out
}
