package repl

import (
	"fmt"
	"strconv"
	"time"

	"mtcache/internal/engine"
	"mtcache/internal/metrics"
	"mtcache/internal/querystore"
	"mtcache/internal/storage"
	"mtcache/internal/types"
)

// TxnBatch is a wire-transportable committed transaction, used by pull
// subscriptions where the subscriber lives across a network link. The
// distribution agent on the subscriber machine pulls batches and applies
// them locally (the paper's "pull subscription", §2.2).
type TxnBatch struct {
	LSN        storage.LSN
	CommitTime time.Time
	Changes    []storage.ChangeRec
}

// SnapshotRows computes the article's current contents plus the LSN the
// change stream must start from, without applying them anywhere. Used for
// initial population of remote subscribers.
func (s *Server) SnapshotRows(a *Article) ([]types.Row, storage.LSN, error) {
	pubStore := s.publisher.Store()
	rtx := pubStore.Begin(false)
	src := rtx.Table(a.Table)
	if src == nil {
		rtx.Abort()
		return nil, 0, fmt.Errorf("repl: no storage for %s on publisher", a.Table)
	}
	var rows []types.Row
	var evalErr error
	src.Scan(func(_ storage.RowID, row types.Row) bool {
		ok, err := a.matches(row)
		if err != nil {
			evalErr = err
			return false
		}
		if ok {
			rows = append(rows, a.project(row))
		}
		return true
	})
	// AsOfLSN, not WAL().End(): under MVCC commits proceed during the scan,
	// so the log may already extend past what this snapshot sees.
	lsn := rtx.AsOfLSN()
	rtx.Abort()
	if evalErr != nil {
		return nil, 0, evalErr
	}
	return rows, lsn, nil
}

// SubscribeRemote registers a queue-only subscription: the log reader fills
// its queue, and a remote agent drains it with Drain. startLSN is the value
// returned by SnapshotRows.
func (s *Server) SubscribeRemote(a *Article, name string, startLSN storage.LSN) *Subscription {
	sub := &Subscription{
		Name:    name,
		Article: a,
		nextLSN: startLSN,
	}
	s.mu.Lock()
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	return sub
}

// ResumeRemote re-creates a queue-only subscription for a subscriber that
// restarted with durable state as of startLSN (its last checkpointed apply
// position + 1). It succeeds only when the publisher's WAL still retains
// every record from startLSN on — then the log reader is rewound so the
// stream replays from there and the subscriber skips the full reseed. When
// the WAL has been truncated past startLSN the gap is unrecoverable and the
// caller must fall back to a fresh snapshot (SnapshotRows + SubscribeRemote).
func (s *Server) ResumeRemote(a *Article, name string, startLSN storage.LSN) (*Subscription, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wal := s.publisher.Store().WAL()
	if startLSN < wal.First() || startLSN > wal.End() {
		metrics.Default.Counter("repl.resume_misses").Add(1)
		querystore.Emit("repl_resume_miss", "sub", name,
			"from_lsn", strconv.FormatUint(uint64(startLSN), 10),
			"wal_first", strconv.FormatUint(uint64(wal.First()), 10))
		return nil, false
	}
	sub := &Subscription{
		Name:    name,
		Article: a,
		nextLSN: startLSN,
	}
	// Rewind the log reader so the next pass re-reads from the resume point;
	// other subscriptions' nextLSN cursors make re-delivered records no-ops
	// for them.
	if startLSN < s.readerLSN {
		s.readerLSN = startLSN
	}
	s.subs = append(s.subs, sub)
	metrics.Default.Counter("repl.resubscribes").Add(1)
	querystore.Emit("repl_resubscribe", "sub", name,
		"from_lsn", strconv.FormatUint(uint64(startLSN), 10))
	return sub, true
}

// ResetRemote rewinds a remote subscription to a fresh snapshot point:
// pending batches are dropped and the stream restarts at startLSN. Used to
// make wire-level provisioning idempotent — re-provisioning an existing
// subscription reuses it instead of leaking an undrained queue that would
// pin the WAL.
func (s *Server) ResetRemote(sub *Subscription, startLSN storage.LSN) {
	sub.mu.Lock()
	sub.queue = nil
	sub.nextLSN = startLSN
	sub.mu.Unlock()
}

// DrainAfter acknowledges every queued transaction with LSN <= ack
// (removing it from the distribution queue) and returns — without removing —
// up to max (<= 0 means all) of the remaining ones, in commit (LSN) order.
//
// This is the fault-tolerant half of a pull subscription: a batch stays
// queued until a later call acknowledges it, so a pull whose response was
// lost in transit re-delivers the same batches. Delivery is therefore
// at-least-once; the subscriber deduplicates by LSN, which together yields
// exactly-once application.
func (s *Server) DrainAfter(sub *Subscription, ack storage.LSN, max int) []TxnBatch {
	out, _ := s.DrainAfterThrough(sub, ack, max)
	return out
}

// DrainAfterThrough is DrainAfter plus the LSN the subscription's change
// stream is complete through: when the whole remaining queue is returned,
// that is the log reader's cursor minus one — which may run ahead of the last
// batch's LSN, because the reader advances past transactions that do not
// touch the article without queueing anything. A truncated response is only
// complete through its last returned batch. Subscribers use the value to
// report applied progress for writes their views never see.
func (s *Server) DrainAfterThrough(sub *Subscription, ack storage.LSN, max int) ([]TxnBatch, storage.LSN) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	drop := 0
	for drop < len(sub.queue) && sub.queue[drop].lsn <= ack {
		drop++
	}
	sub.queue = sub.queue[drop:]
	n := len(sub.queue)
	truncated := false
	if max > 0 && n > max {
		n = max
		truncated = true
	}
	out := make([]TxnBatch, 0, n)
	for i := 0; i < n; i++ {
		q := sub.queue[i]
		changes, err := decodeChanges(q.encoded)
		if err != nil {
			continue
		}
		out = append(out, TxnBatch{LSN: q.lsn, CommitTime: q.commitTime, Changes: changes})
	}
	through := sub.nextLSN - 1
	if truncated {
		through = sub.queue[n-1].lsn
	}
	return out, through
}

// Drain removes and returns up to max queued transactions (max <= 0 means
// all) for a remote subscription.
func (s *Server) Drain(sub *Subscription, max int) []TxnBatch {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	n := len(sub.queue)
	if max > 0 && n > max {
		n = max
	}
	out := make([]TxnBatch, 0, n)
	for i := 0; i < n; i++ {
		q := sub.queue[i]
		changes, err := decodeChanges(q.encoded)
		if err != nil {
			continue
		}
		out = append(out, TxnBatch{LSN: q.lsn, CommitTime: q.commitTime, Changes: changes})
	}
	sub.queue = sub.queue[n:]
	return out
}

// ApplyBatch applies one pulled transaction batch to a local table,
// committing unlogged so replicated changes do not echo. It is the
// subscriber half of a pull subscription.
func ApplyBatch(target *engine.Database, table string, batch TxnBatch) error {
	meta := target.Catalog().Table(table)
	if meta == nil {
		return fmt.Errorf("repl: target table %s does not exist", table)
	}
	tx := target.Store().Begin(true)
	td := tx.Table(table)
	if td == nil {
		tx.Abort()
		return fmt.Errorf("repl: no storage for %s", table)
	}
	for _, ch := range batch.Changes {
		switch ch.Op {
		case storage.OpInsert:
			if _, err := tx.Insert(table, ch.After); err != nil {
				tx.Abort()
				return err
			}
		case storage.OpDelete:
			rid := locateTargetRow(td, meta, ch.Before)
			if rid < 0 {
				tx.Abort()
				return fmt.Errorf("repl: %s: delete target row missing", table)
			}
			if err := tx.Delete(table, rid); err != nil {
				tx.Abort()
				return err
			}
		case storage.OpUpdate:
			rid := locateTargetRow(td, meta, ch.Before)
			if rid < 0 {
				tx.Abort()
				return fmt.Errorf("repl: %s: update target row missing", table)
			}
			if err := tx.Update(table, rid, ch.After); err != nil {
				tx.Abort()
				return err
			}
		}
	}
	if err := tx.CommitUnlogged(); err != nil {
		return err
	}
	// Replicated writes are the invalidation signal for intermediate results
	// derived from this table: mark them stale now that the change is visible.
	target.InvalidateCachedResults(table)
	return nil
}
