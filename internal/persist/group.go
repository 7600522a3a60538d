package persist

// Appends, and the group commit of SyncGroup.

import (
	"fmt"
	"time"

	"repro/internal/rdf"
)

// Append durably logs one mutation batch (write-ahead: call it before
// applying the batch to the strategy). Replay applies inserts and deletes
// through the normal strategy paths, which absorb duplicates, so a batch
// that was logged but not yet applied at the moment of a crash replays
// harmlessly. Under SyncGroup, Append blocks until the covering group fsync
// completes (synchronous durability); use AppendAck to overlap appends with
// the in-flight fsync.
func (db *DB) Append(del bool, ts []rdf.Triple) error {
	if db.opts.Sync != SyncGroup {
		return db.AppendAck(del, ts, nil)
	}
	ch := make(chan error, 1)
	//lint:ignore ctxblock the channel is buffered(1) and the ack fires at most once, so the send never blocks
	if err := db.AppendAck(del, ts, func(err error) { ch <- err }); err != nil {
		return err
	}
	//lint:ignore ctxblock synchronous durability is Append's contract; a staged ack always fires — from the group syncer or from Close's final fireAcks
	return <-ch
}

// AppendAck logs one mutation batch and reports its durability through ack:
// ack(nil) fires once the record — and, by WAL ordering, every record
// appended before it — is durable under the configured policy. Under
// SyncAlways and SyncNever the policy's work happens inline and ack fires
// before AppendAck returns; under SyncGroup AppendAck returns once the
// record is written (staged) and ack fires from the background syncer after
// the covering group fsync, at most GroupDelay plus one fsync later.
//
// A non-nil return means the record was NOT staged (encode bound, write
// failure, closed DB) and ack will never fire; a group fsync failure is
// delivered through ack instead and is sticky — every later append is
// refused with it, because a record covered by the failed fsync may be
// gone and acknowledging anything after it would break the durable-prefix
// contract. ack must be cheap and non-blocking: it runs on the appender
// (inline policies) or the syncer goroutine (SyncGroup).
func (db *DB) AppendAck(del bool, ts []rdf.Triple, ack func(error)) error {
	var t0 time.Time
	if db.om.on {
		t0 = time.Now()
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrDBClosed
	}
	if db.groupErr != nil {
		// A covering group fsync failed: some already-written record may
		// never have reached stable storage (and the kernel has dropped the
		// error state), so acknowledging anything after it would break the
		// durable-prefix contract. Refuse until the DB is reopened.
		err := db.groupErr
		db.mu.Unlock()
		return err
	}
	db.buf = appendWALRecord(db.buf[:0], del, ts)
	if len(db.buf) > walRecHdrLen+maxWALRecord {
		db.mu.Unlock()
		return errRecordTooLarge
	}
	if db.opts.MaxWALBytes > 0 && db.chainBytes+int64(len(db.buf)) > db.opts.MaxWALBytes {
		// Checkpoints have failed for long enough that the un-collected
		// chain would outgrow its byte bound: refuse the append (the server
		// degrades to read-only) rather than write until the disk is full —
		// at which point even the recovery checkpoint could not be written.
		chain, gen := db.chainBytes, db.gen
		db.mu.Unlock()
		return fmt.Errorf("%w: %d bytes live across generations ≤%d (bound %d)",
			ErrWALBound, chain, gen, db.opts.MaxWALBytes)
	}
	if _, err := db.wal.Write(db.buf); err != nil {
		// A failed write may have persisted a prefix of the record, leaving
		// garbage at the file's tail. Sticky for the same reason as a failed
		// group fsync: appending past the torn bytes would bury them mid-file
		// (recovery only tolerates a torn FINAL record), and rotating would
		// strand them mid-chain — either way the directory stops recovering.
		if db.groupErr == nil {
			db.groupErr = err
		}
		db.mu.Unlock()
		return err
	}
	db.walSize += int64(len(db.buf))
	db.chainBytes += int64(len(db.buf))
	db.walRecords++
	switch db.opts.Sync {
	case SyncAlways:
		var s0 time.Time
		if db.om.on {
			s0 = time.Now()
		}
		err := db.wal.Sync()
		if db.om.on {
			db.om.fsyncLatency.ObserveSince(s0)
		}
		if err != nil && db.groupErr == nil {
			// Same hazard as a failed group fsync: the kernel may drop the
			// dirty pages and clear the error, so a later fsync could
			// "succeed" past a hole. No append or rotation after this point
			// may be trusted until the DB is reopened.
			db.groupErr = err
		}
		db.mu.Unlock()
		if err != nil {
			return err
		}
	case SyncNever:
		db.mu.Unlock()
	default: // SyncGroup: stage the ack and let the syncer cover it.
		if ack != nil {
			db.staged = append(db.staged, ack)
		}
		// The record needs a covering fsync even with no ack to notify —
		// GroupDelay bounds every record's durability lag, not just the
		// acknowledged ones.
		db.syncPending = true
		db.stagedRecs++
		db.mu.Unlock()
		select {
		case db.syncKick <- struct{}{}:
		default:
		}
		if db.om.on {
			db.om.appendLatency.ObserveSince(t0)
		}
		return nil
	}
	if db.om.on {
		db.om.appendLatency.ObserveSince(t0)
	}
	if ack != nil {
		ack(nil)
	}
	return nil
}

// syncer is the SyncGroup background goroutine: it wakes when a record is
// staged, optionally waits out the coalescing window so a burst accumulates,
// then performs one fsync covering everything staged so far. Close cuts the
// window short so a large GroupDelay never delays shutdown.
func (db *DB) syncer() {
	defer db.syncWg.Done()
	var window *time.Timer
	for {
		select {
		case <-db.syncDone:
			db.groupFlush() // cover anything staged after the final kick
			return
		case <-db.syncKick:
		}
		// Adaptive window: a lone durable writer (previous flush covered ≤1
		// record) would pay the whole GroupDelay as pure ack latency with
		// nothing to coalesce — fsync immediately instead. The moment a burst
		// arrives, one flush covers several records and the window returns.
		if db.opts.GroupDelay > 0 && !db.loneWriter.Load() {
			if window == nil {
				window = time.NewTimer(db.opts.GroupDelay)
				defer window.Stop()
			} else {
				window.Reset(db.opts.GroupDelay)
			}
			select {
			case <-window.C:
			case <-db.syncDone:
				window.Stop()
				db.groupFlush()
				return
			}
		}
		db.groupFlush()
	}
}

// groupFlush fsyncs the active WAL once and completes every ack staged
// before the fsync began. The fsync runs outside db.mu so appends keep
// flowing, and under syncMu so rotation/close cannot swap or close the file
// mid-fsync. Acks staged while the fsync is in flight stay for the next one.
func (db *DB) groupFlush() {
	db.syncMu.Lock()
	defer db.syncMu.Unlock()
	db.mu.Lock()
	acks := db.staged
	db.staged = nil
	pending := db.syncPending
	db.syncPending = false
	covered := db.stagedRecs
	db.stagedRecs = 0
	gerr := db.groupErr
	f := db.wal
	closed := db.closed
	db.mu.Unlock()
	db.loneWriter.Store(covered <= 1)
	if gerr != nil {
		// A previous covering fsync failed. Records staged in the window
		// before the sticky error landed must NOT be acknowledged off a
		// later, spuriously succeeding fsync (the kernel reports an fsync
		// error once, then clears it): an earlier record may be gone, and
		// these records sit behind the hole.
		fireAcks(acks, gerr)
		return
	}
	if !pending && len(acks) == 0 {
		return
	}
	// Rotation and Close flush staged work themselves (under syncMu), so a
	// closed DB here means the records were already covered by Close's final
	// wal.Sync; acknowledge without touching the closed file. A sync failure
	// with no ack to carry it surfaces on the next acknowledged append or
	// rotation, which will fail the same way.
	var err error
	if !closed {
		var s0 time.Time
		if db.om.on {
			s0 = time.Now()
		}
		err = f.Sync()
		if db.om.on {
			db.om.fsyncLatency.ObserveSince(s0)
			db.om.groupCoalesce.Observe(int64(covered))
		}
	}
	if err != nil {
		// The failure must outlive this flush even when no ack carries it
		// (nil-ack records): a failed fsync may have dropped dirty pages,
		// and the kernel clears the file's error state after reporting it
		// once — a later fsync can "succeed" without those pages. Sticky:
		// every subsequent append is refused, and Close reports it.
		db.mu.Lock()
		if db.groupErr == nil {
			db.groupErr = err
		}
		db.mu.Unlock()
	}
	fireAcks(acks, err)
}

// fireAcks invokes each durability callback with err, in staging order.
func fireAcks(acks []func(error), err error) {
	for _, a := range acks {
		a(err)
	}
}
