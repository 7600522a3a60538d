package persist

// Checkpoints: rotation, snapshot writes with backoff retries, and GC.

import "time"

// CheckpointDue reports whether a checkpoint should be attempted now: the
// active WAL has grown past the configured thresholds and no checkpoint is
// in flight — or a previously failed checkpoint's backoff window has
// elapsed and a retry is due. While a retry is pending the ordinary
// thresholds are suppressed: the WAL keeps growing past them (nothing
// rotated), and honouring them would hammer a broken disk with zero-delay
// attempts instead of backing off.
func (db *DB) CheckpointDue() bool {
	if db.ckptBusy.Load() {
		return false
	}
	db.bgMu.Lock()
	pending, at := db.retryPending, db.retryAt
	db.bgMu.Unlock()
	if pending {
		return !time.Now().Before(at)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.opts.CheckpointBytes > 0 && db.walSize >= db.opts.CheckpointBytes {
		return true
	}
	return db.opts.CheckpointRecords > 0 && db.walRecords >= db.opts.CheckpointRecords
}

// CheckpointRetryAfter returns how long until the caller should next check
// the checkpoint state; ok is false when there is nothing to watch. It
// reports a wait in two cases: a failed checkpoint's backoff retry is
// scheduled (wait until it is due), or an attempt is still in flight (wait
// one backoff unit and look again — the attempt's outcome, recorded
// asynchronously, decides whether a retry follows). Callers that schedule
// checkpoints only at write boundaries use it to arm a timer, so an idle
// server still retries (and eventually garbage-collects the superseded
// chain) without new mutations arriving.
func (db *DB) CheckpointRetryAfter() (d time.Duration, ok bool) {
	if db.ckptBusy.Load() {
		return db.opts.CheckpointBackoff, true
	}
	db.bgMu.Lock()
	defer db.bgMu.Unlock()
	if !db.retryPending {
		return 0, false
	}
	return max(time.Until(db.retryAt), 0), true
}

// checkpointTarget picks the generation the next checkpoint writes. The
// normal path rotates: appends move to a fresh WAL and the snapshot captures
// the state at that boundary. A backoff retry instead re-writes the current
// generation's snapshot from the caller's fresh state capture, without
// rotating — each extra rotation would mint another WAL file and grow the
// very chain the checkpoint is meant to collect. Re-using the generation is
// sound because WAL replay is idempotent at set level: the retried snapshot
// captures a state mid-generation, so recovery re-applies the records of
// wal-gen that precede the capture, and re-applying a full in-order prefix
// of insert/delete runs through the normal mutation path reproduces exactly
// the membership the capture already holds (each triple's final state is
// decided by its last record, same as it was live).
func (db *DB) checkpointTarget() (uint64, error) {
	db.bgMu.Lock()
	pending := db.retryPending
	db.bgMu.Unlock()
	if pending {
		return db.Generation(), nil
	}
	return db.rotate()
}

// Checkpoint synchronously ends the current generation with the given state:
// appends rotate to a fresh WAL, the snapshot is written and fsynced, and
// superseded files are removed. It blocks until the snapshot is durable —
// use it for bootstrap (initial bulk load) and final (clean shutdown)
// checkpoints, where the caller must not proceed on a promise.
func (db *DB) Checkpoint(st State) error {
	gen, err := db.checkpointTarget()
	if err != nil {
		return err
	}
	if err := db.writeCheckpoint(gen, st); err != nil {
		db.noteCheckpointFailure(err)
		return err
	}
	return nil
}

// CheckpointAsync ends the current generation like Checkpoint but serialises
// the snapshot on a background goroutine, so the writer only pays the WAL
// rotation (one file create). A snapshot-write failure is not fatal: it
// schedules a capped-exponential-backoff retry (CheckpointDue turns true
// again once the window elapses, and the next attempt re-writes this
// generation from a fresh state capture), counts toward Stats, and — only if
// no later attempt ever succeeds — surfaces on Close. The superseded chain
// stays intact for recovery throughout. No-op if a checkpoint is already in
// flight.
func (db *DB) CheckpointAsync(st State) error {
	if !db.ckptBusy.CompareAndSwap(false, true) {
		return nil
	}
	gen, err := db.checkpointTarget()
	if err != nil {
		db.ckptBusy.Store(false)
		return err
	}
	db.bg.Add(1)
	go func() {
		defer db.bg.Done()
		defer db.ckptBusy.Store(false)
		if err := db.writeCheckpoint(gen, st); err != nil {
			db.noteCheckpointFailure(err)
		}
	}()
	return nil
}

// noteCheckpointFailure records a failed snapshot write and schedules its
// backoff retry: the first failure retries after CheckpointBackoff, each
// consecutive failure doubles the delay up to CheckpointBackoffMax.
func (db *DB) noteCheckpointFailure(err error) {
	db.ckptFails.Add(1)
	db.bgMu.Lock()
	db.bgErr = err // latest failure wins; cleared by the next success
	if !db.retryPending || db.backoff <= 0 {
		db.backoff = db.opts.CheckpointBackoff
	} else {
		db.backoff = min(2*db.backoff, db.opts.CheckpointBackoffMax)
	}
	db.retryPending = true
	db.retryAt = time.Now().Add(db.backoff)
	db.bgMu.Unlock()
}

// rotate switches appends to the next generation's WAL and returns that
// generation. The old WAL is synced and closed; its records are covered by
// the snapshot the caller is about to write. Acks staged under SyncGroup are
// completed here — the rotation sync covers them — so no callback is ever
// left pointing at a retired generation.
func (db *DB) rotate() (uint64, error) {
	db.syncMu.Lock()
	defer db.syncMu.Unlock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return 0, ErrDBClosed
	}
	acks := db.staged
	db.staged = nil
	db.syncPending = false // the rotation sync covers everything written
	db.stagedRecs = 0
	if err := db.groupErr; err != nil {
		// The WAL may already have a durability hole behind these records
		// (see groupFlush); refusing the rotation also keeps the checkpoint
		// from garbage-collecting the suspect chain.
		db.mu.Unlock()
		fireAcks(acks, err)
		return 0, err
	}
	var s0 time.Time
	if db.om.on {
		s0 = time.Now()
	}
	serr := db.wal.Sync()
	if db.om.on {
		db.om.fsyncLatency.ObserveSince(s0)
	}
	if err := serr; err != nil {
		// Same durability hole as a failed group fsync: pre-rotation pages
		// may be dropped while the kernel clears the error state, so a
		// later fsync could "succeed" past them. Sticky — no append after
		// this point may be acknowledged.
		if db.groupErr == nil {
			db.groupErr = err
		}
		db.mu.Unlock()
		fireAcks(acks, err)
		return 0, err
	}
	// From here the staged records are durable regardless of how the
	// rotation itself fares.
	if err := db.wal.Close(); err != nil {
		db.mu.Unlock()
		fireAcks(acks, nil)
		return 0, err
	}
	db.gen++
	if err := db.openActiveWAL(db.walSize); err != nil {
		db.mu.Unlock()
		fireAcks(acks, nil)
		return 0, err
	}
	db.chainBytes += db.walSize // the fresh generation's header joins the chain
	gen := db.gen
	db.mu.Unlock()
	db.om.rotations.Inc()
	fireAcks(acks, nil)
	return gen, nil
}

// writeCheckpoint serialises st as snap-gen, garbage-collects the
// generations it supersedes, and clears any pending retry state — the
// durable history is checkpointed again, whatever earlier attempts failed.
func (db *DB) writeCheckpoint(gen uint64, st State) error {
	var t0 time.Time
	if db.om.on {
		t0 = time.Now()
	}
	// Size the image buffer from the last image plus slack for the growth
	// of one checkpoint interval.
	hint := int(db.imageLen.Load())
	n, err := writeSnapshotFile(db.fs, db.dir, gen, db.term, st, hint+hint/16)
	if err != nil {
		return err
	}
	db.imageLen.Store(int64(n))
	// Failed attempts are visible through persist_checkpoint_failures_total;
	// the duration histogram records completed snapshot writes only.
	db.om.ckptDuration.ObserveSince(t0)
	db.gcFails.Add(removeBelow(db.fs, db.dir, gen))
	db.mu.Lock()
	// The live chain is now exactly the active generation (gen's WAL);
	// everything below it just got collected.
	db.chainBytes = db.walSize
	db.mu.Unlock()
	db.bgMu.Lock()
	db.bgErr = nil
	db.retryPending = false
	db.backoff = 0
	db.lastCkpt = time.Now()
	db.bgMu.Unlock()
	return nil
}
