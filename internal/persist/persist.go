// Package persist is the durability layer of the serving stack: binary
// snapshots of a whole serving state (dictionary + asserted triples +
// optionally the saturated store), an append-only write-ahead log of
// mutation batches, and crash recovery that stitches the two back together.
//
// The paper's economics say saturation is expensive to compute and cheap to
// query; that only pays off across process lifetimes if G∞ survives a
// restart. A persist.DB makes the materialised state a first-class durable
// artifact (as distributed materialisation systems do): restart loads the
// latest snapshot at near-memcpy speed instead of re-parsing N-Triples and
// re-running saturation, then replays the WAL tail through the normal
// Insert/Delete path.
//
// # On-disk layout
//
// A data directory holds generations. Generation g consists of snap-g (the
// serving state at the instant generation g began; absent for the bootstrap
// generation, whose starting state is empty) and wal-g (the mutation batches
// applied during generation g). A checkpoint ends generation g at a
// mutation-batch boundary: the writer captures O(1) copy-on-write snapshots
// of its stores, rotates appends to wal-(g+1), and a background goroutine
// serialises snap-(g+1); only after snap-(g+1) is durable are the files of
// generation g (and older) deleted. WAL generations therefore always chain
// contiguously from the newest durable snapshot to the present, even across
// a crash mid-checkpoint.
//
// # Recovery
//
// One walk recovers every data directory, a primary's and a follower's
// mirror alike (chain.go): it picks the newest loadable snapshot (falling
// back past an unreadable one when an older snapshot plus the intervening
// WALs still cover the full history) and walks the contiguous WAL run above
// it, whose header terms never decrease, up to the first point that is not a
// verified prefix of the history. A torn final record of the newest WAL — the
// signature of a crash mid-append — is part of no such point; it is truncated
// away. Two policies read the walk. Open loads the snapshot, exposes the
// run's records for the caller to replay through its strategy, and refuses
// any other damage rather than silently drop applied history; only a
// header-less newest WAL (a torn rotation) is removed. OpenMirror keeps
// exactly the verified prefix and deletes the rest, which its source ships
// again (see Mirror).
package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// SyncPolicy controls when WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every appended record (default): an
	// acknowledged batch survives power loss.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: an acknowledged batch survives a
	// process crash but the last moments before power loss may be lost.
	SyncNever
	// SyncGroup stages appends and lets a background syncer cover every
	// record staged since the last fsync with one fsync (group commit):
	// appends return as soon as the record is written, and durability is
	// signalled per record through the AppendAck callback once the covering
	// fsync completes — at most Options.GroupDelay after the record was
	// staged. Concurrent producers amortise one fsync across a whole burst
	// instead of paying one each, so sustained throughput approaches
	// SyncNever while an *acknowledged* record has SyncAlways semantics:
	// it, and every record before it, survives power loss.
	SyncGroup
)

// Options tunes a DB.
type Options struct {
	// Sync is the WAL fsync policy.
	Sync SyncPolicy
	// GroupDelay bounds, under SyncGroup, how long a staged record may wait
	// before its covering fsync starts: the syncer coalesces the records of
	// up to one GroupDelay window into a single fsync. Zero means
	// DefaultGroupDelay; negative syncs as soon as the syncer is free (the
	// in-flight fsync itself then provides the batching window). Ignored by
	// the other policies. The window is adaptive: while the workload is a
	// lone durable writer (each covering fsync spans at most one record,
	// so there is nothing to coalesce) the syncer skips the wait entirely,
	// and the first concurrent burst restores it.
	GroupDelay time.Duration
	// CheckpointBytes triggers a checkpoint when the active WAL grows past
	// this size. Zero means DefaultCheckpointBytes; negative disables the
	// size trigger.
	CheckpointBytes int64
	// CheckpointRecords triggers a checkpoint after this many WAL records.
	// Zero means DefaultCheckpointRecords; negative disables the trigger.
	CheckpointRecords int
	// MaxWALBytes bounds the bytes of live WAL generations — everything not
	// yet superseded by a durable snapshot. When checkpoints fail repeatedly
	// (a full or broken disk) the chain cannot be garbage-collected, and
	// without a bound the WAL would grow until it fills the disk; past the
	// bound, appends are refused with ErrWALBound so the caller can degrade
	// to read-only serving instead. Zero means DefaultMaxWALBytes; negative
	// disables the bound.
	MaxWALBytes int64
	// CheckpointBackoff is the initial delay before retrying a failed
	// checkpoint's snapshot write; consecutive failures double it up to
	// CheckpointBackoffMax. Zero means the defaults.
	CheckpointBackoff    time.Duration
	CheckpointBackoffMax time.Duration
	// FS routes every filesystem operation the DB performs; nil means OS,
	// the real filesystem. Tests interpose deterministic faults by passing a
	// wrapped FS (see internal/faultfs).
	FS FS
	// Term is the minimum replication fencing term this process claims over
	// the directory. Zero adopts whatever term the chain carries (the normal
	// single-node open). A promoted follower passes the highest term it ever
	// observed plus one: if the recovered chain's term is lower, Open mints a
	// fresh generation whose header carries the new term before any write —
	// durably recording the ownership change — and if the chain's term is
	// HIGHER, Open refuses with ErrFenced (the caller's claim is stale).
	// Independently of this field, a TERM fence file outranking the chain's
	// term always refuses the open with ErrFenced; see WriteFence.
	Term uint64
	// Obs, when set, enables durability telemetry: WAL append and fsync
	// latency, group-commit coalesce counts, checkpoint duration and
	// failures, recovery replay time, plus exposition-time gauges over the
	// chain state. Nil keeps every path at its uninstrumented cost.
	Obs *obs.Registry
}

// Default checkpoint thresholds. Recovery replays the WAL tail through the
// normal Insert/Delete maintenance path, which costs roughly a millisecond
// per record on a materialised store (each batch pays the copy-on-write
// detach plus incremental reasoning), so the record bound — not the byte
// bound — is what keeps worst-case recovery in low seconds; the byte bound
// is a backstop against pathologically large batches.
const (
	DefaultCheckpointBytes   = 64 << 20
	DefaultCheckpointRecords = 4096
	// DefaultMaxWALBytes is the live-chain byte bound: 16× the checkpoint
	// byte trigger, so only a sustained inability to checkpoint (not a burst
	// of writes) can reach it.
	DefaultMaxWALBytes = 1 << 30
)

// Default checkpoint-retry backoff: quick first retry (a transient error —
// brief ENOSPC, a hiccuping volume — resolves in milliseconds), capped so a
// persistently broken disk is probed at a human-observable cadence instead
// of never (the pre-retry behaviour left the superseded chain un-collected
// forever after a single failure).
const (
	DefaultCheckpointBackoff    = 250 * time.Millisecond
	DefaultCheckpointBackoffMax = 30 * time.Second
)

// DefaultGroupDelay is the SyncGroup coalescing window: one fsync per
// millisecond upper-bounds the durability lag while letting a write burst
// share a single fsync (~145µs on the reference box) across every record
// it staged.
const DefaultGroupDelay = time.Millisecond

// ErrDBClosed is returned by operations on a closed DB.
var ErrDBClosed = errors.New("persist: DB closed")

// ErrLocked matches (via errors.Is) the error Open returns when another
// process holds the data directory's LOCK file.
var ErrLocked = errors.New("persist: data directory locked")

// LockedError is the concrete error behind ErrLocked: the directory whose
// LOCK another process holds, with enough context for a friendly message.
type LockedError struct {
	Dir string
	Err error // the underlying flock error
}

func (e *LockedError) Error() string {
	return fmt.Sprintf("persist: data directory %s is in use by another process (flock on %s is held): stop the other process using this directory, or point this one at a different directory",
		e.Dir, filepath.Join(e.Dir, "LOCK"))
}

func (e *LockedError) Unwrap() error        { return e.Err }
func (e *LockedError) Is(target error) bool { return target == ErrLocked }

// DB is an open data directory: the state recovered from it plus the active
// WAL. Append and AppendAck are goroutine-safe (concurrent producers are the
// point of group commit; writes are serialized internally). CheckpointDue,
// Checkpoint and CheckpointAsync must still be serialized by the caller (the
// server's single writer goroutine does this naturally); Close may be called
// from any goroutine.
type DB struct {
	dir  string
	opts Options
	fs   FS // all file operations route through this (Options.FS or OS)

	loaded *LoadedState // nil when the directory held no snapshot
	tail   []Mutation   // WAL records newer than the loaded snapshot

	lock *os.File // exclusive advisory lock on the directory (nil on non-unix)

	mu         sync.Mutex // guards the fields below (append vs rotate vs close)
	gen        uint64     // active WAL generation
	term       uint64     // fencing term; constant once Open returns
	wal        File
	walSize    int64
	walRecords int
	chainBytes int64  // bytes across every live WAL generation (MaxWALBytes input)
	buf        []byte // record encode scratch
	closed     bool

	// Group commit (SyncGroup). staged holds, in append order, the
	// durability callbacks of records written but not yet covered by an
	// fsync; the syncer goroutine swaps the whole list out per fsync, so an
	// ack firing implies every earlier staged record is durable too.
	// syncMu serialises group fsyncs against WAL rotation and close, which
	// must not pull the file out from under an in-flight fsync.
	staged      []func(error) // guarded by mu
	syncPending bool          // guarded by mu: bytes written since the last covering sync
	stagedRecs  int           // guarded by mu: records staged since the last covering sync
	groupErr    error         // guarded by mu: sticky group-fsync failure; refuses further appends
	// loneWriter adapts the coalescing window: when the previous group fsync
	// covered at most one record, the workload is a lone durable writer whose
	// ack latency IS the window — so the syncer skips the wait and fsyncs
	// immediately. A burst (first flush covering >1 record) restores the
	// window. Read by the syncer without mu.
	loneWriter atomic.Bool
	syncMu     sync.Mutex
	syncKick   chan struct{} // capacity 1; nudges the syncer
	syncDone   chan struct{} // closed to stop the syncer
	syncWg     sync.WaitGroup

	ckptBusy atomic.Bool
	// imageLen is the length of the last snapshot image written (0 before
	// the first), the size the next one's buffer starts at.
	imageLen atomic.Int64
	bg       sync.WaitGroup
	bgMu     sync.Mutex
	// bgErr holds the most recent checkpoint failure; a later successful
	// checkpoint (a backoff retry that got through) clears it, so Close only
	// reports a failure the retries never recovered from.
	bgErr error
	// Checkpoint-retry state (guarded by bgMu). While retryPending, the due
	// thresholds are gated by retryAt — consecutive failures back off
	// exponentially instead of hammering a broken disk — and the next
	// attempt re-writes the *current* generation's snapshot from a fresh
	// state capture rather than rotating again (each rotation would mint a
	// new WAL file, growing the very chain the checkpoint is meant to
	// collect).
	retryPending bool
	retryAt      time.Time
	backoff      time.Duration
	lastCkpt     time.Time // completion time of the last durable checkpoint

	ckptFails atomic.Int64 // cumulative failed checkpoint attempts
	gcFails   atomic.Int64 // cumulative failed superseded-file removals

	// om is the instrumentation surface (disabled zero value without
	// Options.Obs).
	om dbMetrics
}

// Open opens (creating if needed) the data directory and recovers its state:
// the newest valid snapshot is loaded and the WAL chain above it is decoded,
// with a torn final append truncated away. The caller replays the tail via
// ReplayTail, then appends new batches with Append.
func Open(dir string, opts Options) (*DB, error) {
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = DefaultCheckpointBytes
	}
	if opts.CheckpointRecords == 0 {
		opts.CheckpointRecords = DefaultCheckpointRecords
	}
	if opts.GroupDelay == 0 {
		opts.GroupDelay = DefaultGroupDelay
	}
	if opts.MaxWALBytes == 0 {
		opts.MaxWALBytes = DefaultMaxWALBytes
	}
	if opts.CheckpointBackoff <= 0 {
		opts.CheckpointBackoff = DefaultCheckpointBackoff
	}
	if opts.CheckpointBackoffMax <= 0 {
		opts.CheckpointBackoffMax = DefaultCheckpointBackoffMax
	}
	if opts.FS == nil {
		opts.FS = OS
	}
	switch opts.Sync {
	case SyncAlways, SyncNever, SyncGroup:
	default:
		// An unknown policy must not fall into AppendAck's SyncGroup branch
		// with no syncer running: records would stage forever, unfsynced,
		// with their durability callbacks never firing.
		return nil, fmt.Errorf("persist: unknown sync policy %d", opts.Sync)
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// One DB per directory: concurrent processes recovering, appending and
	// garbage-collecting the same generation chain would destroy it. The
	// lock dies with the process, so a crash never blocks recovery.
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	opened := false
	defer func() {
		if !opened {
			unlockDir(lock)
		}
	}()
	c, err := walkChain(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	if c.loaded == nil && len(c.snaps) > 0 {
		// Snapshots exist but none loads: starting empty would silently
		// abandon durable history.
		return nil, fmt.Errorf("persist: no loadable snapshot in %s: %w", dir, errors.Join(c.snapErrs...))
	}
	if errors.Is(c.stop, errTornRotation) {
		// Every acknowledged record lives at or below the previous
		// generation: drop the file and resume that one.
		if err := opts.FS.Remove(walPath(dir, c.wals[len(c.wals)-1])); err != nil {
			return nil, err
		}
	} else if c.stop != nil {
		// Damage a crash cannot explain: refuse rather than silently drop
		// applied history.
		return nil, c.stop
	}
	// A torn final record of the newest WAL is a crash mid-append.
	if err := c.trimTip(opts.FS, dir); err != nil {
		return nil, err
	}

	db := &DB{dir: dir, opts: opts, fs: opts.FS, gen: c.start(), lock: lock, loaded: c.loaded, tail: c.tail}
	db.om = newDBMetrics(opts.Obs)
	tip, tipExists := c.tip() // the newest WAL of the run stays the active generation
	if tipExists {
		db.gen = tip.gen
	}

	// Fencing. A TERM fence file outranking both the chain and the caller's
	// claim means a follower was promoted and this chain must never accept
	// another write; a caller whose claimed term is below the chain's is
	// itself stale. Checked before the active WAL is created.
	db.term = c.term
	fence, err := readFence(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	if claim := max(c.term, opts.Term); fence > claim {
		return nil, &FencedError{Dir: dir, Term: claim, Fence: fence}
	}
	if opts.Term != 0 && opts.Term < c.term {
		return nil, &FencedError{Dir: dir, Term: opts.Term, Fence: c.term}
	}
	if opts.Term > c.term {
		// Promotion: mint the new term before any write. A fresh generation
		// keeps every WAL file single-term (its header IS the durable term
		// record); when the active generation's WAL does not exist yet — a
		// bootstrap directory, or every WAL superseded — that generation
		// simply starts at the new term.
		db.term = opts.Term
		if tipExists {
			db.gen++
			tipExists = false
		}
	}

	// Open (or create) the active WAL for appending. The record counter is
	// seeded with the recovered tail of the active generation, so the
	// CheckpointRecords trigger accounts for replay debt already on disk —
	// otherwise a crash-looping server could grow the tail (and the next
	// boot's recovery time) without ever tripping a checkpoint. A fresh
	// active WAL follows the run's tip, if any.
	if err := db.openActiveWAL(tip.valid); err != nil {
		return nil, err
	}
	db.chainBytes = c.bytes
	if tipExists {
		db.walRecords = tip.recs
	} else {
		db.chainBytes += db.walSize // the active WAL was created fresh above
	}
	// Remove files superseded by the loaded snapshot.
	db.gcFails.Add(removeBelow(db.fs, dir, c.start()))
	if opts.Sync == SyncGroup {
		db.loneWriter.Store(true) // first durable ack should not wait out a window
		db.syncKick = make(chan struct{}, 1)
		db.syncDone = make(chan struct{})
		db.syncWg.Add(1)
		go db.syncer()
	}
	registerDBFuncs(opts.Obs, db)
	opened = true
	return db, nil
}

// openActiveWAL opens wal-gen for appending, creating it with a fresh header
// when absent — begun after a previous WAL of prev bytes, 0 when none. Called
// with db.mu effectively held (Open and rotate).
func (db *DB) openActiveWAL(prev int64) error {
	path := walPath(db.dir, db.gen)
	f, err := db.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if st.Size() == 0 {
		if _, err := f.Write(encodeWALHeader(db.gen, db.term, prev)); err != nil {
			f.Close()
			return err
		}
		// Headers are synced eagerly under both durable policies: rotation
		// is rare, and a group fsync must never be the only thing standing
		// between a fresh generation's header and power loss.
		if db.opts.Sync != SyncNever {
			if err := f.Sync(); err != nil {
				f.Close()
				return err
			}
			if err := syncDir(db.fs, db.dir); err != nil {
				f.Close()
				return err
			}
		}
		db.walSize = int64(walHeaderLen)
	} else {
		db.walSize = st.Size()
	}
	db.wal = f
	db.walRecords = 0
	return nil
}

// State returns the snapshot-recovered state, or nil when the directory was
// empty (bootstrap). The caller takes ownership of the contained structures.
func (db *DB) State() *LoadedState { return db.loaded }

// TailLen returns the number of WAL records recovered above the snapshot.
func (db *DB) TailLen() int { return len(db.tail) }

// ReplayTail feeds the recovered WAL tail, in order, through the given
// insert/delete callbacks — wire these to the Writer of one strategy Apply
// (core.Replay does), so replayed runs take the ordinary maintenance path and
// the whole tail is one copy-on-write epoch, published once. Maximal runs of
// same-kind records are coalesced into one callback invocation, which is how
// the live server cuts its mutation queue into WAL records in the first
// place: each maintenance round is then paid once per run instead of once per
// record, which is what keeps recovery (and a replication follower's
// catch-up, which replays through the same path) linear in triples rather
// than in records. Wired to a strategy's own Insert/Delete instead, every run
// is an epoch of its own — correct, but each run then re-copies what the
// previous one froze. Sound because mutations are set-semantic — within a
// same-kind run order is irrelevant and duplicates are absorbed, and the
// insert/delete interleaving is preserved across run boundaries. It returns
// the number of records replayed. The tail is consumed.
func (db *DB) ReplayTail(insert, del func(...rdf.Triple) error) (int, error) {
	var t0 time.Time
	if db.om.on {
		t0 = time.Now()
	}
	n, err := ReplayBatch(db.tail, insert, del)
	if err == nil {
		db.tail = nil
	}
	if db.om.on {
		db.om.replayDuration.ObserveSince(t0)
		db.om.replayRecords.Add(uint64(n))
	}
	return n, err
}

// ReplayBatch feeds an arbitrary record sequence through ReplayTail's
// coalescing replay path; a replication follower applies the records of one
// streamed chunk with it. Every coalesced run is a slice of its own: a
// callback may keep the run it was handed (to apply a whole epoch at its
// end, say) without the next run overwriting it.
func ReplayBatch(recs []Mutation, insert, del func(...rdf.Triple) error) (int, error) {
	for i := 0; i < len(recs); {
		j := i + 1
		n := len(recs[i].Triples)
		for j < len(recs) && recs[j].Del == recs[i].Del {
			n += len(recs[j].Triples)
			j++
		}
		ts := recs[i].Triples
		if j > i+1 { // coalesce the run; a lone record replays in place
			ts = make([]rdf.Triple, 0, n)
			for k := i; k < j; k++ {
				ts = append(ts, recs[k].Triples...)
			}
		}
		var err error
		if recs[i].Del {
			err = del(ts...)
		} else {
			err = insert(ts...)
		}
		if err != nil {
			return i, fmt.Errorf("persist: replaying records %d..%d: %w", i, j-1, err)
		}
		i = j
	}
	return len(recs), nil
}

// Dirty reports whether the active WAL holds any records — i.e. whether the
// present state is not fully captured by the newest snapshot. Clean-shutdown
// paths use it to skip a pointless final checkpoint.
func (db *DB) Dirty() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.walSize > int64(walHeaderLen)
}

// Generation returns the active WAL generation (stats, tests).
func (db *DB) Generation() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.gen
}

// Term returns the replication fencing term the DB is serving under. It is
// fixed at Open (the recovered chain's term, or Options.Term when that minted
// a newer one) and appears in every WAL and snapshot header the DB writes.
func (db *DB) Term() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.term
}

// TipPos returns the position just past the last WAL record written — the
// commit watermark a fleet session carries from the primary to a follower,
// whose reads then wait until their applied prefix covers it. Monotonic in
// ChainPos order: rotation moves Gen up, promotion moves Term up.
func (db *DB) TipPos() ChainPos {
	db.mu.Lock()
	defer db.mu.Unlock()
	return ChainPos{Term: db.term, Gen: db.gen, Off: db.walSize}
}

// DropRecovered releases the memory of the recovery products (the loaded
// snapshot state and the decoded WAL tail) without replaying them. Promotion
// uses it: the follower's strategy already applied every record it mirrored,
// so the freshly opened DB's copy of that history is redundant.
func (db *DB) DropRecovered() {
	db.loaded = nil
	db.tail = nil
}

// Stats is a point-in-time health view of the DB. Server.Health folds it
// into the serving-layer report; operators alert on ChainBytes (approaching
// MaxWALBytes means checkpoints are failing), CheckpointFailures and
// GCRemoveFailures.
type Stats struct {
	// Generation is the active WAL generation.
	Generation uint64
	// Term is the replication fencing term the DB serves under.
	Term uint64
	// WALSize is the active WAL file's size in bytes.
	WALSize int64
	// WALRecords counts records in the active generation (including a
	// recovered tail).
	WALRecords int
	// ChainBytes is the byte total across every live WAL generation — the
	// quantity Options.MaxWALBytes bounds, and exactly the replay debt the
	// next recovery pays.
	ChainBytes int64
	// LastCheckpoint is the completion time of the last durable checkpoint
	// written by this process; zero if none completed yet.
	LastCheckpoint time.Time
	// CheckpointFailures counts failed checkpoint attempts (cumulative).
	CheckpointFailures int64
	// CheckpointRetryPending reports that the last checkpoint failed and a
	// backoff retry is scheduled.
	CheckpointRetryPending bool
	// GCRemoveFailures counts superseded-file removals that failed
	// (cumulative); each is re-attempted on the next checkpoint's GC pass.
	GCRemoveFailures int64
}

// Stats returns the DB's current health counters. Safe for any goroutine.
func (db *DB) Stats() Stats {
	var st Stats
	db.mu.Lock()
	st.Generation = db.gen
	st.Term = db.term
	st.WALSize = db.walSize
	st.WALRecords = db.walRecords
	st.ChainBytes = db.chainBytes
	db.mu.Unlock()
	db.bgMu.Lock()
	st.LastCheckpoint = db.lastCkpt
	st.CheckpointRetryPending = db.retryPending
	db.bgMu.Unlock()
	st.CheckpointFailures = db.ckptFails.Load()
	st.GCRemoveFailures = db.gcFails.Load()
	return st
}

// Close waits for any in-flight checkpoint, completes staged group-commit
// acks under the final sync, stops the syncer, syncs and closes the active
// WAL, and returns the latest background checkpoint error if no retry ever
// recovered from it. The DB must not be used afterwards.
func (db *DB) Close() error {
	//lint:ignore ctxblock shutdown wait for the in-flight background checkpoint only; one checkpoint is a bounded amount of work
	db.bg.Wait()
	db.syncMu.Lock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		db.syncMu.Unlock()
		return nil
	}
	db.closed = true
	acks := db.staged
	db.staged = nil
	db.syncPending = false // the final sync covers everything written
	db.stagedRecs = 0
	gerr := db.groupErr
	serr := db.wal.Sync()
	err := serr
	if cerr := db.wal.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = gerr // a sticky group-fsync failure must not vanish on close
	}
	unlockDir(db.lock)
	db.mu.Unlock()
	db.syncMu.Unlock()
	// Durable iff the final sync succeeded AND no earlier group fsync
	// failed — records behind a durability hole must not be acknowledged.
	ackErr := serr
	if gerr != nil {
		ackErr = gerr
	}
	fireAcks(acks, ackErr)
	if db.syncDone != nil {
		close(db.syncDone)
		//lint:ignore ctxblock shutdown wait: syncDone just closed and the syncer selects on it, so it exits within one group-fsync round
		db.syncWg.Wait()
	}
	db.bgMu.Lock()
	if err == nil {
		err = db.bgErr
	}
	db.bgMu.Unlock()
	return err
}
