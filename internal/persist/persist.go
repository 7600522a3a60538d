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
// Open picks the highest generation with a valid snapshot (falling back past
// an unreadable one when an older valid snapshot plus the intervening WALs
// still cover the full history), loads it, and exposes the concatenated WAL
// tail for the caller to replay through its strategy. A torn final record —
// the signature of a crash mid-append — is truncated away; damage anywhere
// else refuses to open rather than silently dropping applied history.
package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	// Sweep snapshot temporaries orphaned by a crash mid-checkpoint: the
	// atomic rename means they were never part of the durable state, and
	// nothing else ever deletes them.
	if entries, err := opts.FS.ReadDir(dir); err == nil {
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".snap.tmp") {
				opts.FS.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	snaps, wals, err := scanDir(opts.FS, dir)
	if err != nil {
		return nil, err
	}

	db := &DB{dir: dir, opts: opts, fs: opts.FS, gen: 1, lock: lock}
	db.om = newDBMetrics(opts.Obs)
	activeRecords := 0
	chainBytes := int64(0) // bytes of live non-active WAL generations

	// Load the newest valid snapshot; fall back past unreadable ones (a
	// crash cannot produce a half-renamed snapshot, but bit rot can produce
	// an unreadable one, and an older snapshot plus the still-present WAL
	// chain covers the same history).
	var snapErrs []error
	for i := len(snaps) - 1; i >= 0; i-- {
		ls, err := readSnapshotFile(opts.FS, snapshotPath(dir, snaps[i]))
		if err != nil {
			snapErrs = append(snapErrs, fmt.Errorf("snap %d: %w", snaps[i], err))
			continue
		}
		db.loaded = ls
		db.gen = snaps[i]
		break
	}
	if db.loaded == nil && len(snaps) > 0 {
		// Snapshots exist but none loads: starting empty would silently
		// abandon durable history.
		return nil, fmt.Errorf("persist: no loadable snapshot in %s: %w", dir, errors.Join(snapErrs...))
	}
	if db.loaded == nil && len(wals) > 0 {
		// Bootstrap directory that already has WALs: resume their chain.
		db.gen = wals[0]
	}

	// Decode the WAL chain from the recovered generation upward. The chain
	// must be contiguous; a gap means files were deleted out from under us.
	// Header terms must never decrease along the chain — ownership only ever
	// moves forward (promotion bumps the term); a regression means files from
	// two histories were mixed.
	chainTerm := uint64(0)
	if db.loaded != nil {
		chainTerm = db.loaded.Term
	}
	expected := db.gen
	for _, g := range wals {
		if g < db.gen {
			continue // superseded by the loaded snapshot; removed below
		}
		if g != expected {
			return nil, fmt.Errorf("%w: generation gap, wal %d where %d was expected", ErrWALCorrupt, g, expected)
		}
		path := walPath(dir, g)
		b, err := opts.FS.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if len(b) < walHeaderLen && g == wals[len(wals)-1] {
			// Torn rotation: a crash between creating the next generation's
			// file and completing its header leaves a short file that never
			// held a record. Drop it and resume the previous generation —
			// every acknowledged record lives at or below that one. A short
			// file anywhere else in the chain is still corruption.
			if err := opts.FS.Remove(path); err != nil {
				return nil, err
			}
			break
		}
		expected = g + 1
		recs, term, validLen, err := decodeWAL(b, g)
		if err != nil {
			return nil, fmt.Errorf("persist: %s: %w", path, err)
		}
		if term < chainTerm {
			return nil, fmt.Errorf("%w: %s carries term %d below the chain's term %d", ErrWALCorrupt, path, term, chainTerm)
		}
		chainTerm = term
		if validLen < int64(len(b)) {
			if g != wals[len(wals)-1] {
				return nil, fmt.Errorf("%w: %s has a torn record but is not the newest log", ErrWALCorrupt, path)
			}
			if err := opts.FS.Truncate(path, validLen); err != nil {
				return nil, err
			}
		}
		db.tail = append(db.tail, recs...)
		activeRecords = len(recs)
		chainBytes += validLen
	}
	if expected > db.gen {
		db.gen = expected - 1 // newest WAL seen stays the active generation
	}

	// Fencing. A TERM fence file outranking both the chain and the caller's
	// claim means a follower was promoted and this chain must never accept
	// another write; a caller whose claimed term is below the chain's is
	// itself stale. Checked before any file is created or removed.
	db.term = chainTerm
	fence, err := readFence(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	if claim := max(chainTerm, opts.Term); fence > claim {
		return nil, &FencedError{Dir: dir, Term: claim, Fence: fence}
	}
	if opts.Term != 0 && opts.Term < chainTerm {
		return nil, &FencedError{Dir: dir, Term: opts.Term, Fence: chainTerm}
	}
	if opts.Term > chainTerm {
		// Promotion: mint the new term before any write. A fresh generation
		// keeps every WAL file single-term (its header IS the durable term
		// record); when the active generation's WAL does not exist yet — a
		// bootstrap directory, or every WAL superseded — that generation
		// simply starts at the new term.
		db.term = opts.Term
		if len(wals) > 0 && wals[len(wals)-1] >= db.gen {
			db.gen++
			activeRecords = 0
		}
	}

	// Open (or create) the active WAL for appending. The record counter is
	// seeded with the recovered tail of the active generation, so the
	// CheckpointRecords trigger accounts for replay debt already on disk —
	// otherwise a crash-looping server could grow the tail (and the next
	// boot's recovery time) without ever tripping a checkpoint.
	if err := db.openActiveWAL(); err != nil {
		return nil, err
	}
	db.walRecords = activeRecords
	if len(wals) == 0 || wals[len(wals)-1] < db.gen {
		chainBytes += db.walSize // the active WAL was created fresh above
	}
	db.chainBytes = chainBytes
	// Remove files superseded by the loaded snapshot.
	db.removeBelow(db.loadedGen())
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

// loadedGen returns the generation recovery started from.
func (db *DB) loadedGen() uint64 {
	if db.loaded != nil {
		return db.loaded.Generation
	}
	return 0
}

// openActiveWAL opens wal-gen for appending, creating it with a fresh header
// when absent. Called with db.mu effectively held (Open and rotate).
func (db *DB) openActiveWAL() error {
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
		if _, err := f.Write(encodeWALHeader(db.gen, db.term)); err != nil {
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
	n, err := replayMutations(db.tail, insert, del, func() { db.tail = nil })
	if db.om.on {
		db.om.replayDuration.ObserveSince(t0)
		db.om.replayRecords.Add(uint64(n))
	}
	return n, err
}

// replayMutations is ReplayTail's coalescing engine, shared with follower
// catch-up. done runs after a fully successful replay (consuming the source).
// Every coalesced run is a slice of its own: a callback may keep the run it
// was handed (to apply a whole epoch at its end, say) without the next run
// overwriting it.
func replayMutations(recs []Mutation, insert, del func(...rdf.Triple) error, done func()) (int, error) {
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
	if done != nil {
		done()
	}
	return len(recs), nil
}

// ReplayBatch feeds an arbitrary record sequence through the same coalescing
// replay path as ReplayTail. A replication follower uses it to apply the
// records of one streamed chunk as maximal same-kind runs.
func ReplayBatch(recs []Mutation, insert, del func(...rdf.Triple) error) (int, error) {
	return replayMutations(recs, insert, del, nil)
}

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
	for _, a := range acks {
		a(err)
	}
}

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
	if err := db.openActiveWAL(); err != nil {
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

// fireAcks invokes each durability callback with err, in staging order.
func fireAcks(acks []func(error), err error) {
	for _, a := range acks {
		a(err)
	}
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
	db.removeBelow(gen)
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

// removeBelow deletes snapshots and WALs of generations older than gen. A
// removal failure is counted (Stats.GCRemoveFailures) but not fatal: the
// file is superseded, recovery ignores it as long as the chain above stays
// valid, and the next checkpoint's GC pass — which rescans the directory —
// re-attempts it.
func (db *DB) removeBelow(gen uint64) {
	snaps, wals, err := scanDir(db.fs, db.dir)
	if err != nil {
		db.gcFails.Add(1)
		return
	}
	remove := func(path string) {
		if err := db.fs.Remove(path); err != nil && !os.IsNotExist(err) {
			// ENOENT is not a failure: a concurrent pass already won.
			db.gcFails.Add(1)
		}
	}
	for _, g := range snaps {
		if g < gen {
			remove(snapshotPath(db.dir, g))
		}
	}
	for _, g := range wals {
		if g < gen {
			remove(walPath(db.dir, g))
		}
	}
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

// scanDir lists the snapshot and WAL generations present in dir, ascending.
func scanDir(fsys FS, dir string) (snaps, wals []uint64, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		var g uint64
		switch {
		case matchGen(name, "snap-", ".snap", &g):
			snaps = append(snaps, g)
		case matchGen(name, "wal-", ".wal", &g):
			wals = append(wals, g)
		}
	}
	slices.Sort(snaps)
	slices.Sort(wals)
	return snaps, wals, nil
}

// matchGen parses names of the form prefix + 16 hex digits + suffix.
func matchGen(name, prefix, suffix string, g *uint64) bool {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	hex := name[len(prefix) : len(prefix)+16]
	var v uint64
	for i := 0; i < 16; i++ {
		c := hex[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return false
		}
	}
	*g = v
	return true
}
