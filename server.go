package webreason

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/replica"
)

// ServerOptions tunes a Server's mutation batching.
type ServerOptions struct {
	// FlushEvery is the number of queued mutation calls that forces an
	// immediate flush. Taking a snapshot is O(1) on the persistent-trie
	// index, so batching no longer amortises snapshot cost; larger batches
	// still amortise WAL record framing and maintenance-round fixed costs
	// (higher write throughput, staler reads), smaller batches shorten the
	// window in which readers see pre-update state. Zero means
	// DefaultFlushEvery.
	FlushEvery int
	// FlushInterval bounds how long a queued mutation may wait before it is
	// applied even when the batch is not full. Zero means
	// DefaultFlushInterval; negative disables the timer (flushes happen only
	// on a full batch or an explicit Flush/Close).
	FlushInterval time.Duration
	// MaxPending caps the queued-but-unapplied mutation calls; a full queue
	// blocks Insert/Delete until the background writer catches up, so a
	// sustained overload throttles producers instead of growing memory (and
	// final Flush/Close latency) without bound. Zero means
	// DefaultMaxPending; negative disables the cap.
	MaxPending int
	// DB enables durability: every applied mutation run is appended to the
	// write-ahead log before it reaches the strategy, checkpoints are taken
	// at the DB's configured thresholds (from O(1) copy-on-write state
	// snapshots, so writes never stall on serialisation), and Close writes a
	// final checkpoint. The caller opens the DB, replays its recovered tail
	// through the strategy, hands it here, and closes it after Close.
	//
	// A WAL append failure is sticky: the batch that failed to log
	// synchronously and everything after it are not applied, and
	// Insert/Delete/Flush return the error — the server refuses to diverge
	// from its durable history. (Under persist.SyncGroup the fsync is
	// asynchronous: a run whose covering group fsync later fails has
	// already been applied and stays visible, but its durability acks carry
	// the error and every subsequent mutation is refused; see the type
	// doc's durability section.)
	DB *persist.DB
	// NoFinalCheckpoint skips the checkpoint Close normally writes when the
	// WAL is non-empty (used by crash-simulation tests; production servers
	// want the faster next boot).
	NoFinalCheckpoint bool
	// Obs, when set, enables runtime telemetry: the server registers its
	// metric families (query latency by strategy, enqueue/apply latency,
	// batch size, queue depth, watermark lag, rejection counters, session
	// RYW wait) against the registry and observes them on every hot path.
	// Instrumentation is lock-free and allocation-free (see internal/obs);
	// nil keeps the paths at their uninstrumented cost exactly.
	Obs *obs.Registry
	// SlowLog, when set alongside Obs, receives a structured QueryTrace for
	// every read at or above the log's threshold (strategy, plan-cache
	// hit/miss, rows, duration, query text). Ignored without Obs.
	SlowLog *obs.SlowLog
}

// Default batching parameters: small enough that readers lag writers by
// worst-case a few milliseconds, large enough that a sustained write stream
// pays the per-batch WAL and maintenance fixed costs a few hundred times
// less often than a per-call run would.
const (
	DefaultFlushEvery    = 256
	DefaultFlushInterval = 2 * time.Millisecond
	DefaultMaxPending    = 4096
)

// ErrServerClosed is returned by mutations and flushes after Close.
var ErrServerClosed = errors.New("webreason: server closed")

// ErrDegraded marks a server that has dropped to degraded read-only mode: a
// durability failure (failed WAL fsync, checkpoint rotation error, the WAL
// chain hitting its byte bound) made further writes unsafe to acknowledge.
// Reads keep serving the last applied snapshot; every write fails fast with
// a DegradedError wrapping this sentinel — match with
// errors.Is(err, ErrDegraded).
var ErrDegraded = errors.New("webreason: server degraded to read-only")

// DegradedError is the concrete error writes receive from a degraded
// server. It unwraps to both ErrDegraded and the underlying durability
// failure, so errors.Is can match either the mode or the root cause
// (e.g. syscall.ENOSPC, persist.ErrWALBound).
type DegradedError struct {
	// Cause is the durability failure that forced the degradation.
	Cause error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("webreason: server degraded to read-only: %v", e.Cause)
}

func (e *DegradedError) Unwrap() []error { return []error{ErrDegraded, e.Cause} }

// wrapDegraded types a sticky durability error for callers; nil and
// already-wrapped errors pass through.
func wrapDegraded(err error) error {
	if err == nil {
		return nil
	}
	var de *DegradedError
	if errors.As(err, &de) {
		return err
	}
	return &DegradedError{Cause: err}
}

// ErrOverloaded marks a write the server refused to admit: the mutation
// queue stayed at MaxPending until the caller's context expired. It is the
// admission-control primitive — a front end maps it to 429/503 with the
// context's deadline as the retry hint. Match with
// errors.Is(err, ErrOverloaded); the concrete error is an OverloadedError.
var ErrOverloaded = errors.New("webreason: server overloaded")

// OverloadedError reports a write bounced by admission control.
type OverloadedError struct {
	// Pending is the queue depth observed when the caller gave up.
	Pending int
	// Cause is the context error that ended the wait
	// (context.DeadlineExceeded or context.Canceled).
	Cause error
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("webreason: server overloaded: %d mutations pending: %v", e.Pending, e.Cause)
}

func (e *OverloadedError) Unwrap() []error { return []error{ErrOverloaded, e.Cause} }

// Server wraps a Strategy as a goroutine-safe serving layer: any number of
// goroutines may call Query, Ask, Prepare and prepared-query executions
// concurrently with each other and with Insert/Delete, which feed an
// asynchronous batched mutation queue applied by a single background writer.
//
// # Snapshot-isolation semantics
//
// Every read — a Query call, one execution of a prepared query, a session
// read — pins an immutable snapshot of the strategy's state at read start
// and evaluates entirely against that exact version. Snapshots are O(1)
// root-pointer copies of the store's persistent-trie indexes (structural
// sharing; the writer path-copies only what it touches), so pinning one per
// read is free and any number of historical versions can stay live while
// the writer proceeds. The writer swaps the current version in atomically
// after applying each mutation batch — everything one drain of the queue
// took, however many insert and delete runs that is. Readers therefore
// observe:
//
//   - a consistent closure of some prefix of the mutation sequence: all
//     entailments of exactly the base triples from batches applied so far,
//     never a partially-applied batch, never a store mid-maintenance (no
//     torn index state, no half-propagated inferences, no derived triple
//     transiently removed while a deletion checks its support);
//   - monotonic progress: successive reads observe the same or a later
//     prefix, never an earlier one (the snapshot pointer only moves
//     forward);
//   - bounded staleness by default: Insert/Delete enqueue and return, so a
//     read issued immediately afterwards may still see the pre-update
//     snapshot. Call Flush to make every previously enqueued mutation
//     visible to subsequent reads — or use a Session, whose reads always
//     observe that session's own writes (read-your-writes) without slowing
//     anonymous readers down.
//
// What readers can never observe: effects of a mutation call interleaved
// below batch granularity (a batch is applied atomically with respect to
// reads), or state that mixes two batches partially.
//
// # Sessions: read-your-writes
//
// Session (from Server.Session) scopes the stronger consistency level to
// the clients that want it: each session tracks the enqueue watermark of
// its own mutations, and its reads briefly wait — nudging the writer, so
// the wait is a queue drain, not a flush-interval sleep — until the applied
// prefix covers that watermark before evaluating against the then-current
// snapshot. A session read therefore observes every earlier write of the
// same session (plus whatever else has been applied), while reads on the
// Server itself keep the default bounded-staleness behaviour and never
// block on the queue.
//
// # Mutations
//
// Every write is one Mutation — assert or retract a set of triples,
// optionally waiting for durability — and takes one path, Mutate, on the
// Server or on a Session (which additionally advances the session's
// watermark). Insert, Delete, InsertDurable and DeleteDurable are Mutate
// with a background context and the corresponding flags. A mutation is
// validated synchronously — an ill-formed triple is rejected on the call
// itself — and applied asynchronously in enqueue order, batched up to
// FlushEvery calls or FlushInterval of latency, whichever comes first. The
// queue is bounded by MaxPending: when producers sustainedly outrun the
// applier, writes block until it catches up rather than growing the backlog
// (and the staleness window) without bound.
//
// # Durability
//
// With ServerOptions.DB set, the applier cuts each drained queue into
// maximal same-kind runs and write-ahead logs every run — one WAL record —
// before handing it to the strategy, schedules checkpoints at the DB's
// thresholds from O(1) copy-on-write state captures taken at run boundaries,
// and Close ends the log with a final checkpoint. Maintenance is per run,
// publication per drain: the runs of one drain become visible together, once
// the last of them is applied. Because logging happens at application (not
// enqueue), the durable history is exactly the sequence of applied runs:
// recovery replays the WAL tail and reaches precisely the state a reader of
// the crashed server could last have observed, plus any runs that were
// logged but not yet published when the crash came.
//
// What a crash can take with it depends on the DB's sync policy:
//
//   - persist.SyncAlways — every logged run is fsynced before it is applied;
//     a power loss loses at most the run being logged at that instant.
//   - persist.SyncGroup — runs are logged immediately and fsynced in the
//     background, one fsync covering every run staged since the last
//     (group commit); power loss loses at most the staged suffix of runs
//     (bounded by the DB's GroupDelay), never a prefix-internal run. An
//     InsertDurable/DeleteDurable call (or the ack to a Session's durable
//     write) returns only after the covering fsync, so acknowledged writes
//     carry SyncAlways semantics at near-SyncNever applier throughput.
//   - persist.SyncNever — logging is page-cache only; a process crash loses
//     nothing (the OS still holds the pages), power loss may lose the last
//     moments of history.
//
// A Durable mutation (InsertDurable/DeleteDurable) blocks until its WAL
// record is durable under the configured policy; without a DB it degrades to
// "applied to the in-memory state". A plain mutation never waits on an fsync
// under any policy.
//
// # Degraded read-only mode
//
// A durability failure the server cannot write around — a failed WAL append
// or fsync, a checkpoint rotation error, the WAL chain reaching
// DBOptions.MaxWALBytes — flips the server into degraded read-only mode
// rather than killing it or, worse, acknowledging writes it cannot make
// durable. In that mode:
//
//   - reads (Query, Ask, prepared executions) keep serving the last applied
//     snapshot indefinitely;
//   - every write fails fast with a DegradedError wrapping ErrDegraded and
//     the root cause — including writes already queued behind the failure,
//     which are refused, never applied;
//   - session reads stay honest: a Session whose own accepted write was
//     refused gets a DegradedError instead of an answer silently missing
//     that write, while sessions untouched by the divergence keep reading;
//   - Health reports the mode, its cause, and the durability counters an
//     operator needs (WAL chain size, checkpoint age and failures).
//
// Degradation is sticky for the server's lifetime: recovering requires a
// restart, whose WAL replay reconstructs exactly the durable history.
// Failed background checkpoints alone do NOT degrade the server — they
// retry with capped exponential backoff (the WAL chain meanwhile grows,
// bounded by MaxWALBytes, which degrades when hit).
//
// # Admission control
//
// Mutate's context bounds the MaxPending backpressure wait: a write that
// cannot be admitted before its context expires returns an OverloadedError
// (wrapping ErrOverloaded) carrying the observed queue depth — the hook a
// front end maps to 429/503. For a Durable mutation it additionally bounds
// the durability wait; cancelling that wait abandons the acknowledgement,
// not the write.
type Server struct {
	strat core.Strategy
	opts  ServerOptions
	// follower is the replication state machine behind a follower-mode
	// server (NewFollowerServer); nil on a plain primary. It keeps serving
	// after promotion (frozen): its strategy object is the promoted server's,
	// so queries prepared before promotion stay bound to it.
	follower *replica.Follower
	// role is the replication role (Role), atomic so every read path can
	// route without touching mu. It changes exactly once: follower→promoted.
	role atomic.Int32
	// ownDB marks a DB the server opened itself (promotion) and must close.
	ownDB bool
	// om is the instrumentation surface (disabled zero value without
	// ServerOptions.Obs); by value so hot paths dereference no extra pointer.
	om serverMetrics

	mu       sync.Mutex
	cond     *sync.Cond // signalled when applied advances
	queue    []mutation
	enqueued uint64 // total mutation calls accepted
	// applied counts mutation calls applied by the writer. It only advances
	// under mu (followed by a cond broadcast), but is atomic so the session
	// fast path can check its watermark without touching the server mutex.
	applied atomic.Uint64
	durErr  error // sticky WAL append failure; fails further mutations
	closed  bool
	// divergedAt is the enqueue seq of the first accepted mutation the
	// degraded server refused to apply (0 = none). Session reads whose
	// watermark reaches it fail with DegradedError instead of silently
	// serving state that is missing the session's own accepted write; reads
	// below it still have their full read-your-writes guarantee and keep
	// serving. Written once by the writer, read lock-free by sessions.
	divergedAt atomic.Uint64

	kick chan struct{} // nudges the writer loop (capacity 1)
	done chan struct{} // closed to stop the writer loop
	// flushTimer bounds batch latency: armed when the queue goes non-empty,
	// stopped when it drains, so an idle server schedules no wakeups at all.
	flushTimer *time.Timer
	// ckptTimer schedules background checkpoint retries after a failure, so
	// an idle server still re-attempts (and eventually garbage-collects the
	// superseded chain) without waiting for the next mutation.
	ckptTimer *time.Timer
	wg        sync.WaitGroup
}

// mutation is one queued Insert or Delete call. ack, when set, fires once
// the call's WAL record is durable under the DB's sync policy (or, without
// a DB, once the call is applied); a sticky durability error is delivered
// through it instead.
type mutation struct {
	del bool
	ts  []Triple
	ack func(error)
}

// NewServer wraps the strategy. The strategy must not be mutated behind the
// server's back once serving starts; build it, hand it over, and use the
// server's methods from then on. Close must be called to release the
// background writer.
func NewServer(s Strategy, opts ServerOptions) *Server {
	srv := newServer(opts, s.Name())
	srv.strat = s
	registerServerFuncs(opts.Obs, srv)
	srv.wg.Add(1)
	go srv.writer()
	return srv
}

// newServer applies the option defaults and builds a server whose writer is
// not started yet: no strategy, timers disarmed.
func newServer(opts ServerOptions, strategy string) *Server {
	if opts.FlushEvery <= 0 {
		opts.FlushEvery = DefaultFlushEvery
	}
	if opts.FlushInterval == 0 {
		opts.FlushInterval = DefaultFlushInterval
	}
	if opts.MaxPending == 0 {
		opts.MaxPending = DefaultMaxPending
	}
	srv := &Server{
		opts: opts,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	srv.om = newServerMetrics(opts.Obs, opts.SlowLog, strategy)
	srv.cond = sync.NewCond(&srv.mu)
	srv.flushTimer = time.NewTimer(time.Hour)
	srv.flushTimer.Stop()
	srv.ckptTimer = time.NewTimer(time.Hour)
	srv.ckptTimer.Stop()
	return srv
}

// Strategy returns the serving strategy (for stats and advisory helpers; do
// not mutate it directly while the server is live). On a follower it is the
// replica's current strategy and may be swapped by a re-bootstrap — re-fetch
// it per use rather than caching it.
func (s *Server) Strategy() Strategy { return s.reading() }

// Query answers q against the current snapshot; safe for any number of
// concurrent callers.
func (s *Server) Query(q *Query) (*engine.Result, error) {
	return s.read(context.Background(), nil, q, nil)
}

// Ask reports whether q has any answer against the current snapshot.
func (s *Server) Ask(q *Query) (bool, error) { return core.Ask(s.Query(q)) }

// read is the one read path, behind Server.Query/Ask, the Session reads and
// ServerPrepared.Answer/Ask. A session read (ss non-nil) first waits, bounded
// by ctx, until the applied prefix covers the session's writes; an anonymous
// read skips the barrier. The query is then evaluated — on p's shared plan
// when p is set, ad hoc against the serving strategy otherwise — and, with
// metrics on, timed and noted. With metrics off the path reads no
// clock.
//
//webreason:hotpath
func (s *Server) read(ctx context.Context, ss *Session, q *Query, p *ServerPrepared) (*engine.Result, error) {
	if ss != nil {
		//lint:ignore hotpath the barrier runs for session reads only — anonymous and prepared reads pass no session — and is one atomic load unless the session actually has to wait for the writer
		if err := s.waitSession(ctx, ss); err != nil {
			return nil, err
		}
	}
	if !s.om.on {
		res, _, err := s.eval(q, p)
		return res, err
	}
	t0 := monoNow()
	res, hit, err := s.eval(q, p)
	d := monoNow() - t0
	rows := 0
	if res != nil {
		rows = len(res.Rows)
	}
	//lint:ignore hotpath noteQuery's happy path is counter increments and one Observe; the wall-clock read and query formatting sit in the slow-log branch, entered only after the threshold fires
	s.om.noteQuery(q, p != nil, hit, d, rows, err)
	return res, err
}

// eval answers q against the current snapshot: ad hoc on the serving
// strategy, or — p set — on p's prepared query, re-prepared first when the
// serving strategy is no longer the object it was prepared on (a follower's
// gap re-bootstrap replaces the whole strategy, not just its data; promotion
// keeps the object). hit reports that the execution ran on the plan already
// compiled, with nothing built on this call.
func (s *Server) eval(q *Query, p *ServerPrepared) (res *engine.Result, hit bool, err error) {
	strat := s.reading()
	if p == nil {
		res, err = strat.Answer(q)
		return res, false, err
	}
	b := p.cur.Load()
	swapped := b.strat != strat
	if swapped {
		pq, err := strat.Prepare(q)
		if err != nil {
			return nil, false, err
		}
		b = &boundPrepared{strat: strat, pq: pq}
		p.cur.Store(b)
	}
	res, built, err := b.pq.Execute()
	return res, !swapped && !built, err
}

// Mutation is one write: the assertion, or with Delete the retraction, of a
// set of triples.
type Mutation struct {
	// Delete retracts Triples instead of asserting them.
	Delete bool
	// Durable makes the call return only once the mutation's WAL record is
	// durable under the DB's sync policy — under persist.SyncGroup that is
	// the covering group fsync, so concurrent durable writers share one
	// fsync per burst instead of paying one each. Without a DB it returns
	// once the mutation is applied. A nil return then means the write is
	// logged and fsynced: it survives power loss (SyncAlways/SyncGroup) or
	// process crash (SyncNever).
	Durable bool
	Triples []Triple
}

// Mutate validates m and enqueues it, returning before the batch is applied
// (see the staleness note in the type doc) unless m is Durable. ctx bounds
// the admission wait: if the mutation queue stays at MaxPending until ctx
// expires, Mutate returns an OverloadedError instead of blocking
// indefinitely. For a Durable mutation ctx also bounds the durability wait;
// cancellation there abandons the WAIT, not the write — the mutation is
// already accepted into the applied sequence and its WAL record may still
// become durable; the context error tells the caller "durability
// unconfirmed", not "undone".
func (s *Server) Mutate(ctx context.Context, m Mutation) error { return s.mutate(ctx, nil, m) }

// Insert is Mutate for an assertion, with an unbounded admission wait.
func (s *Server) Insert(ts ...Triple) error {
	return s.mutate(context.Background(), nil, Mutation{Triples: ts})
}

// Delete is Mutate for a retraction, with an unbounded admission wait.
func (s *Server) Delete(ts ...Triple) error {
	return s.mutate(context.Background(), nil, Mutation{Delete: true, Triples: ts})
}

// InsertDurable is Mutate for a Durable assertion, with unbounded waits.
func (s *Server) InsertDurable(ts ...Triple) error {
	return s.mutate(context.Background(), nil, Mutation{Durable: true, Triples: ts})
}

// DeleteDurable is Mutate for a Durable retraction, with unbounded waits.
func (s *Server) DeleteDurable(ts ...Triple) error {
	return s.mutate(context.Background(), nil, Mutation{Delete: true, Durable: true, Triples: ts})
}

// mutate is the one write path: validate and enqueue (admission control
// bounded by ctx), advance the session's watermark when the write came
// through one, and for a Durable mutation wait for the acknowledgement.
func (s *Server) mutate(ctx context.Context, ss *Session, m Mutation) error {
	var acked chan error
	var ack func(error)
	if m.Durable {
		acked = make(chan error, 1)
		//lint:ignore ctxblock the channel is buffered(1) and the ack fires at most once, so the send never blocks
		ack = func(err error) { acked <- err }
	}
	seq, err := s.enqueue(ctx, m.Delete, m.Triples, ack)
	if err != nil {
		return err
	}
	if ss != nil {
		// The watermark advances before the durability wait: even if the ack
		// reports a failure the mutation was accepted into the applied
		// sequence (applied always advances past it, and a refused mutation
		// turns the session's later reads into typed DegradedErrors), so
		// reads stay well-defined.
		ss.note(seq)
	}
	if !m.Durable {
		return nil
	}
	// The caller is explicitly waiting: kick the writer so the ack is a
	// queue drain away, not a FlushInterval sleep away.
	s.nudge()
	if ctx.Done() == nil {
		//lint:ignore ctxblock ctx.Done() is nil so the caller chose an unbounded wait; the ack always fires because the writer drains the queue on close and degrade
		return <-acked
	}
	select {
	case err := <-acked:
		return err
	case <-ctx.Done():
		// Abandons the durability wait only; see Mutate.
		return ctx.Err()
	}
}

// enqueue validates and queues one mutation call, returning its position in
// the accepted sequence (1-based; the watermark Sessions pin reads to). A
// full queue blocks until the writer drains it, the server closes or
// degrades, or ctx expires — the latter returns an OverloadedError carrying
// the observed depth (admission control).
func (s *Server) enqueue(ctx context.Context, del bool, ts []Triple, ack func(error)) (uint64, error) {
	for _, t := range ts {
		if err := t.WellFormed(); err != nil {
			return 0, err
		}
	}
	if s.role.Load() == int32(RoleFollower) {
		// A follower serves reads only; writes belong on the primary until
		// this node is promoted.
		return 0, &NotPrimaryError{Role: RoleFollower}
	}
	m := mutation{del: del, ts: append([]Triple(nil), ts...), ack: ack}
	s.mu.Lock()
	if s.opts.MaxPending > 0 && len(s.queue) >= s.opts.MaxPending && !s.closed && s.durErr == nil {
		// Backpressure wait. A degraded or closed server exits the loop
		// instead of waiting: the queue will never drain into the strategy
		// again, and the caller gets the fail-fast typed error below. Context
		// expiry must also wake the wait, so the expiry callback broadcasts
		// under mu (guaranteeing it cannot fire between the loop's check and
		// the Wait going to sleep).
		if ctx.Done() != nil {
			stop := context.AfterFunc(ctx, func() {
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			})
			defer stop()
		}
		var waitStart time.Time
		if s.om.on {
			waitStart = time.Now()
		}
		for s.opts.MaxPending > 0 && len(s.queue) >= s.opts.MaxPending && !s.closed && s.durErr == nil {
			if err := ctx.Err(); err != nil {
				depth := len(s.queue)
				s.mu.Unlock()
				s.om.rejectedOverloaded.Inc()
				s.om.enqueueWait.ObserveSince(waitStart)
				return 0, &OverloadedError{Pending: depth, Cause: err}
			}
			// Wake the writer and wait for it to drain. nudge is a
			// non-blocking send, safe while holding mu.
			s.nudge()
			s.cond.Wait()
		}
		if s.om.on {
			s.om.enqueueWait.Observe(time.Since(waitStart).Nanoseconds())
		}
	}
	if s.closed {
		s.mu.Unlock()
		return 0, ErrServerClosed
	}
	if s.durErr != nil {
		err := s.durErr
		s.mu.Unlock()
		s.om.rejectedDegraded.Inc()
		return 0, wrapDegraded(err)
	}
	s.queue = append(s.queue, m)
	s.enqueued++
	seq := s.enqueued
	full := len(s.queue) >= s.opts.FlushEvery
	first := len(s.queue) == 1
	s.mu.Unlock()
	if full {
		s.nudge()
	} else if first && s.opts.FlushInterval > 0 {
		// Arm the latency bound only when the queue goes non-empty: an idle
		// server's writer then blocks on kick/done with no periodic wakeups.
		s.flushTimer.Reset(s.opts.FlushInterval)
	}
	return seq, nil
}

// waitApplied blocks until the applier has applied (or, after degradation,
// refused) the first seq accepted mutation calls. The common case — the
// watermark is already applied — is a single atomic load (observing
// applied >= seq happens-after the covering snapshot swap, which the writer
// performs before advancing the counter), so session reads do not contend on
// the server mutex. On the slow path the writer is kicked first, so the wait
// is bounded by the current queue's application, not by the flush timer.
//
// It returns a DegradedError when the watermark covers a mutation the
// degraded server refused to apply: the write will never become visible, so
// waiting longer cannot help and answering the read would silently violate
// read-your-writes. Watermarks entirely below the divergence point (and the
// zero watermark of a session that never wrote) keep reading normally — the
// degraded server serves its last applied snapshot. With ctx cancellable,
// expiry ends the wait with the context error.
func (s *Server) waitApplied(ctx context.Context, seq uint64) error {
	if err := s.checkDiverged(seq); err != nil {
		return err
	}
	if s.applied.Load() >= seq {
		return nil
	}
	// Slow path: the caller actually waits. The defer's closure allocation
	// is acceptable here — the caller is about to block on the writer.
	if s.om.on {
		t0 := time.Now()
		defer func() { s.om.sessionWait.ObserveSince(t0) }()
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		defer stop()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The writer drains the queue on kicks and on its way out (advancing
	// applied past refused mutations too), so this wait terminates even when
	// Close or a durability failure races it.
	for s.applied.Load() < seq {
		if d := s.divergedAt.Load(); d != 0 && seq >= d {
			return wrapDegraded(s.durErr)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		s.nudge()
		s.cond.Wait()
	}
	if d := s.divergedAt.Load(); d != 0 && seq >= d {
		return wrapDegraded(s.durErr)
	}
	return nil
}

// checkDiverged returns the typed degraded error when watermark seq covers a
// mutation the degraded server refused to apply. Lock-free in the healthy
// case: divergedAt is only ever written once. Must be called without mu.
func (s *Server) checkDiverged(seq uint64) error {
	if d := s.divergedAt.Load(); d != 0 && seq >= d {
		s.mu.Lock()
		err := s.durErr
		s.mu.Unlock()
		return wrapDegraded(err)
	}
	return nil
}

// Flush blocks until every mutation enqueued before the call has been
// applied, making it visible to subsequent reads. With durability enabled it
// returns the sticky WAL error if logging failed (the affected batches were
// not, and will not be, applied).
func (s *Server) Flush() error {
	s.mu.Lock()
	target := s.enqueued
	s.mu.Unlock()
	// The writer always drains the queue (on kicks, ticks and on its way
	// out), so applied reaches target even when Close races this call.
	if err := s.waitApplied(context.Background(), target); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return wrapDegraded(s.durErr)
}

// Health is a point-in-time report of the serving layer's condition, for
// operator dashboards and load balancers. All fields are observed without
// stopping the writer; the durability fields are zero without a DB.
type Health struct {
	// Degraded reports degraded read-only mode: reads serve the last applied
	// snapshot, writes fail fast with a DegradedError whose cause is
	// DegradedCause.
	Degraded bool
	// DegradedCause is the durability failure behind the degradation; nil
	// when healthy.
	DegradedCause error
	// Closed reports a server after Close (reads still work).
	Closed bool

	// Role is the server's replication role. A plain NewServer is
	// RolePrimary; see NewFollowerServer and Server.Promote.
	Role Role
	// Position is the durable chain position of the last logged write (zero
	// without a DB) — the watermark a primary hands to sessions so follower
	// reads can wait for it.
	Position Position
	// ReplicaApplied is the position a follower has applied through (its
	// last-applied watermark); ReplicaLagBytes / ReplicaLagRecords measure
	// how far the source was ahead at the last poll (records are estimated
	// from the follower's applied history; -1 with no history yet), and
	// ReplicaEpoch counts serving-state rebootstraps. All zero outside
	// follower mode.
	ReplicaApplied    Position
	ReplicaLagBytes   int64
	ReplicaLagRecords int64
	ReplicaEpoch      uint64

	// Enqueued counts accepted mutation calls; Applied counts those the
	// writer has applied (or, after degradation, refused). Lag — the
	// applied-watermark lag — is Enqueued-Applied: how far reads may trail
	// writes, the queue depth plus the batch in flight.
	Enqueued, Applied, Lag uint64
	// Pending is the current queued-but-unapplied depth the MaxPending
	// admission bound applies to.
	Pending int

	// WALGeneration is the active WAL generation.
	WALGeneration uint64
	// WALBytes is the active WAL's size — the bytes written since the last
	// completed checkpoint began its generation.
	WALBytes int64
	// WALChainBytes is the byte total across every live WAL generation: the
	// replay debt the next recovery pays, bounded by DBOptions.MaxWALBytes.
	// It exceeds WALBytes exactly when checkpoints are failing.
	WALChainBytes int64
	// WALRecords counts records in the active generation.
	WALRecords int
	// LastCheckpoint is when the last durable checkpoint completed (zero if
	// none this process); CheckpointAge is time since then (0 when zero).
	LastCheckpoint time.Time
	CheckpointAge  time.Duration
	// CheckpointFailures counts failed checkpoint attempts;
	// CheckpointRetryPending reports a capped-backoff retry is scheduled.
	CheckpointFailures     int64
	CheckpointRetryPending bool
	// GCRemoveFailures counts superseded-generation files whose removal
	// failed (each is re-attempted on the next GC pass).
	GCRemoveFailures int64
}

// Health returns the server's current health report. Safe for any
// goroutine, cheap enough to poll.
func (s *Server) Health() Health {
	var h Health
	h.Role = s.Role()
	s.mu.Lock()
	h.Degraded = s.durErr != nil
	h.DegradedCause = s.durErr
	h.Closed = s.closed
	h.Enqueued = s.enqueued
	h.Pending = len(s.queue)
	// applied only advances under mu, so reading it here keeps
	// Lag = Enqueued-Applied from racing into uint64 wraparound.
	h.Applied = s.applied.Load()
	// opts.DB is written by Promote (under mu); snapshot it here.
	db := s.opts.DB
	s.mu.Unlock()
	h.Lag = h.Enqueued - h.Applied
	if h.Role == RoleFollower {
		st := s.follower.Status()
		h.ReplicaApplied = st.Applied
		h.ReplicaLagBytes = st.LagBytes
		h.ReplicaLagRecords = st.LagRecords
		h.ReplicaEpoch = st.Epoch
		if st.Err != nil {
			// A terminally-failed replication loop (fenced source) is the
			// follower's degraded read-only mode: it serves its last applied
			// state and can never advance.
			h.Degraded = true
			h.DegradedCause = st.Err
		}
	}
	if db != nil {
		h.Position = db.TipPos()
		st := db.Stats()
		h.WALGeneration = st.Generation
		h.WALBytes = st.WALSize
		h.WALChainBytes = st.ChainBytes
		h.WALRecords = st.WALRecords
		h.LastCheckpoint = st.LastCheckpoint
		if !st.LastCheckpoint.IsZero() {
			h.CheckpointAge = time.Since(st.LastCheckpoint)
		}
		h.CheckpointFailures = st.CheckpointFailures
		h.CheckpointRetryPending = st.CheckpointRetryPending
		h.GCRemoveFailures = st.GCRemoveFailures
	}
	return h
}

// Close flushes pending mutations, stops the background writer and marks
// the server closed. Further mutations return ErrServerClosed; reads keep
// working against the final state. With durability enabled, Close also ends
// the WAL with a final checkpoint (unless NoFinalCheckpoint), so the next
// boot loads one snapshot with an empty tail; the caller still owns the DB
// and must Close it afterwards (except the DB a promotion opened, which the
// server closes itself). On a follower, Close stops replication and closes
// the local mirror. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		//lint:ignore ctxblock shutdown wait: done is already closed, so the writer exits after one bounded queue drain
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	if s.Role() == RoleFollower {
		// Never-promoted follower: no writer goroutine, no queue; stop
		// replication and close the local mirror. Reads keep serving the last
		// applied state; pending waits get typed errors via the follower.
		return s.follower.Stop()
	}
	//lint:ignore ctxblock shutdown wait: done just closed, so the writer exits after one bounded queue drain
	s.wg.Wait() // the writer drains the queue on its way out
	s.mu.Lock()
	durErr := s.durErr
	s.mu.Unlock()
	err := wrapDegraded(durErr)
	if err == nil && s.opts.DB != nil && !s.opts.NoFinalCheckpoint && s.opts.DB.Dirty() {
		// Wrapped like every other durability failure: callers see one typed
		// taxonomy (the WAL already holds the un-checkpointed history, so a
		// failed final snapshot degrades the shutdown, it does not lose data).
		err = wrapDegraded(s.opts.DB.Checkpoint(s.strat.DurableState()))
	}
	if s.ownDB {
		// A promoted server opened its DB itself (Promote); a NewServer
		// caller still owns theirs.
		if cerr := s.opts.DB.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// nudge wakes the writer loop without blocking.
func (s *Server) nudge() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// fireAcks delivers one durability outcome to every covered mutation call.
func fireAcks(acks []func(error), err error) {
	for _, a := range acks {
		a(err)
	}
}

// asyncDurErr records a durability failure — delivered asynchronously (a
// failed group fsync) or found by the writer itself — as the sticky error, so
// mutations after the failed record are refused instead of diverging from
// the durable history. The writer calls it before it fires a refused run's
// acks, so Health().Degraded never lags an ErrDegraded a caller has seen.
func (s *Server) asyncDurErr(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.durErr == nil {
		s.durErr = err
	}
	s.mu.Unlock()
}

// Session scopes read-your-writes consistency to one client: its reads
// always observe its own earlier writes, while Server-level reads keep the
// default bounded-staleness behaviour. A Session is cheap (two words) and
// safe for concurrent use, though its consistency guarantee is per call:
// a read observes every write whose Session method returned before the
// read started.
//
// Writes through a session are the server's — the same Mutate path, queue,
// batching and durability — plus watermark tracking: each call records its
// enqueue position, and reads wait (nudging the writer, so typically
// microseconds) until the applied prefix covers the session's watermark
// before evaluating against the then-current snapshot.
type Session struct {
	s    *Server
	mark atomic.Uint64 // highest enqueue seq of this session's mutations
	// pos is the highest fleet position this session must observe — carried
	// from a primary (Position) to a follower (ObservePosition), where reads
	// wait until the applied prefix covers it. Nil until observed.
	pos atomic.Pointer[Position]
}

// Session returns a new read-your-writes session on the server.
func (s *Server) Session() *Session { return &Session{s: s} }

// note advances the session watermark to seq (monotonic).
func (ss *Session) note(seq uint64) {
	for {
		cur := ss.mark.Load()
		if seq <= cur || ss.mark.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Mutate is Server.Mutate with session watermark tracking: the write becomes
// visible to this session's subsequent reads, and — when m is Durable — is
// durably logged on return.
func (ss *Session) Mutate(ctx context.Context, m Mutation) error { return ss.s.mutate(ctx, ss, m) }

// Insert is Mutate for an assertion, with an unbounded admission wait.
func (ss *Session) Insert(ts ...Triple) error {
	return ss.s.mutate(context.Background(), ss, Mutation{Triples: ts})
}

// Delete is Mutate for a retraction, with an unbounded admission wait.
func (ss *Session) Delete(ts ...Triple) error {
	return ss.s.mutate(context.Background(), ss, Mutation{Delete: true, Triples: ts})
}

// InsertDurable is Mutate for a Durable assertion, with unbounded waits.
func (ss *Session) InsertDurable(ts ...Triple) error {
	return ss.s.mutate(context.Background(), ss, Mutation{Durable: true, Triples: ts})
}

// DeleteDurable is Mutate for a Durable retraction, with unbounded waits.
func (ss *Session) DeleteDurable(ts ...Triple) error {
	return ss.s.mutate(context.Background(), ss, Mutation{Delete: true, Durable: true, Triples: ts})
}

// Query answers q against a snapshot whose applied prefix covers every
// earlier write of this session (read-your-writes); see the Session doc.
// After a durability failure it returns a DegradedError when — and only
// when — the session's watermark covers a write the degraded server refused
// to apply: answering then would silently drop the session's own accepted
// write, while sessions below the divergence keep reading normally.
func (ss *Session) Query(q *Query) (*engine.Result, error) {
	return ss.s.read(context.Background(), ss, q, nil)
}

// QueryContext is Query with the read-your-writes wait bounded by ctx.
func (ss *Session) QueryContext(ctx context.Context, q *Query) (*engine.Result, error) {
	return ss.s.read(ctx, ss, q, nil)
}

// Ask reports whether q has any answer, observing the session's own writes.
func (ss *Session) Ask(q *Query) (bool, error) { return core.Ask(ss.Query(q)) }

// AskContext is Ask with the read-your-writes wait bounded by ctx.
func (ss *Session) AskContext(ctx context.Context, q *Query) (bool, error) {
	return core.Ask(ss.QueryContext(ctx, q))
}

// writer is the single mutation applier: it owns all strategy mutation
// calls, so the strategy sees strictly serialized writes. It sleeps on the
// kick channel, the (enqueue-armed) flush timer and the checkpoint-retry
// timer — no periodic polling while healthy and idle.
func (s *Server) writer() {
	defer s.wg.Done()
	defer s.flushTimer.Stop()
	defer s.ckptTimer.Stop()
	for {
		select {
		case <-s.done:
			s.apply()
			return
		case <-s.kick:
		case <-s.flushTimer.C:
		case <-s.ckptTimer.C:
		}
		s.apply()
		s.maybeCheckpoint()
	}
}

// maybeCheckpoint runs the checkpoint policy outside batch application: it
// fires a due checkpoint (including a backoff retry that became due while
// the server sat idle) and keeps the retry timer armed while a failure is
// pending, so retries don't depend on new mutations arriving. A rotation
// failure here degrades the server exactly like one at a run boundary.
func (s *Server) maybeCheckpoint() {
	if s.opts.DB == nil {
		return
	}
	if s.opts.DB.CheckpointDue() {
		if err := s.opts.DB.CheckpointAsync(s.strat.DurableState()); err != nil {
			s.asyncDurErr(err)
		}
	}
	if d, ok := s.opts.DB.CheckpointRetryAfter(); ok {
		// Floor the re-arm so a just-due retry blocked by an in-flight
		// attempt re-checks soon without spinning.
		s.ckptTimer.Reset(max(d, time.Millisecond))
	}
}

// apply drains the queue as one write epoch of maximal same-kind runs. Each
// run is one WAL record and one maintenance round, logged then applied in
// enqueue order, so a burst of Inserts costs one of each and the order across
// kinds is preserved; the strategy's stores are frozen and its view swapped
// once, after the last run — the copy-on-write a published snapshot costs the
// next write is paid per drain, however the insert/delete mix cuts the runs.
// Readers therefore move from one drain boundary to the next, and applied
// advances only after the swap, which is what Flush and session reads wait on.
func (s *Server) apply() {
	// Disarm the latency timer before grabbing the queue: any mutation
	// enqueued earlier is included in this batch, and one enqueued later
	// performs its 0→1 Reset strictly after this Stop, so no queued
	// mutation is ever left without an armed latency bound. (Stopping after
	// the grab could race such a Reset and swallow it.)
	s.flushTimer.Stop()
	s.mu.Lock()
	batch := s.queue
	s.queue = nil
	// Seed the round's error from the sticky flag: mutations that were
	// already queued when a previous round's WAL append failed must not be
	// logged or applied either — the documented guarantee is that nothing
	// after the failed batch reaches the strategy (their callers see the
	// error via Flush; applied still advances below so waiters unblock).
	durErr := s.durErr
	s.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	var applyStart time.Time
	if s.om.on {
		applyStart = time.Now()
	}
	// firstRefused is the batch index of the first mutation call this round
	// refused to apply (durability failure), -1 if none: it pins divergedAt,
	// the seq where session read-your-writes guarantees stop being served.
	firstRefused := -1
	refused := func(runStart int) {
		if firstRefused < 0 || runStart < firstRefused {
			firstRefused = runStart
		}
	}
	var run []Triple
	var runAcks []func(error)
	// appliedAcks are the acks of a server without a DB, where "durable"
	// degrades to "applied": they fire once the drain is published, so a
	// caller released by one finds its write visible.
	var appliedAcks []func(error)
	flushRun := func(w core.Writer, del bool, runStart int) {
		acks := runAcks
		runAcks = nil // acks escape into the durability callback; fresh slice per run
		if len(run) == 0 {
			// A run of zero-triple mutation calls: nothing to log or apply,
			// so durability holds vacuously — but the acks must still fire,
			// or an empty InsertDurable would wait forever.
			fireAcks(acks, nil)
			return
		}
		if durErr == nil {
			// Pick up an asynchronous group-fsync failure recorded since the
			// previous run: nothing may be logged or applied after it.
			s.mu.Lock()
			durErr = s.durErr
			s.mu.Unlock()
		}
		if durErr != nil {
			refused(runStart)
			// Sticky before the acks: a caller handed ErrDegraded must find
			// Health().Degraded already set.
			s.asyncDurErr(durErr)
			fireAcks(acks, wrapDegraded(durErr))
			run = run[:0]
			return
		}
		// Write-ahead: the run is durably logged before the strategy sees
		// it. If logging fails the run is NOT applied (and neither is
		// anything after it) — replay-on-recovery and the live state must
		// describe the same history; the runs logged before it are applied
		// and are published with the rest of the drain. Re-applying a
		// logged-but-unapplied run after a crash is harmless: strategy
		// Insert/Delete absorb duplicates.
		if s.opts.DB != nil {
			// The durability callback fans the record's completion out to
			// every covered mutation call and records an asynchronous
			// failure as the sticky error. Under SyncAlways/SyncNever it
			// runs inline here; under SyncGroup it runs on the DB's syncer
			// after the covering fsync, while this loop is already logging
			// and applying later runs.
			ack := s.asyncDurErr
			if len(acks) > 0 {
				ack = func(err error) {
					s.asyncDurErr(err)
					fireAcks(acks, wrapDegraded(err))
				}
			}
			if err := s.opts.DB.AppendAck(del, run, ack); err != nil {
				durErr = err
				refused(runStart)
				s.asyncDurErr(err)
				fireAcks(acks, wrapDegraded(err))
				run = run[:0]
				return
			}
		} else {
			appliedAcks = append(appliedAcks, acks...)
		}
		// Strategy errors are impossible here: triples were validated on
		// enqueue and strategy mutation paths only fail on ill-formed input.
		if del {
			w.Delete(run...)
		} else {
			w.Insert(run...)
		}
		run = run[:0]
		// Checkpoint scheduling rides every run boundary, not just drain
		// ends: under sustained load one drained batch can hold thousands of
		// runs and take seconds to log and apply (especially with per-record
		// fsync), and the strategy state and WAL position agree exactly here
		// — the run was logged, then applied. The O(1) state capture plus
		// the DB's background serialisation keep this loop unstalled; the
		// DB's in-flight guard makes extra Due checks free.
		if s.opts.DB != nil && s.opts.DB.CheckpointDue() {
			if err := s.opts.DB.CheckpointAsync(w.DurableState()); err != nil {
				durErr = err
			}
		}
	}
	s.strat.Apply(func(w core.Writer) error {
		cur := batch[0].del
		runStart := 0
		for i, m := range batch {
			if m.del != cur {
				flushRun(w, cur, runStart)
				cur = m.del
				runStart = i
			}
			run = append(run, m.ts...)
			if m.ack != nil {
				runAcks = append(runAcks, m.ack)
			}
		}
		flushRun(w, cur, runStart)
		return nil
	})
	fireAcks(appliedAcks, nil)
	if s.om.on {
		// Observed before applied advances, so whoever a Flush releases finds
		// the drain counted: views published per drain is then an exact ratio.
		s.om.applyLatency.ObserveSince(applyStart)
		s.om.batchSize.Observe(int64(len(batch)))
	}
	s.mu.Lock()
	if firstRefused >= 0 && s.divergedAt.Load() == 0 {
		// Seq of batch[i] is applied-before-this-batch + i + 1; applied has
		// not advanced yet, and only this goroutine advances it.
		s.divergedAt.Store(s.applied.Load() + uint64(firstRefused) + 1)
	}
	s.applied.Add(uint64(len(batch)))
	if durErr != nil && s.durErr == nil {
		s.durErr = durErr
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Len returns the strategy's physical size as of the current snapshot.
func (s *Server) Len() int { return s.reading().Len() }

// Prepare compiles q for repeated concurrent execution against the server;
// compile-time errors surface here. The returned ServerPrepared is safe for
// any number of concurrent callers: they share one compiled plan, each
// execution runs on scratch from the engine's pool, and the plan is replaced
// — for everyone, by whoever notices — when core's validity rule says so.
func (s *Server) Prepare(q *Query) (*ServerPrepared, error) {
	strat := s.reading()
	pq, err := strat.Prepare(q)
	if err != nil {
		return nil, err
	}
	sp := &ServerPrepared{s: s, q: q}
	sp.cur.Store(&boundPrepared{strat: strat, pq: pq})
	return sp, nil
}

// ServerPrepared is a prepared query bound to a Server, safe for concurrent
// execution. Each execution evaluates against the server's current snapshot;
// see the Server type doc for exactly what that snapshot can contain.
type ServerPrepared struct {
	s   *Server
	q   *Query
	cur atomic.Pointer[boundPrepared]
}

// boundPrepared is a prepared query together with the strategy object it was
// prepared on.
type boundPrepared struct {
	strat core.Strategy
	pq    core.PreparedQuery
}

// Query returns the source query.
func (p *ServerPrepared) Query() *Query { return p.q }

// Answer executes the prepared query against the current snapshot.
func (p *ServerPrepared) Answer() (*engine.Result, error) {
	return p.s.read(context.Background(), nil, p.q, p)
}

// Ask reports whether the prepared query has any answer.
func (p *ServerPrepared) Ask() (bool, error) { return core.Ask(p.Answer()) }
