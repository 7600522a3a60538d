package webreason

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/replica"
)

// Replication. A primary server's generation chain (snapshots + WAL) can be
// shipped to follower processes that replay it through the normal strategy
// maintenance path and serve read-only queries at bounded staleness; a
// follower can be promoted to primary on failover, fencing the old primary's
// chain behind a bumped term. See internal/replica for the shipping
// machinery and its crash-tolerance contract.
type (
	// Position is a fleet-wide commit position in a server's durable history
	// (term, generation, byte offset — totally ordered). A primary session's
	// Position covers all its earlier writes; handing it to a follower
	// session via ObservePosition extends read-your-writes across the fleet.
	Position = persist.ChainPos
	// Follower is a hot-standby replica of a primary's data directory; see
	// StartFollower and NewFollowerServer.
	Follower = replica.Follower
	// FollowerConfig tunes a Follower (source, local mirror dir, strategy,
	// poll interval).
	FollowerConfig = replica.Config
	// FollowerStatus is a follower's replication state (Follower.Status).
	FollowerStatus = replica.Status
	// ReplicaSource is a follower's view of a primary's data directory;
	// NewFSFeeder builds the filesystem-based one.
	ReplicaSource = replica.Source
)

// Replication error sentinels, for errors.Is. ErrDBFenced means a data
// directory (or the shipping source behind a follower) was fenced by a
// higher-termed promotion — a revived old primary's Open fails with it, and
// a fenced follower degrades with it. ErrNotPrimary marks a write refused by
// a follower-mode server.
var (
	ErrDBFenced   = persist.ErrFenced
	ErrNotPrimary = errors.New("webreason: not the primary")
)

// NotPrimaryError is the concrete error writes receive from a server that is
// not (or not yet) the primary. It unwraps to ErrNotPrimary.
type NotPrimaryError struct {
	// Role is the refusing server's role.
	Role Role
}

func (e *NotPrimaryError) Error() string {
	return fmt.Sprintf("webreason: not the primary (role %s): writes belong on the primary until promotion", e.Role)
}

func (e *NotPrimaryError) Unwrap() error { return ErrNotPrimary }

// Role is a server's replication role.
type Role int32

const (
	// RolePrimary is a plain NewServer: it owns its history and accepts
	// writes.
	RolePrimary Role = iota
	// RoleFollower is a NewFollowerServer before promotion: read-only,
	// replaying a primary's shipped history.
	RoleFollower
	// RolePromoted is a follower after Promote: a primary that minted a new
	// term over its mirrored history.
	RolePromoted
)

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	case RolePromoted:
		return "promoted"
	default:
		return fmt.Sprintf("Role(%d)", int32(r))
	}
}

// StartFollower opens (or recovers) a local mirror directory and starts
// replicating the configured source into it; wrap the result in
// NewFollowerServer to serve queries from it.
func StartFollower(cfg FollowerConfig) (*Follower, error) { return replica.Start(cfg) }

// NewFSFeeder returns a ReplicaSource shipping the primary data directory at
// dir through the real filesystem (same machine or a shared mount). It never
// writes to the directory except during promotion's fencing, so it can point
// at a directory a live primary owns.
func NewFSFeeder(dir string) ReplicaSource { return replica.NewFSFeeder(dir, nil) }

// NewFollowerServer wraps a Follower as a read-only serving layer: Query,
// Ask, Prepare and Sessions work as on a primary, evaluating against the
// follower's replicated state; every write fails fast with a
// NotPrimaryError. Session reads extend read-your-writes across the fleet:
// a session that observed a primary Position (ObservePosition) waits until
// the follower's applied prefix covers it — and gets a typed DegradedError,
// never silently stale data, if the follower can no longer advance (fenced
// source, stopped replication).
//
// opts tunes the serving layer that takes over after Promote; opts.DB is
// ignored (the follower owns its storage, and promotion opens the DB
// itself). Close stops replication and closes the mirror.
func NewFollowerServer(f *Follower, opts ServerOptions) *Server {
	opts.DB = nil
	// The writer starts at Promote: a follower has no mutation queue to
	// flush or checkpoint.
	srv := newServer(opts, f.Strategy().Name())
	srv.follower = f
	srv.role.Store(int32(RoleFollower))
	registerServerFuncs(opts.Obs, srv)
	return srv
}

// Role returns the server's replication role.
func (s *Server) Role() Role { return Role(s.role.Load()) }

// reading returns the strategy every read path evaluates against: the
// follower's current strategy in follower mode (it can be swapped by a gap
// re-bootstrap), the server's own otherwise. The role load orders the
// promoted-strategy write before any reader that sees RolePromoted.
func (s *Server) reading() core.Strategy {
	if s.role.Load() == int32(RoleFollower) {
		return s.follower.Strategy()
	}
	return s.strat
}

// waitSession is the session read barrier. On a primary (or promoted
// server) it waits for the session's own enqueue watermark, the local
// read-your-writes guarantee. On a follower it waits until the applied
// prefix covers the fleet position the session observed on the primary; a
// follower that can never get there (fenced or stopped replication) fails
// with a typed DegradedError rather than serving state missing the
// session's writes. Positions minted under a term the current primary has
// deposed are covered by construction: the promoted server's history
// contains every record it ever mirrored, and what was never shipped is
// gone from the fleet entirely.
func (s *Server) waitSession(ctx context.Context, ss *Session) error {
	if s.role.Load() != int32(RoleFollower) {
		return s.waitApplied(ctx, ss.mark.Load())
	}
	p := ss.pos.Load()
	if p == nil {
		return nil
	}
	if err := s.follower.WaitApplied(ctx, *p); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return wrapDegraded(err)
	}
	return nil
}

// PromotionOptions tunes Server.Promote.
type PromotionOptions struct {
	// DB configures the promoted primary's durability (sync policy,
	// checkpoint thresholds); the term and filesystem are set by the
	// promotion itself.
	DB DBOptions
	// CatchUp attempts one final shipping round against the old primary's
	// directory before fencing it — a planned failover ships everything; an
	// unreachable directory just fails the round harmlessly.
	CatchUp bool
}

// Promote turns a follower-mode server into the primary: replication stops,
// the old primary's chain is fenced behind a new term (a revived old primary
// fails its next Open with ErrDBFenced), the local mirror reopens as a
// writable DB, and the server starts accepting writes. Reads keep working
// throughout; in-flight session waits resolve against the promoted state.
// Not safe to call concurrently with Close.
func (s *Server) Promote(opts PromotionOptions) error {
	if s.Role() != RoleFollower {
		return fmt.Errorf("webreason: Promote: server role is %s, want follower", s.Role())
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrServerClosed
	}
	db, strat, err := s.follower.Promote(replica.PromoteOptions{DB: opts.DB, CatchUp: opts.CatchUp})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.strat = strat
	s.opts.DB = db
	s.ownDB = true
	s.mu.Unlock()
	// Start the writer only now: a follower has no mutation queue, and
	// starting it here means every field the writer reads is already set.
	s.wg.Add(1)
	go s.writer()
	// The role flip publishes the promoted strategy and DB to lock-free
	// readers and opens enqueue; everything above happens-before it.
	s.role.Store(int32(RolePromoted))
	return nil
}

// Position waits until the session's own writes are applied (and therefore
// logged) and returns the durable chain position covering them — the token
// to hand a follower session's ObservePosition so its reads observe those
// writes. On a server without durability it returns the zero Position (there
// is no chain to ship). On a follower it returns the highest position this
// session is known to cover.
func (ss *Session) Position() (Position, error) {
	return ss.PositionContext(context.Background())
}

// PositionContext is Position with the applied-watermark wait bounded by
// ctx.
func (ss *Session) PositionContext(ctx context.Context) (Position, error) {
	s := ss.s
	if s.role.Load() == int32(RoleFollower) {
		pos := s.follower.Status().Applied
		if p := ss.pos.Load(); p != nil && p.Compare(pos) > 0 {
			pos = *p
		}
		return pos, nil
	}
	if err := s.waitApplied(ctx, ss.mark.Load()); err != nil {
		return Position{}, err
	}
	s.mu.Lock()
	db := s.opts.DB
	s.mu.Unlock()
	if db == nil {
		return Position{}, nil
	}
	return db.TipPos(), nil
}

// ObservePosition records a fleet position this session must observe: its
// subsequent reads on a follower wait until the applied prefix covers it.
// Monotonic — observing an older position than one already held is a no-op.
func (ss *Session) ObservePosition(p Position) {
	for {
		cur := ss.pos.Load()
		if cur != nil && cur.Compare(p) >= 0 {
			return
		}
		np := p
		if ss.pos.CompareAndSwap(cur, &np) {
			return
		}
	}
}
