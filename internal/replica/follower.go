package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/rdf"
)

// DefaultPoll is the default interval between source polls — the upper bound
// the follower adds to its staleness per round trip. Each poll is one
// directory scan plus at most a few incremental reads, so a tight interval
// is cheap when the chain is quiet.
const DefaultPoll = 10 * time.Millisecond

// ErrStopped is returned by WaitApplied (and wrapped into read errors by the
// serving layer) when the follower has been stopped or promoted and the
// awaited position was never reached.
var ErrStopped = errors.New("replica: follower stopped")

// Config tunes a Follower.
type Config struct {
	// Dir is the follower's local mirror directory (its own durable state,
	// and the data directory of the primary it becomes on promotion).
	Dir string
	// Source is the primary being followed.
	Source Source
	// FS routes the mirror's filesystem operations; nil means the real
	// filesystem. (The source has its own FS inside its feeder.)
	FS persist.FS
	// Strategy names the serving strategy to build over the shipped state
	// ("saturation", "reformulation", "backward"); empty means "saturation".
	Strategy string
	// Poll is the source polling interval; 0 means DefaultPoll.
	Poll time.Duration
	// Obs, when set, enables replication telemetry: bootstrap and promotion
	// timing, shipped-record counts, and lag/epoch gauges. Nil disables it.
	Obs *obs.Registry
}

// Status is a point-in-time view of a follower's replication state.
type Status struct {
	// Applied is the position the serving strategy has applied through: every
	// record at or below it is visible to reads. It is also the follower's
	// durable mirror position (mirror bytes and applied records advance
	// together).
	Applied persist.ChainPos
	// Epoch counts strategy swaps (bootstraps and gap re-bootstraps). Each
	// swap installs a new strategy object, which is what the serving layer's
	// prepared queries notice and re-prepare on.
	Epoch uint64
	// LagBytes is how many chain bytes the source held beyond Applied at the
	// last successful poll — exact at that instant.
	LagBytes int64
	// LagRecords estimates the record count behind LagBytes, scaled by the
	// mean size of the records this follower has applied (the source's
	// unshipped records cannot be counted without reading them). -1 when no
	// history exists to scale by.
	LagRecords int64
	// LastPoll is when the source was last scanned successfully.
	LastPoll time.Time
	// Err is the terminal replication error (fencing, version mismatch); nil
	// while the follower is live. Transient source failures do not appear
	// here — the loop retries them.
	Err error
	// Stopped reports that the replication loop has exited (Stop, Promote,
	// or a terminal error).
	Stopped bool
}

// Follower is a hot-standby replica: it mirrors a Source's generation chain
// into a local directory and replays every shipped record through a serving
// strategy. Reads (Strategy, WaitApplied, Status) are safe from any
// goroutine; the replication loop is the only writer.
type Follower struct {
	cfg  Config
	name string

	mu      sync.Mutex
	cond    *sync.Cond
	strat   core.Strategy
	epoch   uint64
	applied persist.ChainPos
	// appliedRecs/appliedRecBytes scale the LagRecords estimate.
	appliedRecs     int64
	appliedRecBytes int64
	lagBytes        int64
	lastPoll        time.Time
	termErr         error // terminal; set once
	stopped         bool

	mirror *persist.Mirror

	lifeMu   sync.Mutex // serialises Stop/Promote against each other
	done     chan struct{}
	wg       sync.WaitGroup
	loopDone bool

	// om is the instrumentation surface (disabled zero value without
	// Config.Obs).
	om repMetrics
}

// Start opens (or recovers) the local mirror, seeds the serving strategy
// from it, attempts one synchronous catch-up round against the source (so a
// reachable primary is served from first read; an unreachable one is retried
// by the loop), and starts the replication loop.
func Start(cfg Config) (*Follower, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("replica: Config.Source is required")
	}
	if cfg.Strategy == "" {
		cfg.Strategy = "saturation"
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	om := newRepMetrics(cfg.Obs)
	var t0 time.Time
	if om.on {
		t0 = time.Now()
	}
	m, err := persist.OpenMirror(cfg.Dir, cfg.FS)
	if err != nil {
		return nil, err
	}
	f := &Follower{cfg: cfg, name: cfg.Strategy, mirror: m, done: make(chan struct{}), om: om}
	f.cond = sync.NewCond(&f.mu)
	// Seed the strategy from the local mirror: snapshot state if present,
	// then the locally recovered WAL tail through the normal mutation path,
	// as one epoch.
	if ls := m.State(); ls != nil {
		if _, f.strat, err = core.RestoreStrategy(f.name, ls); err != nil {
			m.Close()
			return nil, err
		}
	} else {
		if f.strat, err = core.NewStrategy(f.name, core.NewKB()); err != nil {
			m.Close()
			return nil, err
		}
	}
	if tail := m.Tail(); len(tail) > 0 {
		if err := f.replay(tail); err != nil {
			m.Close()
			return nil, err
		}
	}
	f.applied = m.Pos()
	if err := f.syncOnce(); err != nil && f.terminal(err) {
		m.Close()
		return nil, err
	}
	if om.on {
		om.bootstrapDuration.ObserveSince(t0)
	}
	registerFollowerFuncs(cfg.Obs, f)
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Strategy returns the current serving strategy. It is swapped (with an
// Epoch bump) by gap re-bootstraps; callers must re-fetch it per read rather
// than caching it across calls.
func (f *Follower) Strategy() core.Strategy {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.strat
}

// Status returns the follower's current replication state.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Status{
		Applied:    f.applied,
		Epoch:      f.epoch,
		LagBytes:   f.lagBytes,
		LagRecords: -1,
		LastPoll:   f.lastPoll,
		Err:        f.termErr,
		Stopped:    f.stopped,
	}
	if f.appliedRecs > 0 {
		avg := f.appliedRecBytes / f.appliedRecs
		if avg <= 0 {
			avg = 1
		}
		st.LagRecords = (f.lagBytes + avg - 1) / avg
	} else if f.lagBytes == 0 {
		st.LagRecords = 0
	}
	return st
}

// WaitApplied blocks until the follower's applied position covers pos — the
// fleet-level read-your-writes wait: a session carries the primary's commit
// position to the follower, whose reads then observe every write at or below
// it. A zero pos returns immediately. It fails with the terminal replication
// error once the follower can never advance (fenced source, stopped loop)
// and the position is still uncovered, and with ctx's error on expiry —
// never by serving stale data silently.
func (f *Follower) WaitApplied(ctx context.Context, pos persist.ChainPos) error {
	if pos.IsZero() {
		return nil
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			f.mu.Lock()
			f.cond.Broadcast()
			f.mu.Unlock()
		})
		defer stop()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.applied.Compare(pos) < 0 {
		if f.termErr != nil {
			return f.termErr
		}
		if f.stopped {
			return ErrStopped
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		f.cond.Wait()
	}
	return nil
}

// run is the replication loop: poll, ship, apply, at Config.Poll cadence.
// Transient source errors (unreachable primary, mid-rotation races) are
// retried forever; terminal ones (fencing, format mismatch) stop the loop
// and surface through Status.Err and WaitApplied.
func (f *Follower) run() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.Poll)
	defer t.Stop()
	for {
		select {
		case <-f.done:
			return
		case <-t.C:
		}
		if err := f.syncOnce(); err != nil && f.terminal(err) {
			f.mu.Lock()
			if f.termErr == nil {
				f.termErr = err
			}
			f.stopped = true
			f.cond.Broadcast()
			f.mu.Unlock()
			return
		}
	}
}

// terminal classifies a replication error: fencing and format mismatches can
// never resolve by retrying; everything else is assumed transient.
func (f *Follower) terminal(err error) bool {
	return errors.Is(err, persist.ErrFenced) || errors.Is(err, persist.ErrVersionMismatch)
}

// syncOnce performs one replication round: scan the source chain, then ship
// and apply until this scan is exhausted. Returns the first error; progress
// made before it sticks.
func (f *Follower) syncOnce() error {
	info, err := f.cfg.Source.Chain()
	if err != nil {
		return err
	}
	if ft := info.FenceTerm; ft > f.mirror.Term() {
		// The source was fenced by a promotion this follower never adopted:
		// its remaining bytes belong to a deposed history.
		return &persist.FencedError{Dir: f.cfg.Source.String(), Term: f.mirror.Term(), Fence: ft}
	}
	dirty := false
	for {
		progressed, err := f.step(info)
		if progressed {
			dirty = true
		}
		if err != nil || !progressed {
			if dirty {
				if serr := f.mirror.Sync(); err == nil {
					err = serr
				}
			}
			if err == nil {
				f.observe(info)
			}
			return err
		}
	}
}

// newestSnap returns the highest snapshot generation in info, 0 when none.
func newestSnap(info persist.ChainInfo) uint64 {
	if len(info.SnapGens) == 0 {
		return 0
	}
	return info.SnapGens[len(info.SnapGens)-1]
}

// findWAL returns generation gen's extent in info.
func findWAL(info persist.ChainInfo, gen uint64) (persist.WALExtent, bool) {
	for _, e := range info.WALs {
		if e.Gen == gen {
			return e, true
		}
	}
	return persist.WALExtent{}, false
}

// step makes at most one unit of replication progress against the given
// scan: adopt a snapshot, or ship one WAL chunk. It reports whether anything
// advanced; (false, nil) means the follower is caught up with this scan.
func (f *Follower) step(info persist.ChainInfo) (bool, error) {
	gen, size := f.mirror.ActiveGen()
	snap := newestSnap(info)
	if gen == 0 {
		// No active WAL: fresh mirror, or just re-bootstrapped. Prefer the
		// source's newest snapshot when it is ahead of ours; otherwise start
		// the WAL run at our snapshot's generation (or the chain's first
		// generation — the source's empty-state bootstrap — when neither side
		// has a snapshot).
		if snap > f.mirror.SnapshotGen() {
			return true, f.bootstrap(snap)
		}
		target := f.mirror.SnapshotGen()
		if target == 0 {
			if len(info.WALs) == 0 {
				return false, nil
			}
			target = info.WALs[0].Gen
		}
		if _, ok := findWAL(info, target); !ok {
			return false, nil // not in this scan (GC race); next scan decides
		}
		return f.fetchWAL(target, 0)
	}
	// Adopt the source's newest snapshot once the WAL run has reached its
	// generation: the local chain below it becomes collectable, exactly
	// mirroring the primary's own GC. (A snapshot ahead of the run is only
	// adopted through the gap path below — swapping state forward past
	// unshipped records must also swap the strategy.)
	if snap > f.mirror.SnapshotGen() && snap <= gen {
		b, err := f.cfg.Source.ReadSnapshot(snap)
		if err != nil {
			if isNotExist(err) {
				return false, nil // GC'd mid-scan; a newer one will appear
			}
			return false, err
		}
		if _, err := f.mirror.AdoptSnapshot(snap, b); err != nil {
			return false, err
		}
		return true, nil
	}
	ext, ok := findWAL(info, gen)
	switch {
	case ok && ext.Size > size:
		return f.fetchWAL(gen, size)
	case ok:
		// Caught up with generation gen as of this scan. Move to the next
		// generation when the source has rotated.
		if _, next := findWAL(info, gen+1); next {
			return f.fetchWAL(gen+1, 0)
		}
		return false, nil
	case snap > gen:
		// Generation gen vanished from the scan and a newer checkpoint
		// covers it: the follower lagged past the source's GC horizon
		// (possibly holding only a prefix of gen). There is no way to ship
		// the rest of gen, and skipping to a later generation would serve a
		// gap — re-bootstrap from the checkpoint instead. (GC only removes
		// generations below a durable snapshot, so an absent gen always
		// comes with snap > gen; an absent gen without one is a scan race.)
		return true, f.bootstrap(snap)
	default:
		return false, nil // scan race; retry next round
	}
}

// fetchWAL ships one chunk of generation gen from byte offset off: it reads
// to the source file's current end, verifies complete records (plus, at
// off 0, the file header), appends the verified prefix to the mirror, and
// applies the records to the serving strategy. Unverified trailing bytes —
// an append in flight, a torn crash write — are simply not consumed; the
// next round re-reads from the verified offset.
func (f *Follower) fetchWAL(gen uint64, off int64) (bool, error) {
	b, err := f.cfg.Source.ReadWALFrom(gen, off)
	if err != nil {
		if isNotExist(err) {
			return false, nil // GC'd between scan and read; next scan decides
		}
		return false, err
	}
	hdr := 0
	if off == 0 {
		if len(b) < persist.WALHeaderLen {
			return false, nil // header still being written
		}
		hdr = persist.WALHeaderLen
	}
	recs, consumed, err := persist.DecodeWALRecords(b[hdr:])
	if err != nil {
		// Mid-chunk damage cannot come from a racing append; re-read next
		// round in case the primary's own recovery truncates it away.
		return false, err
	}
	total := int64(hdr) + consumed
	if total == 0 {
		return false, nil
	}
	if err := f.mirror.AppendWAL(gen, off, b[:total]); err != nil {
		return false, err
	}
	if err := f.replay(recs); err != nil {
		return false, err
	}
	f.om.shippedRecords.Add(uint64(len(recs)))
	pos := f.mirror.Pos()
	f.mu.Lock()
	f.applied = pos
	f.appliedRecs += int64(len(recs))
	f.appliedRecBytes += consumed
	f.cond.Broadcast()
	f.mu.Unlock()
	return true, nil
}

// replay applies recs — one shipped chunk, or the mirror's recovered tail —
// through the normal maintenance path as one epoch: same-kind runs coalesced
// exactly like recovery does, the strategy's view published once at the end,
// so readers (who run concurrently against its snapshots; this loop is its
// single writer) move from chunk boundary to chunk boundary.
func (f *Follower) replay(recs []persist.Mutation) error {
	_, err := core.Replay(f.strat, func(insert, del func(...rdf.Triple) error) (int, error) {
		return persist.ReplayBatch(recs, insert, del)
	})
	return err
}

// bootstrap adopts the source's snapshot of generation snap and swaps the
// serving strategy to its state — first contact, or a jump forward past a
// GC'd stretch of WAL the follower can no longer ship. The swap is atomic
// for readers; prepared queries re-prepare on the new strategy object.
func (f *Follower) bootstrap(snap uint64) error {
	b, err := f.cfg.Source.ReadSnapshot(snap)
	if err != nil {
		return err
	}
	ls, err := f.mirror.AdoptSnapshot(snap, b)
	if err != nil {
		return err
	}
	_, strat, err := core.RestoreStrategy(f.name, ls)
	if err != nil {
		return err
	}
	f.om.bootstraps.Inc()
	f.mu.Lock()
	f.strat = strat
	f.epoch++
	f.applied = persist.ChainPos{Term: ls.Term, Gen: snap}
	f.appliedRecs, f.appliedRecBytes = 0, 0
	f.cond.Broadcast()
	f.mu.Unlock()
	return nil
}

// observe records the source tip for lag accounting after a fully-shipped
// round: whatever the scan holds beyond the applied position is lag.
func (f *Follower) observe(info persist.ChainInfo) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var lag int64
	for _, e := range info.WALs {
		switch {
		case e.Gen > f.applied.Gen:
			lag += e.Size
		case e.Gen == f.applied.Gen && e.Size > f.applied.Off:
			lag += e.Size - f.applied.Off
		}
	}
	f.lagBytes = lag
	f.lastPoll = time.Now()
}

// stopLoop ends the replication loop (idempotent); the mirror stays open.
func (f *Follower) stopLoop() {
	if !f.loopDone {
		f.loopDone = true
		close(f.done)
	}
	//lint:ignore ctxblock shutdown wait: done is closed and the loop selects on it, so it exits within one catch-up round
	f.wg.Wait()
	f.mu.Lock()
	f.stopped = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Stop ends replication and closes the local mirror. The strategy keeps
// serving its last applied state; pending WaitApplied calls fail with
// ErrStopped. Idempotent; not concurrent-safe with Promote.
func (f *Follower) Stop() error {
	f.lifeMu.Lock()
	defer f.lifeMu.Unlock()
	f.stopLoop()
	return f.mirror.Close()
}

// PromoteOptions tunes a promotion.
type PromoteOptions struct {
	// DB configures the promoted primary's persist.DB (sync policy,
	// checkpoint thresholds). Term and FS are set by Promote itself.
	DB persist.Options
	// CatchUp attempts one final shipping round against the source before
	// fencing it — useful when the old primary's directory is still readable
	// (planned failover); a dead source just fails the round harmlessly.
	CatchUp bool
}

// Promote turns the follower into a primary: it stops replication, optionally
// ships one last round from the source, fences the source's directory behind
// a bumped term (best-effort — an unreachable directory is still fenced
// logically, by the term carried in every header the new primary writes),
// closes the mirror, and reopens the local directory as a writable
// persist.DB minting the new term. The returned DB and strategy are the
// new primary's serving state; the recovered history inside the DB is
// dropped (the strategy already applied every mirrored record).
//
// Promotion fails if the follower already adopted a term that fences it (a
// different follower was promoted first and this one saw the fence).
func (f *Follower) Promote(opts PromoteOptions) (*persist.DB, core.Strategy, error) {
	var t0 time.Time
	if f.om.on {
		t0 = time.Now()
	}
	f.lifeMu.Lock()
	defer f.lifeMu.Unlock()
	f.stopLoop()
	f.mu.Lock()
	termErr := f.termErr
	f.mu.Unlock()
	if termErr != nil {
		return nil, nil, fmt.Errorf("replica: cannot promote: %w", termErr)
	}
	if opts.CatchUp {
		if err := f.syncOnce(); err != nil && f.terminal(err) {
			return nil, nil, fmt.Errorf("replica: cannot promote: %w", err)
		}
	}
	newTerm := f.mirror.Term() + 1
	f.cfg.Source.Fence(newTerm) // best-effort; the header terms fence regardless
	if err := f.mirror.Close(); err != nil {
		return nil, nil, err
	}
	dbOpts := opts.DB
	dbOpts.Term = newTerm
	if dbOpts.FS == nil {
		dbOpts.FS = f.cfg.FS
	}
	db, err := persist.Open(f.cfg.Dir, dbOpts)
	if err != nil {
		return nil, nil, err
	}
	// The mirror applied every record it ever shipped; the DB's re-decoded
	// copy of that history is redundant.
	db.DropRecovered()
	f.mu.Lock()
	strat := f.strat
	f.applied = db.TipPos()
	f.cond.Broadcast()
	f.mu.Unlock()
	if f.om.on {
		f.om.promoteDuration.ObserveSince(t0)
		f.om.promotions.Inc()
	}
	return db, strat, nil
}
