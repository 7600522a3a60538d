package replica_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/rdf"
	"repro/internal/replica"
	"repro/internal/sparql"
)

func rt(i int) rdf.Triple {
	return rdf.T(
		rdf.NewIRI(fmt.Sprintf("http://r.example.org/s%d", i)),
		rdf.NewIRI("http://r.example.org/p"),
		rdf.NewIRI(fmt.Sprintf("http://r.example.org/o%d", i)))
}

func askQ(i int) *sparql.Query {
	return sparql.MustParse(fmt.Sprintf(
		"ASK { <http://r.example.org/s%d> <http://r.example.org/p> <http://r.example.org/o%d> }", i, i))
}

// primary is a minimal durable write path for replication tests: a DB plus a
// live saturation strategy, mutated in lockstep the way the serving layer
// does (log first, then apply).
type primary struct {
	t     testing.TB
	dir   string
	db    *persist.DB
	strat core.Strategy
}

func newPrimary(t testing.TB, opts persist.Options) *primary {
	t.Helper()
	dir := t.TempDir()
	db, err := persist.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := core.NewStrategy("saturation", core.NewKB())
	if err != nil {
		t.Fatal(err)
	}
	return &primary{t: t, dir: dir, db: db, strat: strat}
}

func (p *primary) insert(ts ...rdf.Triple) {
	p.t.Helper()
	if err := p.db.Append(false, ts); err != nil {
		p.t.Fatal(err)
	}
	if err := p.strat.Insert(ts...); err != nil {
		p.t.Fatal(err)
	}
}

func (p *primary) delete(ts ...rdf.Triple) {
	p.t.Helper()
	if err := p.db.Append(true, ts); err != nil {
		p.t.Fatal(err)
	}
	if err := p.strat.Delete(ts...); err != nil {
		p.t.Fatal(err)
	}
}

func (p *primary) checkpoint() {
	p.t.Helper()
	if err := p.db.Checkpoint(p.strat.DurableState()); err != nil {
		p.t.Fatal(err)
	}
}

func startFollower(t testing.TB, dir string, src string) *replica.Follower {
	t.Helper()
	f, err := replica.Start(replica.Config{
		Dir:    dir,
		Source: replica.NewFSFeeder(src, nil),
		Poll:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// waitCover blocks until the follower applied pos, failing the test on error
// or on a 10s stall.
func waitCover(t testing.TB, f *replica.Follower, pos persist.ChainPos) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitApplied(ctx, pos); err != nil {
		t.Fatalf("WaitApplied(%s): %v (status %+v)", pos, err, f.Status())
	}
}

func mustAsk(t testing.TB, s core.Strategy, i int, want bool) {
	t.Helper()
	ok, err := core.Ask(s.Answer(askQ(i)))
	if err != nil {
		t.Fatalf("Ask(%d): %v", i, err)
	}
	if ok != want {
		t.Fatalf("Ask(%d) = %v, want %v", i, ok, want)
	}
}

// TestFollowerBootstrapAndTail: a follower bootstraps from the primary's
// checkpoint, tails the live WAL, and observes subsequent inserts and
// deletes at its applied watermark.
func TestFollowerBootstrapAndTail(t *testing.T) {
	p := newPrimary(t, persist.Options{})
	p.insert(rt(1), rt(2))
	p.checkpoint()
	p.insert(rt(3))

	f := startFollower(t, t.TempDir(), p.dir)
	defer f.Stop()
	waitCover(t, f, p.db.TipPos())
	for i := 1; i <= 3; i++ {
		mustAsk(t, f.Strategy(), i, true)
	}

	p.delete(rt(2))
	p.insert(rt(4))
	waitCover(t, f, p.db.TipPos())
	mustAsk(t, f.Strategy(), 2, false)
	mustAsk(t, f.Strategy(), 4, true)

	st := f.Status()
	if st.Err != nil || st.Stopped {
		t.Fatalf("healthy follower status: %+v", st)
	}
	if st.Applied != p.db.TipPos() {
		t.Fatalf("Applied = %s, want %s", st.Applied, p.db.TipPos())
	}
	p.db.Close()
}

// TestFollowerRestartResumes: a follower restarted on its existing mirror
// recovers locally and ships only the gap written while it was down.
func TestFollowerRestartResumes(t *testing.T) {
	p := newPrimary(t, persist.Options{})
	p.insert(rt(1))

	mirDir := t.TempDir()
	f := startFollower(t, mirDir, p.dir)
	waitCover(t, f, p.db.TipPos())
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}

	p.insert(rt(2))
	p.delete(rt(1))

	f = startFollower(t, mirDir, p.dir)
	defer f.Stop()
	waitCover(t, f, p.db.TipPos())
	mustAsk(t, f.Strategy(), 1, false)
	mustAsk(t, f.Strategy(), 2, true)
	p.db.Close()
}

// TestFollowerGapRebootstrap: when the primary's checkpoint GC removes WAL
// generations the follower still needed, the follower re-bootstraps from the
// newest checkpoint (bumping its strategy epoch) instead of serving a gap.
func TestFollowerGapRebootstrap(t *testing.T) {
	p := newPrimary(t, persist.Options{})
	p.insert(rt(1))

	mirDir := t.TempDir()
	f := startFollower(t, mirDir, p.dir)
	waitCover(t, f, p.db.TipPos())
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}

	// Two checkpoint rotations while the follower is down: the generation it
	// was tailing is garbage-collected.
	p.insert(rt(2))
	p.checkpoint()
	p.delete(rt(1))
	p.insert(rt(3))
	p.checkpoint()
	p.insert(rt(4))

	f = startFollower(t, mirDir, p.dir)
	defer f.Stop()
	waitCover(t, f, p.db.TipPos())
	if f.Status().Epoch == 0 {
		t.Fatal("gap catch-up did not re-bootstrap (epoch still 0)")
	}
	mustAsk(t, f.Strategy(), 1, false)
	mustAsk(t, f.Strategy(), 2, true)
	mustAsk(t, f.Strategy(), 3, true)
	mustAsk(t, f.Strategy(), 4, true)
	p.db.Close()
}

// TestFollowerPromotion: a planned failover — the follower catches up, is
// promoted under a bumped term, serves its state writable, and the old
// primary's directory is fenced against revival.
func TestFollowerPromotion(t *testing.T) {
	p := newPrimary(t, persist.Options{})
	p.insert(rt(1), rt(2))
	p.checkpoint()
	p.insert(rt(3))

	f := startFollower(t, t.TempDir(), p.dir)
	waitCover(t, f, p.db.TipPos())
	oldTerm := p.db.Term()
	p.db.Close()

	db, strat, err := f.Promote(replica.PromoteOptions{CatchUp: true})
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer db.Close()
	if db.Term() != oldTerm+1 {
		t.Fatalf("promoted term %d, want %d", db.Term(), oldTerm+1)
	}
	for i := 1; i <= 3; i++ {
		mustAsk(t, strat, i, true)
	}
	// The promoted node accepts writes into its own (new-term) chain.
	if err := db.Append(false, []rdf.Triple{rt(9)}); err != nil {
		t.Fatalf("write on promoted DB: %v", err)
	}
	if pos := db.TipPos(); pos.Term != oldTerm+1 {
		t.Fatalf("promoted TipPos %s, want term %d", pos, oldTerm+1)
	}

	// The revived old primary is refused with a typed error.
	if _, err := persist.Open(p.dir, persist.Options{}); !errors.Is(err, persist.ErrFenced) {
		t.Fatalf("revived old primary Open = %v, want ErrFenced", err)
	}
}

// TestFollowerFencedBySiblingPromotion: a follower still tailing the old
// primary after a sibling was promoted must degrade with a fencing error —
// never consume the deposed history past the fence, never hang.
func TestFollowerFencedBySiblingPromotion(t *testing.T) {
	p := newPrimary(t, persist.Options{})
	p.insert(rt(1))

	f1 := startFollower(t, t.TempDir(), p.dir)
	f2 := startFollower(t, t.TempDir(), p.dir)
	defer f2.Stop()
	waitCover(t, f1, p.db.TipPos())
	waitCover(t, f2, p.db.TipPos())
	p.db.Close()

	db, _, err := f1.Promote(replica.PromoteOptions{CatchUp: true})
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer db.Close()

	// f2's poll loop sees the fence and turns terminal.
	deadline := time.Now().Add(10 * time.Second)
	for f2.Status().Err == nil && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	st := f2.Status()
	if !errors.Is(st.Err, persist.ErrFenced) || !st.Stopped {
		t.Fatalf("fenced follower status = %+v, want terminal ErrFenced", st)
	}
	// A wait for a position it can never reach fails typed, not stale/hung.
	future := persist.ChainPos{Term: db.Term(), Gen: 1, Off: 1 << 30}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f2.WaitApplied(ctx, future); !errors.Is(err, persist.ErrFenced) {
		t.Fatalf("WaitApplied on fenced follower = %v, want ErrFenced", err)
	}
	// And the fenced follower cannot be promoted over the new primary.
	if _, _, err := f2.Promote(replica.PromoteOptions{}); !errors.Is(err, persist.ErrFenced) {
		t.Fatalf("Promote of fenced follower = %v, want ErrFenced", err)
	}
}

// TestWaitAppliedContext: a wait for an unreached position honours its
// context deadline.
func TestWaitAppliedContext(t *testing.T) {
	p := newPrimary(t, persist.Options{})
	defer p.db.Close()
	p.insert(rt(1))

	f := startFollower(t, t.TempDir(), p.dir)
	defer f.Stop()
	waitCover(t, f, p.db.TipPos())

	future := p.db.TipPos()
	future.Off += 1 << 20
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := f.WaitApplied(ctx, future); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitApplied = %v, want DeadlineExceeded", err)
	}
}

// TestFollowerChunkAndTailAreOneEpochEach: a shipped chunk of many runs is
// one view publication on the follower, not one per run, and so is the local
// mirror's tail when a restarted follower replays it.
func TestFollowerChunkAndTailAreOneEpochEach(t *testing.T) {
	p := newPrimary(t, persist.Options{})
	defer p.db.Close()
	// Six records alternating in kind: six runs, all in the WAL before the
	// follower first looks, so they ship as one chunk.
	for i := 1; i <= 3; i++ {
		p.insert(rt(i), rt(i+10))
		p.delete(rt(i + 10))
	}
	mirDir := t.TempDir()
	f := startFollower(t, mirDir, p.dir)
	waitCover(t, f, p.db.TipPos())
	if v := f.Strategy().WriteStats().Views; v != 1 {
		t.Fatalf("one shipped chunk of 6 runs published %d views, want 1", v)
	}
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}

	// Four more runs while the follower is down. Restarted, it replays its
	// mirror's six-record tail (one epoch on the fresh strategy), then ships
	// the four new records (one more).
	p.insert(rt(4))
	p.delete(rt(1))
	p.insert(rt(5))
	p.delete(rt(2))
	f = startFollower(t, mirDir, p.dir)
	defer f.Stop()
	waitCover(t, f, p.db.TipPos())
	if v := f.Strategy().WriteStats().Views; v != 2 {
		t.Fatalf("bootstrap tail + one chunk published %d views, want 2", v)
	}
	for i, want := range map[int]bool{1: false, 2: false, 3: true, 4: true, 5: true, 11: false, 13: false} {
		mustAsk(t, f.Strategy(), i, want)
	}
	if got, want := f.Strategy().Len(), p.strat.Len(); got != want {
		t.Fatalf("follower holds %d triples, primary %d", got, want)
	}
}

// TestFollowerRestartOverUnreadableSnapshot: a follower restarted over a
// mirror whose only snapshot is unreadable cannot trust the WALs above it, so
// it discards the mirror, bootstraps again from the primary's checkpoint, and
// answers every triple the snapshot held.
func TestFollowerRestartOverUnreadableSnapshot(t *testing.T) {
	p := newPrimary(t, persist.Options{})
	defer p.db.Close()
	p.insert(rt(1), rt(2))
	p.checkpoint()
	p.insert(rt(3))

	mirDir := t.TempDir()
	f := startFollower(t, mirDir, p.dir)
	waitCover(t, f, p.db.TipPos())
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
	info, err := persist.ScanChain(nil, mirDir)
	if err != nil || len(info.SnapGens) != 1 {
		t.Fatalf("mirror snapshots %v, err %v: want exactly one", info.SnapGens, err)
	}
	path := persist.SnapshotFilePath(mirDir, info.SnapGens[0])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF // break the last section's CRC
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	f = startFollower(t, mirDir, p.dir)
	defer f.Stop()
	waitCover(t, f, p.db.TipPos())
	for i := 1; i <= 3; i++ {
		mustAsk(t, f.Strategy(), i, true)
	}
	if st := f.Status(); st.Err != nil || st.LagBytes != 0 {
		t.Fatalf("restarted follower status: %+v", st)
	}
}
