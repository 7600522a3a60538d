// Replica chaos: seeded rounds of concurrent durable writes on a primary
// while its follower is repeatedly killed and restarted on the same mirror
// directory, ending in a failover promotion. Three invariants are checked:
//
//  1. Every write acked on the primary before it went down is answered by
//     the promoted node (the round waits for the follower's applied position
//     to cover the acked watermark before the primary "crashes" — the
//     documented asynchronous-shipping caveat).
//  2. The revived old primary is refused with the typed fencing error.
//  3. No follower read ever observes non-prefix state: ordered marker
//     triples are probed throughout the round — a visible marker with an
//     earlier one missing would be a gap.
//
// Rounds are deterministic per seed; reproduce one with
// `go test -run TestReplicaChaos -replica.chaos.seed=N`.
package webreason_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	webreason "repro"
)

var (
	replicaChaosSeeds = flag.Int("replica.chaos.seeds", 8, "number of seeded replica chaos rounds to run")
	replicaChaosSeed  = flag.Int64("replica.chaos.seed", -1, "run only this seed (reproduce a failure)")
)

func replT(i int) webreason.Triple {
	return webreason.T(
		webreason.NewIRI(fmt.Sprintf("http://chaos.example.org/s%d", i)),
		webreason.NewIRI("http://chaos.example.org/p"),
		webreason.NewIRI(fmt.Sprintf("http://chaos.example.org/o%d", i)))
}

func replAsk(i int) *webreason.Query {
	return webreason.MustParseQuery(fmt.Sprintf(
		"ASK { <http://chaos.example.org/s%d> <http://chaos.example.org/p> <http://chaos.example.org/o%d> }", i, i))
}

// Markers live in their own index range and are only ever inserted, in
// order, each acked before the next is written.
const replMarkerBase = 500000

func startReplFollower(t *testing.T, dir, primDir string) *webreason.Follower {
	t.Helper()
	f, err := webreason.StartFollower(webreason.FollowerConfig{
		Dir:    dir,
		Source: webreason.NewFSFeeder(primDir),
		Poll:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// checkMarkerPrefix asserts the prefix invariant against one strategy
// snapshot: if marker h is visible, every marker below h is too. Markers are
// never deleted, so state observed later in the scan can only have grown —
// a missing earlier marker is a genuine gap, not a race.
func checkMarkerPrefix(t *testing.T, st webreason.Strategy, n int) {
	t.Helper()
	high := -1
	for i := n - 1; i >= 0; i-- {
		ok, err := webreason.Ask(st.Answer(replAsk(replMarkerBase + i)))
		if err != nil {
			t.Errorf("marker probe %d: %v", i, err)
			return
		}
		if ok {
			high = i
			break
		}
	}
	for j := 0; j < high; j++ {
		ok, err := webreason.Ask(st.Answer(replAsk(replMarkerBase + j)))
		if err != nil {
			t.Errorf("marker probe %d: %v", j, err)
			return
		}
		if !ok {
			t.Errorf("prefix violation: marker %d visible but earlier marker %d missing", high, j)
		}
	}
}

func TestReplicaChaos(t *testing.T) {
	baseline := runtime.NumGoroutine()
	seeds := make([]int64, 0, *replicaChaosSeeds)
	if *replicaChaosSeed >= 0 {
		seeds = append(seeds, *replicaChaosSeed)
	} else {
		for s := 0; s < *replicaChaosSeeds; s++ {
			seeds = append(seeds, int64(s))
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed-%04d", seed), func(t *testing.T) { replicaChaosRound(t, seed) })
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d before, %d after all rounds\n%s",
			baseline, n, buf[:runtime.Stack(buf, true)])
	}
}

func replicaChaosRound(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	primDir := t.TempDir()
	db, err := webreason.OpenDB(primDir, webreason.DBOptions{
		Sync: webreason.SyncGroup,
		// Small record thresholds force frequent checkpoint rotations, so a
		// restarting follower regularly finds its generation GC'd and must
		// take the re-bootstrap path.
		CheckpointRecords: 4 + rng.Intn(12),
		CheckpointBytes:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	strat, err := webreason.NewStrategy("saturation", webreason.NewKB())
	if err != nil {
		t.Fatal(err)
	}
	srv := webreason.NewServer(strat, webreason.ServerOptions{FlushEvery: 1 + rng.Intn(4), DB: db})

	mirDir := t.TempDir()
	f := startReplFollower(t, mirDir, primDir)

	const workers, opsPer, markers = 2, 40, 24
	known := make(map[int]bool) // acked primary state, per disjoint worker ranges
	var km sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int, wr *rand.Rand) {
			defer wg.Done()
			sess := srv.Session()
			for i := 0; i < opsPer; i++ {
				idx := 1000*(g+1) + wr.Intn(30)
				km.Lock()
				present := known[idx]
				km.Unlock()
				var err error
				del := present && wr.Intn(3) == 0
				if del {
					err = sess.DeleteDurable(replT(idx))
				} else {
					err = sess.InsertDurable(replT(idx))
				}
				if err != nil {
					t.Errorf("worker %d op %d (del=%v idx=%d): %v", g, i, del, idx, err)
					return
				}
				km.Lock()
				known[idx] = !del
				km.Unlock()
			}
		}(g, rand.New(rand.NewSource(seed*31+int64(g)+1)))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := srv.Session()
		for i := 0; i < markers; i++ {
			if err := sess.InsertDurable(replT(replMarkerBase + i)); err != nil {
				t.Errorf("marker %d: %v", i, err)
				return
			}
		}
	}()

	// Chaos controller: while the writers run, randomly kill/restart the
	// follower on its mirror directory or probe the prefix invariant. All
	// follower lifecycle stays on this goroutine.
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()
	for running := true; running; {
		select {
		case <-writersDone:
			running = false
		case <-time.After(time.Duration(1+rng.Intn(8)) * time.Millisecond):
			if rng.Intn(3) == 0 {
				if err := f.Stop(); err != nil {
					t.Fatalf("follower Stop: %v", err)
				}
				f = startReplFollower(t, mirDir, primDir)
			} else {
				checkMarkerPrefix(t, f.Strategy(), markers)
			}
		}
	}
	if t.Failed() {
		f.Stop()
		srv.Close()
		db.Close()
		return
	}

	// The acked watermark: everything the writers were acked for is logged
	// at or below the tip. Wait for the follower to cover it, then take the
	// primary down and fail over.
	acked := db.TipPos()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.WaitApplied(ctx, acked); err != nil {
		t.Fatalf("WaitApplied(%s): %v (status %+v)", acked, err, f.Status())
	}
	checkMarkerPrefix(t, f.Strategy(), markers)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	fsrv := webreason.NewFollowerServer(f, webreason.ServerOptions{})
	if err := fsrv.Promote(webreason.PromotionOptions{CatchUp: true}); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	defer fsrv.Close()

	// Invariant 1: every acked write is answered by the promoted node.
	km.Lock()
	defer km.Unlock()
	for idx, want := range known {
		ok, err := fsrv.Ask(replAsk(idx))
		if err != nil {
			t.Fatalf("promoted Ask(%d): %v", idx, err)
		}
		if ok != want {
			t.Errorf("promoted node: triple %d = %v, acked state %v", idx, ok, want)
		}
	}
	for i := 0; i < markers; i++ {
		if ok, err := fsrv.Ask(replAsk(replMarkerBase + i)); err != nil || !ok {
			t.Errorf("promoted node missing marker %d (%v, %v)", i, ok, err)
		}
	}

	// Invariant 2: the revived old primary is fenced with the typed error.
	if _, err := webreason.OpenDB(primDir, webreason.DBOptions{}); !errors.Is(err, webreason.ErrDBFenced) {
		t.Fatalf("revived old primary OpenDB = %v, want ErrDBFenced", err)
	}

	// The promoted node is a live primary: it accepts and serves writes.
	sess := fsrv.Session()
	if err := sess.Insert(replT(999999)); err != nil {
		t.Fatalf("write on promoted node: %v", err)
	}
	if ok, err := sess.Ask(replAsk(999999)); err != nil || !ok {
		t.Fatalf("read-your-write on promoted node = %v, %v", ok, err)
	}
}
