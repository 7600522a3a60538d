package webreason_test

// Chaos harness: full durable-server rounds under randomized, seeded fault
// schedules. Each seed builds a scripted faultfs (failing fsyncs, ENOSPC,
// torn writes, rename/remove failures, latency), runs concurrent workers
// issuing durable and plain mutations plus session reads, then either
// simulates a crash (byte-level copy of the live data directory) or closes
// cleanly, and recovers on a clean filesystem. Two invariants, per seed:
//
//  1. No acknowledged write is lost or resurrected: a triple whose last
//     acknowledged durable op was an insert must be present after recovery;
//     one whose last acknowledged op was a delete must be absent.
//  2. Every request completes promptly with a typed error or a result —
//     never a hang, never an untyped failure.
//
// Run the full sweep with `make test-chaos` (200 seeds under -race); plain
// `go test` runs a small default sweep. Reproduce one failing round with
// `go test -run TestChaos -chaos.seed=N`.

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/persist"
)

var (
	chaosSeeds = flag.Int("chaos.seeds", 24, "number of seeded chaos rounds to run")
	chaosSeed  = flag.Int64("chaos.seed", -1, "run only this seed (reproduce a failure)")
)

// chaosTriple is the tracked triple for one pool index; workers own disjoint
// index ranges so each triple's acknowledged history is sequential.
func chaosTriple(idx int) webreason.Triple {
	return webreason.T(
		webreason.NewIRI(fmt.Sprintf("http://chaos.example.org/s%d", idx)),
		webreason.NewIRI("http://chaos.example.org/rel"),
		webreason.NewIRI(fmt.Sprintf("http://chaos.example.org/o%d", idx%7)))
}

func chaosAsk(idx int) *webreason.Query {
	return webreason.MustParseQuery(fmt.Sprintf(
		"ASK { <http://chaos.example.org/s%d> <http://chaos.example.org/rel> <http://chaos.example.org/o%d> }",
		idx, idx%7))
}

// chaosSchedule scripts a random-but-deterministic fault mix for one round.
// Every shape it can produce is one the recovery path claims to absorb:
// torn WAL tails and headers, partial snapshots behind a missing rename,
// sticky sync failures, a filling disk, and un-removable superseded files.
func chaosSchedule(rng *rand.Rand) *faultfs.Schedule {
	s := faultfs.NewSchedule()
	switch rng.Intn(3) {
	case 0: // WAL fsync starts failing and stays broken
		s.FailOpAlways(faultfs.OpSync, "wal-", 2+rng.Intn(20), syscall.EIO)
	case 1: // one transient WAL fsync failure (still sticky inside persist)
		s.FailOpOn(faultfs.OpSync, "wal-", 2+rng.Intn(20), syscall.EIO)
	}
	if rng.Intn(3) == 0 { // snapshot body write cannot be made durable
		s.FailOpOn(faultfs.OpSync, ".snap.tmp", 1+rng.Intn(3), syscall.EIO)
	}
	if rng.Intn(3) == 0 { // snapshot publish (tmp → final rename) fails
		s.FailOpOn(faultfs.OpRename, "snap-", 1+rng.Intn(2), syscall.EIO)
	}
	if rng.Intn(3) == 0 { // superseded files cannot be garbage-collected
		s.FailOpAlways(faultfs.OpRemove, "", 1, syscall.EACCES)
	}
	if rng.Intn(3) == 0 { // a WAL write tears partway through
		s.TornWriteOn("wal-", 1+rng.Intn(30), rng.Intn(12))
	}
	if rng.Intn(4) == 0 { // the disk fills
		s.ENOSPCAfter(int64(8<<10 + rng.Intn(56<<10)))
	}
	if rng.Intn(3) == 0 { // fsyncs crawl
		s.LatencyOn(faultfs.OpSync, "wal-", time.Duration(1+rng.Intn(3))*time.Millisecond)
	}
	return s
}

// record folds one durable-op outcome into the worker's per-triple model.
// Success pins the triple's expected post-recovery state. Any error makes the
// triple's state unknown (a deadline abandons the wait, not the write), so it
// is no longer asserted — but the error itself must still be typed.
func record(t *testing.T, known map[int]bool, idx int, present bool, err error) {
	t.Helper()
	if err == nil {
		known[idx] = present
		return
	}
	delete(known, idx)
	if !typedServerError(err) {
		t.Errorf("durable op on triple %d: untyped error %v", idx, err)
	}
}

func TestChaos(t *testing.T) {
	baseline := runtime.NumGoroutine()
	seeds := make([]int64, 0, *chaosSeeds)
	if *chaosSeed >= 0 {
		seeds = append(seeds, *chaosSeed)
	} else {
		for s := 0; s < *chaosSeeds; s++ {
			seeds = append(seeds, int64(s))
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed-%04d", seed), func(t *testing.T) { chaosRound(t, seed) })
	}
	// Every round closed its server and DBs; anything still running is a leak
	// (writer, syncer, checkpointer, or a stuck waiter). Allow a settle window
	// for goroutines mid-teardown.
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

func chaosRound(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	fsys := faultfs.New(chaosSchedule(rng))

	syncs := []persist.SyncPolicy{persist.SyncAlways, persist.SyncGroup, persist.SyncNever}
	popts := persist.Options{
		Sync:                 syncs[rng.Intn(len(syncs))],
		GroupDelay:           time.Duration(rng.Intn(3)) * 100 * time.Microsecond,
		CheckpointRecords:    4 + rng.Intn(12),
		CheckpointBytes:      -1,
		CheckpointBackoff:    time.Millisecond,
		CheckpointBackoffMax: 8 * time.Millisecond,
		FS:                   fsys,
	}
	if rng.Intn(4) == 0 {
		popts.MaxWALBytes = 16 << 10
	}

	db, err := persist.Open(dir, popts)
	if err != nil {
		// A fault during Open (torn header write, early ENOSPC) is a crash
		// before the server ever served. Nothing was acknowledged, so the
		// only obligation is that a clean-disk recovery accepts the remains.
		chaosRecoverAndCheck(t, seed, dir, nil)
		return
	}
	srv := webreason.NewServer(core.NewSaturation(core.NewKB()), webreason.ServerOptions{
		DB:                db,
		FlushEvery:        1 + rng.Intn(4),
		FlushInterval:     2 * time.Millisecond,
		MaxPending:        4 + rng.Intn(12),
		NoFinalCheckpoint: rng.Intn(2) == 0,
	})

	const poolN = 20
	workers := 2 + rng.Intn(2)
	states := make([]map[int]bool, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		states[g] = map[int]bool{}
		wg.Add(1)
		go func(g int, wrng *rand.Rand) {
			defer wg.Done()
			sess := srv.Session()
			known := states[g]
			ops := 30 + wrng.Intn(40)
			for i := 0; i < ops; i++ {
				idx := g*1000 + wrng.Intn(poolN)
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				switch r := wrng.Intn(10); {
				case r < 4: // tracked durable insert
					record(t, known, idx, true, sess.Mutate(ctx, webreason.Mutation{Durable: true, Triples: []webreason.Triple{chaosTriple(idx)}}))
				case r < 7: // tracked durable delete
					record(t, known, idx, false, sess.Mutate(ctx, webreason.Mutation{Delete: true, Durable: true, Triples: []webreason.Triple{chaosTriple(idx)}}))
				case r < 8: // untracked plain churn (never asserted after recovery)
					if err := srv.Mutate(ctx, webreason.Mutation{Triples: []webreason.Triple{chaosTriple(g*1000 + 500 + wrng.Intn(poolN))}}); err != nil && !typedServerError(err) {
						t.Errorf("plain insert: untyped error %v", err)
					}
				default: // session read: result or typed error, promptly
					if _, err := sess.AskContext(ctx, chaosAsk(idx)); err != nil && !typedServerError(err) {
						t.Errorf("read on triple %d: untyped error %v", idx, err)
					}
				}
				cancel()
			}
		}(g, rand.New(rand.NewSource(seed*31+int64(g)+1)))
	}
	wg.Wait()

	recoverDir := dir
	if rng.Intn(2) == 0 {
		// Crash: capture the directory's bytes while the server (and any
		// background checkpoint) is still live, exactly as a kill would.
		recoverDir = copyDataDir(t, dir)
		if err := srv.Close(); err != nil && !typedServerError(err) {
			t.Errorf("Close after crash copy: untyped error %v", err)
		}
	} else if err := srv.Close(); err != nil && !typedServerError(err) {
		t.Errorf("clean Close: untyped error %v", err)
	}
	db.Close() // release the LOCK; its durability verdict already reached the server

	chaosRecoverAndCheck(t, seed, recoverDir, states)
}

// chaosRecoverAndCheck reopens the surviving directory on a clean filesystem
// and asserts both invariants: recovery accepts every shape the faulted run
// could leave behind, and the recovered state agrees with every triple whose
// durable fate was acknowledged.
func chaosRecoverAndCheck(t *testing.T, seed int64, dir string, states []map[int]bool) {
	t.Helper()
	rdb, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("seed %d: recovery refused the surviving directory: %v", seed, err)
	}
	defer rdb.Close()
	var strat webreason.Strategy
	if st := rdb.State(); st != nil {
		if _, strat, err = core.RestoreStrategy("saturation", st); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
	} else {
		strat = core.NewSaturation(core.NewKB())
	}
	if _, err := rdb.ReplayTail(strat.Insert, strat.Delete); err != nil {
		t.Fatalf("seed %d: replay: %v", seed, err)
	}
	for g, known := range states {
		for idx, present := range known {
			ok, err := webreason.Ask(strat.Answer(chaosAsk(idx)))
			if err != nil {
				t.Fatalf("seed %d: Ask(%d): %v", seed, idx, err)
			}
			if ok != present {
				t.Errorf("seed %d worker %d: triple %d recovered=%v but last acknowledged durable op said %v",
					seed, g, idx, ok, present)
			}
		}
	}
}
