package webreason_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/persist"
	"repro/internal/sparql"
)

// answersOf evaluates q against the strategy and returns the decoded,
// canonically sorted answer set. Rows are decoded to term syntax so results
// from different processes (whose dictionaries may assign different IDs)
// compare meaningfully.
func answersOf(t *testing.T, strat webreason.Strategy, d *dict.Dict, q *sparql.Query) []string {
	t.Helper()
	res, err := strat.Answer(q)
	if err != nil {
		t.Fatalf("Answer(%s): %v", q, err)
	}
	return decodeRows(t, res, d)
}

func decodeRows(t *testing.T, res *engine.Result, d *dict.Dict) []string {
	t.Helper()
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		s := ""
		for _, id := range row {
			term, ok := d.Term(id)
			if !ok {
				t.Fatalf("row references unknown ID %d", id)
			}
			s += term.String() + "\t"
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// copyDataDir snapshots the on-disk bytes of a persistence directory without
// closing anything — the state a kill -9 would leave behind. The live
// server's background checkpointer may garbage-collect files mid-copy; a
// vanished file means GC completed (which only happens after the covering
// snapshot is durable), so the copy restarts and converges on a consistent
// post-GC view.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		dst := t.TempDir()
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(src, e.Name()))
			if os.IsNotExist(err) {
				ok = false // GC raced the copy; retry from a fresh listing
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if ok {
			return dst
		}
	}
	t.Fatal("copyDataDir: checkpoint GC kept racing the copy")
	return ""
}

// mutationStream produces a deterministic mixed insert/delete workload:
// churn over a bounded pool (so deletes hit and DRed runs) plus a stream of
// fresh terms (so the dictionary grows past checkpoint boundaries and WAL
// replay must re-coin terms).
func mutationStream(seed int64, n int) []struct {
	del bool
	ts  []webreason.Triple
} {
	rng := rand.New(rand.NewSource(seed))
	pool := func(i int) webreason.Term {
		return webreason.NewIRI(fmt.Sprintf("http://mut.example.org/e%d", i))
	}
	p := webreason.NewIRI("http://mut.example.org/rel")
	var out []struct {
		del bool
		ts  []webreason.Triple
	}
	for i := 0; i < n; i++ {
		var ts []webreason.Triple
		sz := 1 + rng.Intn(4)
		for j := 0; j < sz; j++ {
			if rng.Intn(5) == 0 {
				ts = append(ts, webreason.T(
					webreason.NewIRI(fmt.Sprintf("http://mut.example.org/fresh-%d-%d", i, j)),
					p, pool(rng.Intn(30))))
			} else {
				ts = append(ts, webreason.T(pool(rng.Intn(30)), p, pool(rng.Intn(30))))
			}
		}
		out = append(out, struct {
			del bool
			ts  []webreason.Triple
		}{del: rng.Intn(3) == 0, ts: ts})
	}
	return out
}

// runDurableServer builds a saturation strategy over the small LUBM KB,
// serves it durably from dir, applies the mutation stream, flushes, and
// returns the server and its KB (caller closes).
func runDurableServer(t *testing.T, dir string, seed int64, muts int) (*webreason.Server, *core.KB, *webreason.DB) {
	return runDurableServerSync(t, dir, seed, muts, persist.SyncAlways)
}

// runDurableServerSync is runDurableServer under a chosen WAL sync policy.
// Under SyncGroup every eighth mutation goes through a read-your-writes
// session's durable (acked) path, so the crash tests also cover records that
// were staged and acknowledged by a group fsync.
func runDurableServerSync(t *testing.T, dir string, seed int64, muts int, sync persist.SyncPolicy) (*webreason.Server, *core.KB, *webreason.DB) {
	t.Helper()
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
		t.Fatal(err)
	}
	strat := core.NewSaturation(kb)
	db, err := persist.Open(dir, persist.Options{CheckpointRecords: 7, CheckpointBytes: -1, Sync: sync, GroupDelay: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(strat.DurableState()); err != nil {
		t.Fatal(err)
	}
	srv := webreason.NewServer(strat, webreason.ServerOptions{FlushEvery: 4, DB: db})
	sess := srv.Session()
	for i, m := range mutationStream(seed, muts) {
		durable := sync == persist.SyncGroup && i%8 == 0
		var err error
		switch {
		case durable && m.del:
			err = sess.DeleteDurable(m.ts...)
		case durable:
			err = sess.InsertDurable(m.ts...)
		case m.del:
			err = srv.Delete(m.ts...)
		default:
			err = srv.Insert(m.ts...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	return srv, kb, db
}

// restoreFrom recovers a strategy from a data directory the way webreason
// serve does: the WAL tail goes through the normal maintenance path as one
// epoch.
func restoreFrom(t *testing.T, dir, strategy string) (webreason.Strategy, *core.KB, *webreason.DB) {
	t.Helper()
	db, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	st := db.State()
	if st == nil {
		t.Fatal("recovery found no snapshot")
	}
	kb, strat, err := core.RestoreStrategy(strategy, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := webreason.Replay(strat, db.ReplayTail); err != nil {
		t.Fatal(err)
	}
	return strat, kb, db
}

// TestRecoveryReplaysTailAsOneEpoch: a recovered WAL tail of many runs is
// one view publication and one store epoch, and recovers the same |G∞| —
// and the same answers — as the live server had, and as replaying the same
// tail one epoch per run does.
func TestRecoveryReplaysTailAsOneEpoch(t *testing.T) {
	dir := t.TempDir()
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
		t.Fatal(err)
	}
	live := core.NewSaturation(kb)
	db, err := persist.Open(dir, persist.Options{CheckpointRecords: -1, CheckpointBytes: -1, Sync: persist.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(live.DurableState()); err != nil {
		t.Fatal(err)
	}
	srv := webreason.NewServer(live, webreason.ServerOptions{FlushEvery: 4, DB: db, NoFinalCheckpoint: true})
	for _, m := range mutationStream(5, 80) {
		if err := srv.Mutate(context.Background(), webreason.Mutation{Delete: m.del, Triples: m.ts}); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	q := webreason.MustParseQuery(`SELECT ?s ?o WHERE { ?s <http://mut.example.org/rel> ?o }`)
	want := answersOf(t, live, kb.Dict(), q)
	recoverWith := func(replay func(webreason.Strategy, *webreason.DB) (int, error)) (webreason.Strategy, int) {
		db, err := persist.Open(copyDataDir(t, dir), persist.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		rkb, strat, err := core.RestoreStrategy("saturation", db.State())
		if err != nil {
			t.Fatal(err)
		}
		n, err := replay(strat, db)
		if err != nil {
			t.Fatal(err)
		}
		if got := answersOf(t, strat, rkb.Dict(), q); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("recovered answers differ from the live server's:\n%v\nvs\n%v", got, want)
		}
		if strat.Len() != live.Len() {
			t.Fatalf("recovered |G∞| = %d, live %d", strat.Len(), live.Len())
		}
		return strat, n
	}
	oneEpoch, records := recoverWith(func(s webreason.Strategy, db *webreason.DB) (int, error) {
		return webreason.Replay(s, db.ReplayTail)
	})
	perRun, _ := recoverWith(func(s webreason.Strategy, db *webreason.DB) (int, error) {
		return db.ReplayTail(s.Insert, s.Delete)
	})
	runs := perRun.WriteStats().Views
	if records < 10 || runs < 5 {
		t.Fatalf("the tail has %d records in %d runs: too short to show anything", records, runs)
	}
	if st := oneEpoch.WriteStats(); st.Views != 1 || st.StoreEpoch != 1 {
		t.Fatalf("a tail of %d runs was replayed as %d views and %d store epochs, want 1 and 1", runs, st.Views, st.StoreEpoch)
	}
	if one, per := oneEpoch.WriteStats().StoreCopied, perRun.WriteStats().StoreCopied; one >= per {
		t.Fatalf("one epoch copied %d structures, one epoch per run %d: nothing saved", one, per)
	}
}

// TestServerCrashRecoveryAnswersIdentically is the acceptance check: a
// killed-and-restarted durable server answers every LUBM workload query
// identically to the uninterrupted instance — including mid-checkpoint kill
// points, which the on-disk copy captures whenever the background
// checkpointer happens to be between rotation and snapshot rename. It runs
// under all three sync policies; the kill point for SyncGroup routinely
// lands between stage and group fsync (the copy races the background
// syncer), and the acked session mutations in the stream pin that an
// acknowledged run is never lost.
func TestServerCrashRecoveryAnswersIdentically(t *testing.T) {
	for _, pol := range []struct {
		name string
		sync persist.SyncPolicy
	}{
		{"always", persist.SyncAlways},
		{"group", persist.SyncGroup},
		{"never", persist.SyncNever},
	} {
		t.Run(pol.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, kb, db := runDurableServerSync(t, dir, 42, 160, pol.sync)

			// "kill -9": capture the on-disk state with nothing flushed or
			// closed.
			killed := copyDataDir(t, dir)

			queries := lubm.Queries()
			want := make(map[string][]string, len(queries))
			for _, wq := range queries {
				want[wq.Name] = answersOf(t, srv.Strategy(), kb.Dict(), wq.Parse())
			}
			srv.Close()
			db.Close()

			strat, kb2, db2 := restoreFrom(t, killed, "saturation")
			defer db2.Close()
			for _, wq := range queries {
				got := answersOf(t, strat, kb2.Dict(), wq.Parse())
				if len(got) != len(want[wq.Name]) {
					t.Fatalf("%s: %d answers after recovery, want %d", wq.Name, len(got), len(want[wq.Name]))
				}
				for i := range got {
					if got[i] != want[wq.Name][i] {
						t.Fatalf("%s: answer %d = %q, want %q", wq.Name, i, got[i], want[wq.Name][i])
					}
				}
			}
		})
	}
}

// TestCrashReplayEqualsCleanShutdown runs the same workload into two durable
// servers; one shuts down cleanly (final checkpoint), the other is killed.
// Recovering both must yield identical physical stores — the property that
// WAL replay through the normal mutation path reconstructs exactly the
// state a clean shutdown persists.
func TestCrashReplayEqualsCleanShutdown(t *testing.T) {
	for _, seed := range []int64{7, 99} {
		cleanDir, crashDir := t.TempDir(), t.TempDir()

		srvA, _, dbA := runDurableServer(t, cleanDir, seed, 120)
		if err := srvA.Close(); err != nil { // clean: flush + final checkpoint
			t.Fatal(err)
		}
		dbA.Close()

		srvB, _, dbB := runDurableServer(t, crashDir, seed, 120)
		killed := copyDataDir(t, crashDir)
		srvB.Close()
		dbB.Close()

		stratClean, kbClean, dbClean := restoreFrom(t, cleanDir, "saturation")
		stratCrash, kbCrash, dbCrash := restoreFrom(t, killed, "saturation")

		// Compare the full materialised state term-by-term via a match-all
		// query answered by both.
		q := webreason.MustParseQuery(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
		a := answersOf(t, stratClean, kbClean.Dict(), q)
		b := answersOf(t, stratCrash, kbCrash.Dict(), q)
		if len(a) != len(b) {
			t.Fatalf("seed %d: clean has %d triples, crash-replay %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: triple %d differs:\nclean: %s\ncrash: %s", seed, i, a[i], b[i])
			}
		}
		dbClean.Close()
		dbCrash.Close()
	}
}

// TestCrossStrategyRestore pins the conversion paths: a saturation snapshot
// (set base + G∞) restored as reformulation, and a reformulation snapshot
// (full-store base) restored as saturation, both answer like a fresh build.
func TestCrossStrategyRestore(t *testing.T) {
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
		t.Fatal(err)
	}
	queries := lubm.Queries()

	for _, src := range []string{"saturation", "reformulation"} {
		for _, dst := range []string{"saturation", "reformulation", "backward"} {
			dir := t.TempDir()
			srcStrat, err := core.NewStrategy(src, kb)
			if err != nil {
				t.Fatal(err)
			}
			db, err := persist.Open(dir, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Checkpoint(srcStrat.DurableState()); err != nil {
				t.Fatal(err)
			}
			db.Close()

			restored, kb2, db2 := restoreFrom(t, dir, dst)
			for _, wq := range queries {
				want := answersOf(t, srcStrat, kb.Dict(), wq.Parse())
				got := answersOf(t, restored, kb2.Dict(), wq.Parse())
				if len(got) != len(want) {
					t.Fatalf("%s→%s %s: %d answers, want %d", src, dst, wq.Name, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s→%s %s: answer %d = %q, want %q", src, dst, wq.Name, i, got[i], want[i])
					}
				}
			}
			db2.Close()
		}
	}
}

// TestRestoredServerKeepsServing pins that a recovered state is not a
// read-only artifact: the restored strategy serves further durable mutations
// and a second recovery sees them.
func TestRestoredServerKeepsServing(t *testing.T) {
	dir := t.TempDir()
	srv, _, db := runDurableServer(t, dir, 5, 40)
	srv.Close()
	db.Close()

	strat, _, db2 := restoreFrom(t, dir, "saturation")
	srv2 := webreason.NewServer(strat, webreason.ServerOptions{FlushEvery: 4, DB: db2})
	marker := webreason.T(
		webreason.NewIRI("http://mut.example.org/post-recovery"),
		webreason.NewIRI("http://mut.example.org/rel"),
		webreason.NewIRI("http://mut.example.org/e1"))
	if err := srv2.Insert(marker); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	db2.Close()

	strat3, kb3, db3 := restoreFrom(t, dir, "saturation")
	defer db3.Close()
	q := webreason.MustParseQuery(`ASK { <http://mut.example.org/post-recovery> <http://mut.example.org/rel> <http://mut.example.org/e1> }`)
	ok, err := webreason.Ask(strat3.Answer(q))
	if err != nil || !ok {
		t.Fatalf("marker lost across second recovery: ok=%v err=%v (kb len %d)", ok, err, kb3.Len())
	}
}
