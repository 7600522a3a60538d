// Benchmarks for the durability layer; run with
// go test -run '^$' -bench 'Persist|ServerDurable|ServerGroupCommit' .
//
//	BenchmarkPersistColdStart — the two ways to bring a saturated LUBM
//	    serving state up: loading a binary snapshot (snapshot case) vs
//	    parsing N-Triples and running saturation (parse case). The ratio is
//	    the restart saving the persistence layer exists for.
//	BenchmarkPersistSnapshotWrite — serialising a full checkpoint
//	    (dict + G + G∞) to disk.
//	BenchmarkPersistWALAppend — per-batch write-ahead logging cost, with
//	    and without fsync, and the staged group-commit append (AppendAck:
//	    write now, one background fsync per burst).
//	BenchmarkPersistRecovery — persist.Open + WAL-tail replay as a function
//	    of tail length (the cost a crash adds to the next boot).
//	BenchmarkServerDurableWrites — the PR 3 server mutation throughput
//	    bench with durability on vs off: what the WAL hook costs per
//	    applied triple end to end.
//	BenchmarkServerGroupCommit — durable server writes under the three
//	    sync policies at 1/4/16 producers: the group commit acceptance
//	    numbers.
//	BenchmarkServerDurableAck — Session.InsertDurable (acknowledged write)
//	    latency, inline fsync vs shared group fsync, 1 vs 16 sessions.
package webreason_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/lubm"
	"repro/internal/ntriples"
	"repro/internal/persist"
	"repro/internal/rdf"
)

// persistFixture builds the saturated LUBM state once: an N-Triples image
// (what the parse path starts from) and a checkpointed data directory (what
// the snapshot path starts from).
type persistFixtureT struct {
	ntData  []byte
	dir     string
	triples int
}

// persistBenchConfig is the serving-layer scale every concurrent and
// persistence bench uses: LUBM scale 1 at 6 departments (G ≈ 6.9k triples,
// G∞ ≈ 10.3k), the same state webreason serve builds by default.
func persistBenchConfig() lubm.Config {
	cfg := lubm.DefaultConfig()
	cfg.DeptsPerUniv = 6
	return cfg
}

func getPersistFixture(b *testing.B) *persistFixtureT {
	b.Helper()
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(persistBenchConfig())); err != nil {
		b.Fatal(err)
	}
	var nt bytes.Buffer
	if err := ntriples.Write(&nt, kb.Graph()); err != nil {
		b.Fatal(err)
	}
	sat := core.NewSaturation(kb)
	dir := b.TempDir()
	db, err := persist.Open(dir, persist.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.Checkpoint(sat.DurableState()); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	return &persistFixtureT{ntData: nt.Bytes(), dir: dir, triples: sat.Len()}
}

// BenchmarkPersistColdStart measures time-to-serving for the saturated LUBM
// store: snapshot = persist.Open + RestoreKB + RestoreStrategy (no
// saturation run); parse = N-Triples parse + KB load + saturation. Their
// ratio is the acceptance number recorded in ROADMAP.md.
func BenchmarkPersistColdStart(b *testing.B) {
	f := getPersistFixture(b)
	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, err := persist.Open(f.dir, persist.Options{})
			if err != nil {
				b.Fatal(err)
			}
			st := db.State()
			if st == nil || st.Saturated == nil {
				b.Fatal("fixture lost its snapshot")
			}
			_, strat, err := core.RestoreStrategy("saturation", st)
			if err != nil {
				b.Fatal(err)
			}
			if strat.Len() != f.triples {
				b.Fatalf("restored %d triples, want %d", strat.Len(), f.triples)
			}
			db.Close()
		}
	})
	b.Run("parse+saturate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := ntriples.Read(bytes.NewReader(f.ntData))
			if err != nil {
				b.Fatal(err)
			}
			kb := core.NewKB()
			if _, err := kb.LoadGraph(g); err != nil {
				b.Fatal(err)
			}
			strat := core.NewSaturation(kb)
			if strat.Len() != f.triples {
				b.Fatalf("saturated to %d triples, want %d", strat.Len(), f.triples)
			}
		}
	})
}

// BenchmarkPersistSnapshotWrite measures serialising one full checkpoint of
// the saturated LUBM state to disk (the background work of a checkpoint).
func BenchmarkPersistSnapshotWrite(b *testing.B) {
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(persistBenchConfig())); err != nil {
		b.Fatal(err)
	}
	sat := core.NewSaturation(kb)
	st := sat.DurableState()
	dir := b.TempDir()
	db, err := persist.Open(dir, persist.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Checkpoint(st); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", db.Generation()))); err == nil {
		b.ReportMetric(float64(fi.Size()), "snapshot-bytes")
	}
}

// BenchmarkPersistWALAppend measures logging one 16-triple batch, the unit
// cost the applier pays per mutation run.
func BenchmarkPersistWALAppend(b *testing.B) {
	batch := make([]rdf.Triple, 16)
	for i := range batch {
		batch[i] = rdf.T(
			rdf.NewIRI(fmt.Sprintf("http://bench.example.org/s%d", i)),
			rdf.NewIRI("http://bench.example.org/p"),
			rdf.NewIRI(fmt.Sprintf("http://bench.example.org/o%d", i)),
		)
	}
	for _, mode := range []struct {
		name string
		sync persist.SyncPolicy
	}{{"sync=always", persist.SyncAlways}, {"sync=never", persist.SyncNever}} {
		b.Run(mode.name, func(b *testing.B) {
			db, err := persist.Open(b.TempDir(), persist.Options{Sync: mode.sync, CheckpointBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.Append(false, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The staged group-commit append: AppendAck returns once the record is
	// written; the background syncer amortises the fsyncs. The wait for the
	// final acks charges the (few) fsyncs to the run.
	b.Run("sync=group", func(b *testing.B) {
		db, err := persist.Open(b.TempDir(), persist.Options{Sync: persist.SyncGroup, CheckpointBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		var wg sync.WaitGroup
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wg.Add(1)
			if err := db.AppendAck(false, batch, func(error) { wg.Done() }); err != nil {
				b.Fatal(err)
			}
		}
		wg.Wait()
	})
}

// BenchmarkPersistRecovery measures persist.Open plus replay through a
// restored saturation strategy as the WAL tail grows: the marginal boot cost
// of un-checkpointed history.
func BenchmarkPersistRecovery(b *testing.B) {
	f := getPersistFixture(b)
	for _, records := range []int{0, 64, 512, 4096} {
		b.Run(fmt.Sprintf("walRecords=%d", records), func(b *testing.B) {
			// Copy the fixture dir and append `records` batches to its WAL.
			dir := b.TempDir()
			copyDir(b, f.dir, dir)
			db, err := persist.Open(dir, persist.Options{CheckpointBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			for r := 0; r < records; r++ {
				ts := []rdf.Triple{rdf.T(
					rdf.NewIRI(fmt.Sprintf("http://bench.example.org/r%d", r)),
					rdf.NewIRI("http://bench.example.org/p"),
					rdf.NewIRI(fmt.Sprintf("http://bench.example.org/o%d", r)),
				)}
				if err := db.Append(false, ts); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := persist.Open(dir, persist.Options{CheckpointBytes: -1})
				if err != nil {
					b.Fatal(err)
				}
				_, strat, err := core.RestoreStrategy("saturation", db.State())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db.ReplayTail(strat.Insert, strat.Delete); err != nil {
					b.Fatal(err)
				}
				db.Close()
			}
		})
	}
}

// BenchmarkServerDurableWrites re-runs the PR 3 mutation-throughput shape —
// one producer streaming insert+delete batches through the server queue —
// with durability off, on without fsync, and on with fsync, measuring the
// end-to-end per-triple cost of the WAL hook.
func BenchmarkServerDurableWrites(b *testing.B) {
	run := func(b *testing.B, db *webreason.DB) {
		kb := core.NewKB()
		if _, err := kb.LoadGraph(lubm.GenerateWithOntology(persistBenchConfig())); err != nil {
			b.Fatal(err)
		}
		srv := webreason.NewServer(core.NewSaturation(kb), webreason.ServerOptions{DB: db, NoFinalCheckpoint: true})
		defer srv.Close()
		p := webreason.NewIRI("http://load.example.org/p")
		const batch = 16
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ts := make([]webreason.Triple, 0, batch)
			for j := 0; j < batch; j++ {
				ts = append(ts, webreason.T(
					webreason.NewIRI(fmt.Sprintf("http://load.example.org/%d-%d", i, j)), p,
					webreason.NewIRI(fmt.Sprintf("http://load.example.org/%d-%d'", i, j))))
			}
			if err := srv.Insert(ts...); err != nil {
				b.Fatal(err)
			}
			if err := srv.Delete(ts...); err != nil {
				b.Fatal(err)
			}
		}
		if err := srv.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("durable=off", func(b *testing.B) { run(b, nil) })
	b.Run("durable=nosync", func(b *testing.B) {
		db, err := persist.Open(b.TempDir(), persist.Options{Sync: persist.SyncNever, CheckpointBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		run(b, db)
	})
	b.Run("durable=fsync", func(b *testing.B) {
		db, err := persist.Open(b.TempDir(), persist.Options{Sync: persist.SyncAlways, CheckpointBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		run(b, db)
	})
}

// BenchmarkServerGroupCommit measures durable server write throughput under
// the three WAL sync policies at 1/4/16 concurrent producers. The strategy
// is reformulation — mutations apply in
// microseconds, so the WAL policy, not reasoning maintenance, dominates the
// applied cost and the policies separate cleanly: SyncAlways pays one inline
// fsync per applied run, SyncGroup stages records and lets the background
// syncer cover a whole burst per fsync, SyncNever never syncs. The
// acceptance bar for group commit is landing within 2× of SyncNever at 16
// producers (versus the +18% per-record-fsync penalty SyncAlways shows on
// the saturation write bench).
func BenchmarkServerGroupCommit(b *testing.B) {
	const batch = 16
	for _, mode := range []struct {
		name string
		sync persist.SyncPolicy
	}{
		{"always", persist.SyncAlways},
		{"group", persist.SyncGroup},
		{"never", persist.SyncNever},
	} {
		for _, producers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("sync=%s/producers=%d", mode.name, producers), func(b *testing.B) {
				kb := core.NewKB()
				if _, err := kb.LoadGraph(lubm.GenerateWithOntology(persistBenchConfig())); err != nil {
					b.Fatal(err)
				}
				strat, err := core.NewStrategy("reformulation", kb)
				if err != nil {
					b.Fatal(err)
				}
				db, err := persist.Open(b.TempDir(), persist.Options{
					Sync: mode.sync, CheckpointBytes: -1, CheckpointRecords: -1,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				srv := webreason.NewServer(strat, webreason.ServerOptions{DB: db, NoFinalCheckpoint: true})
				defer srv.Close()
				p := webreason.NewIRI("http://load.example.org/p")
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < producers; w++ {
					n := b.N / producers
					if w == 0 {
						n += b.N % producers
					}
					wg.Add(1)
					go func(w, n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							ts := make([]webreason.Triple, 0, batch)
							for j := 0; j < batch; j++ {
								ts = append(ts, webreason.T(
									webreason.NewIRI(fmt.Sprintf("http://load.example.org/%d-%d-%d", w, i, j)), p,
									webreason.NewIRI(fmt.Sprintf("http://load.example.org/%d-%d-%d'", w, i, j))))
							}
							if err := srv.Insert(ts...); err != nil {
								b.Error(err)
								return
							}
							if err := srv.Delete(ts...); err != nil {
								b.Error(err)
								return
							}
						}
					}(w, n)
				}
				wg.Wait()
				if err := srv.Flush(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkServerDurableAck measures the acknowledged durable write path —
// Session.InsertDurable round-trip latency — under SyncAlways (inline fsync
// per record) versus SyncGroup (one shared fsync per burst) at 1 and 16
// concurrent sessions. Group commit trades single-writer ack latency (the
// coalescing window) for burst throughput: at 16 sessions every waiter
// shares one fsync.
func BenchmarkServerDurableAck(b *testing.B) {
	for _, mode := range []struct {
		name string
		sync persist.SyncPolicy
	}{
		{"always", persist.SyncAlways},
		{"group", persist.SyncGroup},
	} {
		for _, sessions := range []int{1, 16} {
			b.Run(fmt.Sprintf("sync=%s/sessions=%d", mode.name, sessions), func(b *testing.B) {
				kb := core.NewKB()
				if _, err := kb.LoadGraph(lubm.GenerateWithOntology(persistBenchConfig())); err != nil {
					b.Fatal(err)
				}
				strat, err := core.NewStrategy("reformulation", kb)
				if err != nil {
					b.Fatal(err)
				}
				db, err := persist.Open(b.TempDir(), persist.Options{
					Sync: mode.sync, CheckpointBytes: -1, CheckpointRecords: -1,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				srv := webreason.NewServer(strat, webreason.ServerOptions{DB: db, NoFinalCheckpoint: true})
				defer srv.Close()
				p := webreason.NewIRI("http://load.example.org/p")
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < sessions; w++ {
					n := b.N / sessions
					if w == 0 {
						n += b.N % sessions
					}
					wg.Add(1)
					go func(w, n int) {
						defer wg.Done()
						sess := srv.Session()
						for i := 0; i < n; i++ {
							tr := webreason.T(
								webreason.NewIRI(fmt.Sprintf("http://load.example.org/a%d-%d", w, i)), p,
								webreason.NewIRI(fmt.Sprintf("http://load.example.org/a%d-%d'", w, i)))
							if err := sess.InsertDurable(tr); err != nil {
								b.Error(err)
								return
							}
						}
					}(w, n)
				}
				wg.Wait()
			})
		}
	}
}

// copyDir copies the regular files of src into dst (bench fixture cloning).
func copyDir(b *testing.B, src, dst string) {
	b.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
