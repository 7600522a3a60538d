// Command rdfserve drives the snapshot-isolated serving layer under load:
// it loads a LUBM-style knowledge base (or recovers one from a persistence
// directory), wraps the chosen strategy in a webreason.Server, and hammers
// it with N reader goroutines (each running a prepared workload query in a
// loop) while M writer goroutines stream insert/delete batches through the
// async mutation queue. At the end it reports sustained read and write
// throughput plus per-query latency.
//
// With -data the server is durable: mutation batches are write-ahead
// logged, checkpoints are written in the background, and on start the
// directory is recovered — the latest snapshot is loaded (skipping
// re-saturation when it carries G∞) and the WAL tail is replayed through
// the strategy. SIGINT/SIGTERM trigger a graceful shutdown: the load stops,
// the mutation queue is flushed, a final checkpoint is written and the WAL
// is closed, so the next start recovers instantly and answers identically.
//
// With -session each writer becomes a read-your-writes Session using the
// acknowledged durable write path (Insert/DeleteDurable — under -sync group
// every concurrent writer shares one group fsync per burst) and periodically
// verifies that a session read observes the write it was just acknowledged.
//
// With -follow the process is a hot-standby replica instead: it mirrors the
// named primary data directory into -data (checkpoint bootstrap plus a live
// WAL tail), serves the workload query read-only at bounded staleness, and
// reports replication lag. Adding -promote turns the end of the run into a
// failover drill: the follower is promoted to primary, the old primary's
// directory is fenced (a revived primary refuses to start), and the new
// primary proves it accepts writes before shutting down as the owner of
// -data.
//
// Usage:
//
//	rdfserve -strategy saturation -readers 4 -writers 1 -duration 5s
//	rdfserve -readers 16 -query Q5 -flush-every 128 -flush-interval 1ms
//	rdfserve -data /var/lib/rdfserve -sync always -duration 1h
//	rdfserve -data /var/lib/rdfserve -sync group -session -writers 16
//	rdfserve -data /var/lib/replica -follow /var/lib/rdfserve -readers 8
//	rdfserve -data /var/lib/replica -follow /var/lib/rdfserve -promote
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/lubm"
)

func main() {
	strategy := flag.String("strategy", "saturation", "saturation|reformulation|backward")
	universities := flag.Int("universities", 1, "LUBM scale factor")
	depts := flag.Int("depts", 6, "departments per university")
	readers := flag.Int("readers", 4, "concurrent reader goroutines")
	writers := flag.Int("writers", 1, "concurrent writer goroutines")
	duration := flag.Duration("duration", 5*time.Second, "measurement length")
	batch := flag.Int("batch", 16, "triples per writer Insert call")
	flushEvery := flag.Int("flush-every", webreason.DefaultFlushEvery, "server mutation batch size")
	flushInterval := flag.Duration("flush-interval", webreason.DefaultFlushInterval, "server mutation flush interval")
	queryName := flag.String("query", "Q5", "workload query the readers execute")
	dataDir := flag.String("data", "", "persistence directory: WAL + snapshots, crash recovery on start")
	syncMode := flag.String("sync", "always", "WAL fsync policy: always|group|never")
	groupDelay := flag.Duration("group-delay", 0, "sync=group coalescing window (0 = default, negative = fsync as soon as free)")
	sessionMode := flag.Bool("session", false, "writers use read-your-writes sessions with acknowledged durable writes")
	ckptBytes := flag.Int64("checkpoint-bytes", 0, "checkpoint when the WAL passes this size (0 = default, negative disables)")
	ckptRecords := flag.Int("checkpoint-records", 0, "checkpoint after this many WAL records (0 = default, negative disables)")
	follow := flag.String("follow", "", "run as a read-only follower of this primary data directory (-data is the local mirror)")
	promote := flag.Bool("promote", false, "with -follow: promote to primary when the run ends (failover drill)")
	admin := flag.String("admin", "", "serve /metrics, /healthz, /debug/slowlog and pprof on this address (e.g. localhost:6060)")
	slowThreshold := flag.Duration("slow-threshold", 25*time.Millisecond, "queries at least this slow are traced to /debug/slowlog")
	slowCap := flag.Int("slow-cap", 256, "slow-query traces retained (ring buffer)")
	flag.Parse()
	if *batch < 1 {
		fatalf("-batch must be at least 1")
	}

	// -admin turns on the whole observability stack: one registry shared by
	// the server, the persistence layer and (in -follow mode) the replica,
	// plus a slow-query ring the admin listener exposes and retunes.
	var reg *webreason.MetricsRegistry
	var slow *webreason.SlowLog
	if *admin != "" {
		reg = webreason.NewMetricsRegistry()
		slow = webreason.NewSlowLog(*slowCap, *slowThreshold)
	}

	dbOpts := webreason.DBOptions{
		CheckpointBytes:   *ckptBytes,
		CheckpointRecords: *ckptRecords,
		Obs:               reg,
	}
	dbOpts.GroupDelay = *groupDelay
	switch *syncMode {
	case "always":
		dbOpts.Sync = webreason.SyncAlways
	case "group":
		dbOpts.Sync = webreason.SyncGroup
	case "never":
		dbOpts.Sync = webreason.SyncNever
	default:
		fatalf("unknown -sync %q (want always, group or never)", *syncMode)
	}

	if *follow != "" {
		serveFollower(*follow, *dataDir, dbOpts, *strategy, *queryName, *readers, *duration, *promote, *admin, reg, slow)
		return
	}
	if *promote {
		fatalf("-promote requires -follow")
	}

	var db *webreason.DB
	var strat webreason.Strategy
	switch {
	case *dataDir != "":
		var err error
		if db, err = webreason.OpenDB(*dataDir, dbOpts); err != nil {
			if errors.Is(err, webreason.ErrDBLocked) {
				fatalf("data directory %s is locked: another rdfserve or rdfload is running against it; stop that process or pass a different -data directory", *dataDir)
			}
			if errors.Is(err, webreason.ErrDBFenced) {
				fatalf("data directory %s was fenced by a promoted follower: this node is no longer the primary (%v)", *dataDir, err)
			}
			fatalf("opening %s: %v", *dataDir, err)
		}
		if st := db.State(); st != nil {
			t0 := time.Now()
			_, strat, err = webreason.RestoreStrategy(*strategy, st)
			if err != nil {
				fatalf("%v", err)
			}
			replayed, err := webreason.Replay(strat, db.ReplayTail)
			if err != nil {
				fatalf("replaying WAL: %v", err)
			}
			fmt.Printf("recovered %s: %d triples from snapshot gen %d (saturated: %v), replayed %d WAL records in %s\n",
				*dataDir, strat.Len(), st.Generation, st.Saturated != nil, replayed, time.Since(t0).Round(time.Millisecond))
		} else {
			strat = buildFromGenerator(*strategy, *universities, *depts)
			// A snapshot-less directory can still hold logged mutations (a
			// WAL-only chain); replay them on top of the bulk load rather
			// than letting the bootstrap checkpoint garbage-collect them.
			replayed := 0
			if db.TailLen() > 0 {
				if replayed, err = webreason.Replay(strat, db.ReplayTail); err != nil {
					fatalf("replaying WAL: %v", err)
				}
			}
			// Bootstrap checkpoint: the bulk load becomes a snapshot, not a
			// giant WAL, and must be durable before mutations are accepted.
			if err := db.Checkpoint(strat.DurableState()); err != nil {
				fatalf("bootstrap checkpoint: %v", err)
			}
			fmt.Printf("bootstrapped %s: %d triples, snapshot gen %d (replayed %d pre-existing WAL records)\n",
				*dataDir, strat.Len(), db.Generation(), replayed)
		}
	default:
		strat = buildFromGenerator(*strategy, *universities, *depts)
	}

	var q *webreason.Query
	for _, wq := range lubm.Queries() {
		if wq.Name == *queryName {
			q = wq.Parse()
		}
	}
	if q == nil {
		fatalf("unknown workload query %q", *queryName)
	}

	srv := webreason.NewServer(strat, webreason.ServerOptions{
		FlushEvery:    *flushEvery,
		FlushInterval: *flushInterval,
		DB:            db,
		Obs:           reg,
		SlowLog:       slow,
	})
	if *admin != "" {
		hs, bound, err := webreason.ServeAdmin(*admin, srv, reg, slow)
		if err != nil {
			fatalf("admin listener: %v", err)
		}
		defer hs.Close()
		fmt.Printf("admin: http://%s/metrics /healthz /debug/slowlog /debug/pprof/\n", bound)
	}
	pq, err := srv.Prepare(q)
	if err != nil {
		fatalf("preparing %s: %v", *queryName, err)
	}
	if _, err := pq.Answer(); err != nil {
		fatalf("warmup: %v", err)
	}

	var queries, mutations atomic.Int64
	var readNanos atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for r := 0; r < *readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				if _, err := pq.Answer(); err != nil {
					fatalf("reader: %v", err)
				}
				readNanos.Add(time.Since(t0).Nanoseconds())
				queries.Add(1)
			}
		}()
	}
	ex := func(w, g, i int) webreason.Term {
		return webreason.NewIRI(fmt.Sprintf("http://load.example.org/%d-%d-%d", w, g, i))
	}
	var sessionChecks atomic.Int64
	for w := 0; w < *writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := webreason.NewIRI("http://load.example.org/p")
			var sess *webreason.Session
			if *sessionMode {
				sess = srv.Session()
			}
			for gen := 0; ; gen++ {
				select {
				case <-stop:
					return
				default:
				}
				ts := make([]webreason.Triple, 0, *batch)
				for i := 0; i < *batch; i++ {
					ts = append(ts, webreason.T(ex(w, gen, i), p, ex(w, gen+1, i)))
				}
				if sess != nil {
					// Acknowledged durable writes: InsertDurable returns once
					// the record is logged and fsynced under the chosen
					// policy (one shared group fsync per burst under -sync
					// group); the periodic session read then proves
					// read-your-writes on the acknowledged mutation.
					if err := sess.InsertDurable(ts...); err != nil {
						fatalf("session writer insert: %v", err)
					}
					if gen%16 == 0 {
						probe := ts[0]
						q := webreason.MustParseQuery(fmt.Sprintf("ASK { %s %s %s }", probe.S, probe.P, probe.O))
						ok, err := sess.Ask(q)
						if err != nil || !ok {
							fatalf("session read missed its own acknowledged write (ok=%v err=%v)", ok, err)
						}
						sessionChecks.Add(1)
					}
					if err := sess.DeleteDurable(ts...); err != nil {
						fatalf("session writer delete: %v", err)
					}
				} else {
					if err := srv.Insert(ts...); err != nil {
						fatalf("writer insert: %v", err)
					}
					if err := srv.Delete(ts...); err != nil {
						fatalf("writer delete: %v", err)
					}
				}
				mutations.Add(int64(2 * *batch))
			}
		}(w)
	}

	// Run for the configured duration, or until SIGINT/SIGTERM asks for a
	// graceful shutdown (stop the load, flush the queue, write the final
	// checkpoint, close the WAL — never die mid-batch).
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	start := time.Now()
	select {
	case <-time.After(*duration):
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "rdfserve: received %s, shutting down gracefully\n", sig)
	}
	signal.Stop(sigs)
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	// Close flushes the queue and, when durable, writes the final checkpoint.
	if err := srv.Close(); err != nil {
		fatalf("shutdown: %v", err)
	}
	if db != nil {
		// Surface durability trouble the run survived: failed checkpoint
		// attempts and superseded-generation files whose removal failed
		// (those are re-attempted by every later GC pass, so a warning here
		// means some are still on disk).
		if st := db.Stats(); st.CheckpointFailures > 0 || st.GCRemoveFailures > 0 {
			fmt.Fprintf(os.Stderr, "rdfserve: durability warnings: %d checkpoint failures, %d superseded-file removals failed\n",
				st.CheckpointFailures, st.GCRemoveFailures)
		}
		if err := db.Close(); err != nil {
			fatalf("closing data dir: %v", err)
		}
	}

	nq, nm := queries.Load(), mutations.Load()
	secs := elapsed.Seconds()
	nsPerQuery := float64(0)
	if nq > 0 {
		nsPerQuery = float64(readNanos.Load()) / float64(nq)
	}
	fmt.Printf("strategy=%s query=%s readers=%d writers=%d duration=%s flushEvery=%d flushInterval=%s durable=%v session=%v\n",
		*strategy, *queryName, *readers, *writers, elapsed.Round(time.Millisecond), *flushEvery, *flushInterval, db != nil, *sessionMode)
	fmt.Printf("  queries:   %d (%.0f/sec, mean latency %s)\n", nq, float64(nq)/secs, time.Duration(int64(nsPerQuery)))
	fmt.Printf("  mutations: %d applied triples (%.0f/sec)\n", nm, float64(nm)/secs)
	if *sessionMode {
		fmt.Printf("  sessions:  %d writers, acked durable writes, %d read-your-writes probes all observed\n",
			*writers, sessionChecks.Load())
	}
	fmt.Printf("  store:     %d triples (%s)\n", srv.Len(), strat.Name())
}

// serveFollower runs -follow mode: mirror the primary data directory at src
// into dataDir, replay its history through the chosen strategy, and serve
// the workload query read-only for the run's duration while reporting
// replication lag. With -promote the run ends in a failover drill: the
// follower is promoted to primary (fencing src), proves it accepts writes,
// and shuts down cleanly as the new owner of dataDir.
func serveFollower(src, dataDir string, dbOpts webreason.DBOptions, strategy, queryName string, readers int, duration time.Duration, promote bool, admin string, reg *webreason.MetricsRegistry, slow *webreason.SlowLog) {
	if dataDir == "" {
		fatalf("-follow requires -data (the follower's local mirror directory)")
	}
	var q *webreason.Query
	for _, wq := range lubm.Queries() {
		if wq.Name == queryName {
			q = wq.Parse()
		}
	}
	if q == nil {
		fatalf("unknown workload query %q", queryName)
	}

	t0 := time.Now()
	f, err := webreason.StartFollower(webreason.FollowerConfig{
		Dir:      dataDir,
		Source:   webreason.NewFSFeeder(src),
		Strategy: strategy,
		Obs:      reg,
	})
	if err != nil {
		fatalf("starting follower of %s: %v", src, err)
	}
	srv := webreason.NewFollowerServer(f, webreason.ServerOptions{Obs: reg, SlowLog: slow})
	if admin != "" {
		hs, bound, err := webreason.ServeAdmin(admin, srv, reg, slow)
		if err != nil {
			fatalf("admin listener: %v", err)
		}
		defer hs.Close()
		fmt.Printf("admin: http://%s/metrics /healthz /debug/slowlog /debug/pprof/\n", bound)
	}
	h := srv.Health()
	fmt.Printf("following %s into %s: %d triples, applied %s, lag %d bytes (bootstrap %s)\n",
		src, dataDir, srv.Len(), h.ReplicaApplied, h.ReplicaLagBytes, time.Since(t0).Round(time.Millisecond))

	pq, err := srv.Prepare(q)
	if err != nil {
		fatalf("preparing %s: %v", queryName, err)
	}
	var queries atomic.Int64
	var readNanos atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				if _, err := pq.Answer(); err != nil {
					fatalf("reader: %v", err)
				}
				readNanos.Add(time.Since(t0).Nanoseconds())
				queries.Add(1)
			}
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	start := time.Now()
	select {
	case <-time.After(duration):
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "rdfserve: received %s, shutting down gracefully\n", sig)
	}
	signal.Stop(sigs)
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	h = srv.Health()
	nq := queries.Load()
	nsPerQuery := float64(0)
	if nq > 0 {
		nsPerQuery = float64(readNanos.Load()) / float64(nq)
	}
	fmt.Printf("role=%s applied=%s lag=%d bytes (~%d records) epoch=%d\n",
		h.Role, h.ReplicaApplied, h.ReplicaLagBytes, h.ReplicaLagRecords, h.ReplicaEpoch)
	fmt.Printf("  queries: %d (%.0f/sec, mean latency %s) over %s against %d triples\n",
		nq, float64(nq)/elapsed.Seconds(), time.Duration(int64(nsPerQuery)), elapsed.Round(time.Millisecond), srv.Len())
	if h.Degraded {
		fmt.Fprintf(os.Stderr, "rdfserve: follower degraded: %v\n", h.DegradedCause)
	}

	if promote {
		t0 := time.Now()
		if err := srv.Promote(webreason.PromotionOptions{DB: dbOpts, CatchUp: true}); err != nil {
			fatalf("promoting: %v", err)
		}
		h = srv.Health()
		fmt.Printf("promoted to %s in %s: term %d, position %s; %s is fenced\n",
			h.Role, time.Since(t0).Round(time.Millisecond), h.Position.Term, h.Position, src)
		// Prove the new primary accepts and applies writes before declaring
		// the failover done.
		probe := webreason.T(
			webreason.NewIRI("http://load.example.org/promoted"),
			webreason.NewIRI("http://load.example.org/p"),
			webreason.NewIRI(fmt.Sprintf("http://load.example.org/term-%d", h.Position.Term)))
		if err := srv.Insert(probe); err != nil {
			fatalf("write on promoted primary: %v", err)
		}
		if err := srv.Flush(); err != nil {
			fatalf("flush on promoted primary: %v", err)
		}
	}
	if err := srv.Close(); err != nil {
		fatalf("shutdown: %v", err)
	}
}

// buildFromGenerator loads the LUBM-style workload into a fresh KB and
// builds the named strategy over it.
func buildFromGenerator(strategy string, universities, depts int) webreason.Strategy {
	cfg := lubm.DefaultConfig()
	cfg.Universities = universities
	cfg.DeptsPerUniv = depts
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(cfg)); err != nil {
		fatalf("loading LUBM graph: %v", err)
	}
	strat, err := webreason.NewStrategy(strategy, kb)
	if err != nil {
		fatalf("%v", err)
	}
	return strat
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rdfserve: "+format+"\n", args...)
	os.Exit(1)
}
