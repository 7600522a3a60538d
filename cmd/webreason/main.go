// Command webreason loads, queries and serves RDF under the paper's three
// query-answering strategies (-strategy saturation|reformulation|backward,
// default saturation). -data always names a persistence directory.
//
//	webreason load [-o out.nt] [-saturate] [-data dir] files...
//	webreason query [-strategy s] [-explain] [-plain] (-query text | -query-file f) files...
//	webreason serve [-data dir [-sync group] [-session]] [-follow primary -data mirror [-promote]] [flags]
//
// load merges RDF files (N-Triples or Turtle) and prints statistics;
// -saturate reports G∞, -o writes the merged graph or G∞, and -data
// checkpoints it as a snapshot that serve -data recovers without
// re-parsing or re-saturating. query answers one SPARQL BGP query; -explain
// prints the reformulated union and -plain counts the answers without
// reasoning. serve runs readers over a prepared LUBM workload query while
// writers stream insert/delete batches through a webreason.Server, then
// reports throughput and mean latency. With -data the server is durable: it
// recovers the snapshot and WAL tail on start, and however the run ends
// (-duration, SIGINT/SIGTERM, or a failed reader or writer) it flushes the
// queue, writes a final checkpoint and closes the WAL. -session writers
// check that they read their own acknowledged durable writes. -follow
// mirrors a primary's directory into -data and serves it read-only;
// -promote ends the run with a failover drill that fences the old primary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/lubm"
	"repro/internal/persist"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/store"
)

// errUsage reports a command line that was rejected after its usage was
// printed.
var errUsage = errors.New("usage")

const strategyUsage = "saturation | reformulation | backward"

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "webreason: %v\n", err)
		os.Exit(1)
	}
}

// run executes the subcommand named by args[0], writing its report to
// stdout.
func run(args []string, stdout io.Writer) error {
	cmds := map[string]func([]string, io.Writer) error{"load": load, "query": query, "serve": serve}
	if len(args) == 0 || cmds[args[0]] == nil {
		fmt.Fprintln(os.Stderr, "usage: webreason load|query|serve [flags] [files...]; webreason <subcommand> -h lists its flags")
		return errUsage
	}
	return cmds[args[0]](args[1:], stdout)
}

// newFlags returns the flag set of one subcommand, whose usage starts with
// synopsis.
func newFlags(name, synopsis string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: webreason %s %s\n", name, synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// parse parses a subcommand's flags. The flag package has already printed
// a parse error and the usage, so only -h comes back as itself.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// usagef prints a message and the subcommand's usage, and returns errUsage.
func usagef(fs *flag.FlagSet, format string, args ...any) error {
	fmt.Fprintf(fs.Output(), format+"\n", args...)
	fs.Usage()
	return errUsage
}

// loadKB parses and merges the RDF files at paths, reporting each file's
// size to w, and loads the merged graph into a fresh KB.
func loadKB(w io.Writer, paths []string) (*webreason.KB, *webreason.Graph, error) {
	merged := webreason.NewGraph()
	for _, path := range paths {
		g, err := webreason.LoadFile(path)
		if err != nil {
			return nil, nil, err
		}
		n := merged.AddAll(g)
		fmt.Fprintf(w, "%s: %d triples (%d new)\n", path, g.Len(), n)
	}
	kb := webreason.NewKB()
	if _, err := kb.LoadGraph(merged); err != nil {
		return nil, nil, err
	}
	return kb, merged, nil
}

func load(args []string, stdout io.Writer) error {
	fs := newFlags("load", "[-o out.nt] [-saturate] [-data dir] file.ttl [more files...]")
	out := fs.String("o", "", "write the merged graph, or with -saturate G∞, to this file (.nt or .ttl)")
	saturate := fs.Bool("saturate", false, "compute G∞ and report its size; with -o write it, with -data persist it")
	dataDir := fs.String("data", "", "write a persistence snapshot into this directory")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return usagef(fs, "load needs at least one RDF file")
	}
	start := time.Now()
	kb, merged, err := loadKB(stdout, fs.Args())
	if err != nil {
		return err
	}
	parsed := time.Since(start)
	schema := merged.SchemaTriples()
	preds := map[rdf.Term]int{}
	classes := map[rdf.Term]struct{}{}
	merged.ForEach(func(t rdf.Triple) bool {
		preds[t.P]++
		if t.P == rdf.Type {
			classes[t.O] = struct{}{}
		}
		return true
	})
	fmt.Fprintf(stdout, "total: %d triples (%d schema, %d instance)\n",
		merged.Len(), len(schema), merged.Len()-len(schema))
	fmt.Fprintf(stdout, "distinct predicates: %d, classes used in rdf:type: %d\n", len(preds), len(classes))

	// The snapshot of a saturating load carries G∞; otherwise it carries
	// only G, as backward chaining keeps it.
	t0 := time.Now()
	var strat webreason.Strategy
	var sat *core.Saturation
	switch {
	case *saturate:
		sat = core.NewSaturation(kb)
		strat = sat
	case *dataDir != "":
		strat = webreason.NewBackwardStrategy(kb)
	}
	build := time.Since(t0)
	written := merged
	if sat != nil {
		mat := sat.Materialization()
		fmt.Fprintf(stdout, "|G|  = %d triples\n", mat.BaseLen())
		fmt.Fprintf(stdout, "|G∞| = %d triples (+%d derived, +%.1f%%)\n",
			mat.Store().Len(), mat.DerivedLen(),
			100*float64(mat.DerivedLen())/float64(mat.BaseLen()))
		fmt.Fprintf(stdout, "saturation time: %v (%d triples derived)\n", build, mat.Stats.Derived)
		if *out != "" {
			written = webreason.NewGraph()
			mat.Store().ForEachMatch(store.Triple{}, func(t store.Triple) bool {
				written.Add(kb.Decode(t))
				return true
			})
		}
	}
	if *out != "" {
		if err := webreason.SaveFile(*out, written, nil); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d triples)\n", *out, written.Len())
	}
	if *dataDir == "" {
		return nil
	}

	db, err := webreason.OpenDB(*dataDir, webreason.DBOptions{})
	if err != nil {
		return err
	}
	snapStart := time.Now()
	if err := errors.Join(db.Checkpoint(strat.DurableState()), db.Close()); err != nil {
		return fmt.Errorf("writing the snapshot: %w", err)
	}
	snapTime := time.Since(snapStart)
	fmt.Fprintf(stdout, "snapshot: %s gen %d — %d stored triples (saturated: %v), written in %s\n",
		*dataDir, db.Generation(), strat.Len(), *saturate, snapTime.Round(time.Millisecond))

	// Measure what the snapshot saves: reload it and compare with the
	// parse+build path it replaces.
	loadStart := time.Now()
	if db, err = webreason.OpenDB(*dataDir, webreason.DBOptions{}); err != nil {
		return err
	}
	defer db.Close()
	st := db.State()
	if st == nil {
		return fmt.Errorf("reopened %s has no snapshot", *dataDir)
	}
	if _, _, err := webreason.RestoreStrategy(strat.Name(), st); err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	loadTime := time.Since(loadStart)
	fmt.Fprintf(stdout, "restart cost: snapshot load %s vs parse+build %s — %.1fx faster\n",
		loadTime.Round(time.Microsecond), (parsed + build).Round(time.Millisecond),
		float64(parsed+build)/float64(loadTime))
	return nil
}

func query(args []string, stdout io.Writer) error {
	fs := newFlags("query", "[-strategy s] [-explain] [-plain] (-query text | -query-file f) file.ttl [more files...]")
	strategy := fs.String("strategy", "saturation", strategyUsage)
	explain := fs.Bool("explain", false, "print the reformulated union (reformulation strategy)")
	plain := fs.Bool("plain", false, "also evaluate ignoring entailment, for comparison")
	queryText := fs.String("query", "", "SPARQL BGP query text")
	queryFile := fs.String("query-file", "", "file containing the query")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 || (*queryText == "") == (*queryFile == "") {
		return usagef(fs, "query needs one of -query and -query-file, and at least one RDF file")
	}
	if *queryFile != "" {
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		*queryText = string(b)
	}
	q, err := webreason.ParseQuery(*queryText)
	if err != nil {
		return err
	}
	kb, _, err := loadKB(io.Discard, fs.Args())
	if err != nil {
		return err
	}
	strat, err := webreason.NewStrategy(*strategy, kb)
	if err != nil {
		return err
	}

	if *explain {
		if ref, ok := strat.(*core.Reformulation); ok {
			ucq, err := ref.Reformulate(q)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "reformulation: %d union member(s), evaluated as %s\n%s\n\n", ucq.Size(), ucq.Explain(), ucq)
		} else {
			fmt.Fprintf(stdout, "(-explain shows the rewriting only under -strategy reformulation)\n\n")
		}
	}

	start := time.Now()
	res, err := strat.Answer(q)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if q.Form == sparql.Ask {
		fmt.Fprintf(stdout, "ASK → %v (%v, %s)\n", len(res.Rows) > 0, elapsed, strat.Name())
		return nil
	}
	fmt.Fprintln(stdout, "?"+strings.Join(res.Vars, "\t?"))
	for _, row := range res.Sort().Decode(kb.Dict()) {
		cells := make([]string, len(row))
		for i, t := range row {
			cells[i] = t.String()
		}
		fmt.Fprintln(stdout, strings.Join(cells, "\t"))
	}
	fmt.Fprintf(stdout, "— %d answer(s) in %v via %s\n", len(res.Rows), elapsed, strat.Name())

	if *plain {
		pres, err := core.PlainAnswer(kb, q)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "— plain evaluation (no reasoning): %d answer(s); %d implicit answer(s) would be missed\n",
			len(pres.Rows), len(res.Rows)-len(pres.Rows))
	}
	return nil
}

func serve(args []string, stdout io.Writer) error {
	fs := newFlags("serve", "[flags]")
	strategy := fs.String("strategy", "saturation", strategyUsage)
	universities := fs.Int("universities", 1, "LUBM scale factor")
	depts := fs.Int("depts", 6, "departments per university")
	readers := fs.Int("readers", 4, "concurrent reader goroutines")
	writers := fs.Int("writers", 1, "concurrent writer goroutines")
	duration := fs.Duration("duration", 5*time.Second, "measurement length")
	batch := fs.Int("batch", 16, "triples per writer Insert call")
	flushEvery := fs.Int("flush-every", webreason.DefaultFlushEvery, "server mutation batch size")
	flushInterval := fs.Duration("flush-interval", webreason.DefaultFlushInterval, "server mutation flush interval")
	workload := fs.String("workload", "Q5", "LUBM workload query the readers execute (Q1–Q14)")
	dataDir := fs.String("data", "", "persistence directory: WAL + snapshots, crash recovery on start")
	syncMode := fs.String("sync", "always", "WAL fsync policy: always|group|never")
	groupDelay := fs.Duration("group-delay", 0, "sync=group coalescing window (0 = default, negative = fsync as soon as free)")
	sessionMode := fs.Bool("session", false, "writers use read-your-writes sessions with acknowledged durable writes")
	ckptBytes := fs.Int64("checkpoint-bytes", 0, "checkpoint when the WAL passes this size (0 = default, negative disables)")
	ckptRecords := fs.Int("checkpoint-records", 0, "checkpoint after this many WAL records (0 = default, negative disables)")
	follow := fs.String("follow", "", "run as a read-only follower of this primary data directory (-data is the local mirror)")
	promote := fs.Bool("promote", false, "with -follow: promote to primary when the run ends (failover drill)")
	admin := fs.String("admin", "", "serve /metrics, /healthz, /debug/slowlog and pprof on this address (e.g. localhost:6060)")
	slowThreshold := fs.Duration("slow-threshold", 25*time.Millisecond, "queries at least this slow are traced to /debug/slowlog")
	slowCap := fs.Int("slow-cap", 256, "slow-query traces retained (ring buffer)")
	if err := parse(fs, args); err != nil {
		return err
	}
	switch {
	case *batch < 1:
		return usagef(fs, "-batch must be at least 1")
	case *promote && *follow == "":
		return usagef(fs, "-promote requires -follow")
	case *follow != "" && *dataDir == "":
		return usagef(fs, "-follow requires -data (the follower's local mirror directory)")
	}

	// -admin turns on the whole observability stack: one registry shared by
	// the server, the persistence layer and (with -follow) the replica, plus
	// a slow-query ring the admin listener exposes and retunes.
	var reg *webreason.MetricsRegistry
	var slow *webreason.SlowLog
	if *admin != "" {
		reg = webreason.NewMetricsRegistry()
		slow = webreason.NewSlowLog(*slowCap, *slowThreshold)
	}
	policy, ok := map[string]persist.SyncPolicy{
		"always": webreason.SyncAlways, "group": webreason.SyncGroup, "never": webreason.SyncNever,
	}[*syncMode]
	if !ok {
		return usagef(fs, "unknown -sync %q (want always, group or never)", *syncMode)
	}
	dbOpts := webreason.DBOptions{Sync: policy, GroupDelay: *groupDelay,
		CheckpointBytes: *ckptBytes, CheckpointRecords: *ckptRecords, Obs: reg}
	workloads := lubm.Queries()
	wi := slices.IndexFunc(workloads, func(wq lubm.Query) bool { return wq.Name == *workload })
	if wi < 0 {
		return usagef(fs, "unknown -workload %q", *workload)
	}

	var srv *webreason.Server
	var db *webreason.DB
	if *follow != "" {
		t0 := time.Now()
		f, err := webreason.StartFollower(webreason.FollowerConfig{
			Dir:      *dataDir,
			Source:   webreason.NewFSFeeder(*follow),
			Strategy: *strategy,
			Obs:      reg,
		})
		if err != nil {
			return fmt.Errorf("starting follower of %s: %w", *follow, err)
		}
		srv = webreason.NewFollowerServer(f, webreason.ServerOptions{Obs: reg, SlowLog: slow})
		h := srv.Health()
		fmt.Fprintf(stdout, "following %s into %s: %d triples, applied %s, lag %d bytes (bootstrap %s)\n",
			*follow, *dataDir, srv.Len(), h.ReplicaApplied, h.ReplicaLagBytes, time.Since(t0).Round(time.Millisecond))
		// A follower is read-only until promoted.
		*writers = 0
	} else {
		lubmCfg := lubm.DefaultConfig()
		lubmCfg.Universities, lubmCfg.DeptsPerUniv = *universities, *depts
		strat, d, err := primary(stdout, *dataDir, dbOpts, *strategy, lubmCfg)
		if err != nil {
			return err
		}
		db = d
		srv = webreason.NewServer(strat, webreason.ServerOptions{FlushEvery: *flushEvery,
			FlushInterval: *flushInterval, DB: db, Obs: reg, SlowLog: slow})
	}

	var mutations, sessionChecks atomic.Int64
	write := func(ctx context.Context, w int) error {
		p := webreason.NewIRI("http://load.example.org/p")
		node := func(gen, i int) webreason.Term {
			return webreason.NewIRI(fmt.Sprintf("http://load.example.org/%d-%d-%d", w, gen, i))
		}
		// A session writer's InsertDurable returns once the record is logged
		// and fsynced under the -sync policy; its periodic read then proves
		// read-your-writes on the acknowledged mutation.
		sess := srv.Session()
		insert, del := srv.Insert, srv.Delete
		if *sessionMode {
			insert, del = sess.InsertDurable, sess.DeleteDurable
		}
		for gen, done := 0, ctx.Done(); !stopped(done); gen++ {
			ts := make([]webreason.Triple, 0, *batch)
			for i := 0; i < *batch; i++ {
				ts = append(ts, webreason.T(node(gen, i), p, node(gen+1, i)))
			}
			if err := insert(ts...); err != nil {
				return fmt.Errorf("writer insert: %w", err)
			}
			if *sessionMode && gen%16 == 0 {
				probe := ts[0]
				ok, err := sess.Ask(webreason.MustParseQuery(fmt.Sprintf("ASK { %s %s %s }", probe.S, probe.P, probe.O)))
				if err != nil {
					return fmt.Errorf("session read: %w", err)
				}
				if !ok {
					return errors.New("session read missed its own acknowledged write")
				}
				sessionChecks.Add(1)
			}
			if err := del(ts...); err != nil {
				return fmt.Errorf("writer delete: %w", err)
			}
			mutations.Add(int64(2 * *batch))
		}
		return nil
	}

	// The admin listener stays up through the failover drill and the
	// shutdown below, until serve returns.
	var err error
	if *admin != "" {
		hs, bound, aerr := webreason.ServeAdmin(*admin, srv, reg, slow)
		if err = aerr; err == nil {
			defer hs.Close()
			fmt.Fprintf(stdout, "admin: http://%s/metrics /healthz /debug/slowlog /debug/pprof/\n", bound)
		}
	}
	var queries string
	var elapsed time.Duration
	if err == nil {
		queries, elapsed, err = drive(srv, workloads[wi].Parse(), *duration, *readers, *writers, write)
	}
	if err == nil && *follow != "" {
		h := srv.Health()
		fmt.Fprintf(stdout, "role=%s applied=%s lag=%d bytes (~%d records) epoch=%d\n",
			h.Role, h.ReplicaApplied, h.ReplicaLagBytes, h.ReplicaLagRecords, h.ReplicaEpoch)
		fmt.Fprintf(stdout, "  queries: %s over %s against %d triples\n", queries, elapsed.Round(time.Millisecond), srv.Len())
		if h.Degraded {
			fmt.Fprintf(os.Stderr, "webreason: follower degraded: %v\n", h.DegradedCause)
		}
		if *promote {
			err = promoteDrill(stdout, srv, dbOpts, *follow)
		}
	}
	// The one shutdown path, whether the run ended by its duration, a
	// signal or a failed worker: Close flushes the queue and, when durable,
	// writes the final checkpoint before the WAL is closed.
	err = errors.Join(err, srv.Close())
	if db != nil {
		// Surface durability trouble the run survived: failed checkpoints and
		// superseded files still on disk after every GC pass's retry.
		if st := db.Stats(); st.CheckpointFailures > 0 || st.GCRemoveFailures > 0 {
			fmt.Fprintf(os.Stderr, "webreason: durability warnings: %d checkpoint failures, %d superseded-file removals failed\n",
				st.CheckpointFailures, st.GCRemoveFailures)
		}
		err = errors.Join(err, db.Close())
	}
	if err != nil || *follow != "" {
		return err
	}
	nm := mutations.Load()
	fmt.Fprintf(stdout, "strategy=%s workload=%s readers=%d writers=%d duration=%s flushEvery=%d flushInterval=%s durable=%v session=%v\n",
		*strategy, *workload, *readers, *writers, elapsed.Round(time.Millisecond), *flushEvery, *flushInterval, db != nil, *sessionMode)
	fmt.Fprintf(stdout, "  queries:   %s\n", queries)
	fmt.Fprintf(stdout, "  mutations: %d applied triples (%.0f/sec)\n", nm, float64(nm)/elapsed.Seconds())
	if *sessionMode {
		fmt.Fprintf(stdout, "  sessions:  %d writers, acked durable writes, %d read-your-writes probes all observed\n",
			*writers, sessionChecks.Load())
	}
	fmt.Fprintf(stdout, "  store:     %d triples (%s)\n", srv.Len(), srv.Strategy().Name())
	return nil
}

// primary builds the serving strategy of a primary. Without a data
// directory it is generated from LUBM. With one, it is recovered from the
// directory's snapshot and WAL tail; a directory without a snapshot is
// generated, has any logged WAL records replayed on top, and gets the
// result as its bootstrap snapshot before mutations are accepted.
func primary(stdout io.Writer, dir string, opts webreason.DBOptions, strategy string, cfg lubm.Config) (strat webreason.Strategy, _ *webreason.DB, err error) {
	var db *webreason.DB // not a result: an error return must not clear it before the deferred Close
	var st *webreason.DBState
	if dir != "" {
		if db, err = webreason.OpenDB(dir, opts); err != nil {
			return nil, nil, err
		}
		defer func() {
			if err != nil {
				db.Close()
			}
		}()
		st = db.State()
	}
	t0 := time.Now()
	if st != nil {
		if _, strat, err = webreason.RestoreStrategy(strategy, st); err != nil {
			return nil, nil, err
		}
	} else {
		kb := webreason.NewKB()
		if _, err = kb.LoadGraph(lubm.GenerateWithOntology(cfg)); err != nil {
			return nil, nil, fmt.Errorf("loading LUBM graph: %w", err)
		}
		if strat, err = webreason.NewStrategy(strategy, kb); err != nil {
			return nil, nil, err
		}
	}
	if db == nil {
		return strat, nil, nil
	}
	replayed, err := webreason.Replay(strat, db.ReplayTail)
	if err != nil {
		return nil, nil, fmt.Errorf("replaying WAL: %w", err)
	}
	if st != nil {
		fmt.Fprintf(stdout, "recovered %s: %d triples from snapshot gen %d (saturated: %v), replayed %d WAL records in %s\n",
			dir, strat.Len(), st.Generation, st.Saturated != nil, replayed, time.Since(t0).Round(time.Millisecond))
		return strat, db, nil
	}
	if err = db.Checkpoint(strat.DurableState()); err != nil {
		return nil, nil, fmt.Errorf("bootstrap checkpoint: %w", err)
	}
	fmt.Fprintf(stdout, "bootstrapped %s: %d triples, snapshot gen %d (replayed %d pre-existing WAL records)\n",
		dir, strat.Len(), db.Generation(), replayed)
	return strat, db, nil
}

// drive prepares and warms up q, and then runs readers goroutines answering
// it and writers goroutines running write until the duration passes,
// SIGINT/SIGTERM arrives or a worker fails. It stops and waits for every
// worker before it returns the readers' query count, rate and mean latency,
// the run's length and the first worker error.
func drive(srv *webreason.Server, q *webreason.Query, duration time.Duration, readers, writers int,
	write func(ctx context.Context, w int) error) (string, time.Duration, error) {
	pq, err := srv.Prepare(q)
	if err != nil {
		return "", 0, fmt.Errorf("preparing the workload query: %w", err)
	}
	if _, err := pq.Answer(); err != nil {
		return "", 0, fmt.Errorf("warmup: %w", err)
	}

	// The run's context ends with the duration, a signal or the first
	// worker error, which is the one reported.
	signalled, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	timed, stopTimer := context.WithTimeout(signalled, duration)
	defer stopTimer()
	ctx, stop := context.WithCancel(timed)
	defer stop()
	var failOnce sync.Once
	var failure error
	fail := func(err error) {
		failOnce.Do(func() { failure = err })
		stop()
	}

	var queries, readNanos atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := ctx.Done(); !stopped(done); {
				t0 := time.Now()
				if _, err := pq.Answer(); err != nil {
					fail(fmt.Errorf("reader: %w", err))
					return
				}
				readNanos.Add(time.Since(t0).Nanoseconds())
				queries.Add(1)
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := write(ctx, w); err != nil {
				fail(err)
			}
		}()
	}
	start := time.Now()
	<-ctx.Done()
	elapsed := time.Since(start)
	if signalled.Err() != nil {
		fmt.Fprintln(os.Stderr, "webreason: interrupted, shutting down gracefully")
	}
	wg.Wait()
	n, mean := queries.Load(), time.Duration(0)
	if n > 0 {
		mean = time.Duration(readNanos.Load() / n)
	}
	return fmt.Sprintf("%d (%.0f/sec, mean latency %s)", n, float64(n)/elapsed.Seconds(), mean), elapsed, failure
}

// stopped reports, without blocking or locking, whether done is closed.
func stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// promoteDrill promotes a follower server to primary, which fences the old
// primary's directory, and proves the new primary accepts and applies a
// write.
func promoteDrill(stdout io.Writer, srv *webreason.Server, opts webreason.DBOptions, old string) error {
	t0 := time.Now()
	if err := srv.Promote(webreason.PromotionOptions{DB: opts, CatchUp: true}); err != nil {
		return fmt.Errorf("promoting: %w", err)
	}
	h := srv.Health()
	fmt.Fprintf(stdout, "promoted to %s in %s: term %d, position %s; %s is fenced\n",
		h.Role, time.Since(t0).Round(time.Millisecond), h.Position.Term, h.Position, old)
	probe := webreason.T(
		webreason.NewIRI("http://load.example.org/promoted"),
		webreason.NewIRI("http://load.example.org/p"),
		webreason.NewIRI(fmt.Sprintf("http://load.example.org/term-%d", h.Position.Term)))
	if err := srv.Insert(probe); err != nil {
		return fmt.Errorf("write on promoted primary: %w", err)
	}
	if err := srv.Flush(); err != nil {
		return fmt.Errorf("flush on promoted primary: %w", err)
	}
	return nil
}
