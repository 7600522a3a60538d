package webreason_test

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/sparql"
)

var errFlaky = errors.New("flaky prepared execution")

// flakyStrategy wraps a real strategy but hands out prepared queries whose
// executions fail while fail is set.
type flakyStrategy struct {
	core.Strategy
	fail atomic.Bool
}

func (f *flakyStrategy) Prepare(q *sparql.Query) (core.PreparedQuery, error) {
	pq, err := f.Strategy.Prepare(q)
	if err != nil {
		return nil, err
	}
	return &flakyPrepared{PreparedQuery: pq, s: f}, nil
}

type flakyPrepared struct {
	core.PreparedQuery
	s *flakyStrategy
}

func (f *flakyPrepared) Execute() (*engine.Result, bool, error) {
	if f.s.fail.Load() {
		return nil, false, errFlaky
	}
	return f.PreparedQuery.Execute()
}

// TestServerPreparedSurvivesErroredExecution: an execution that returns an
// error leaves the next execution correct, on the Answer and the Ask path.
// (There is no per-caller instance an error could poison: every caller runs
// the one shared plan on scratch of its own.)
func TestServerPreparedSurvivesErroredExecution(t *testing.T) {
	fs := &flakyStrategy{Strategy: core.NewSaturation(serverKB(t))}
	srv := webreason.NewServer(fs, webreason.ServerOptions{})
	defer srv.Close()
	ex := func(n string) webreason.Term { return webreason.NewIRI("http://ex.org/" + n) }
	if err := srv.Insert(webreason.T(ex("a"), ex("p"), ex("b"))); err != nil {
		t.Fatal(err)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	q := webreason.MustParseQuery(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:q ?y }`)
	sp, err := srv.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		fs.fail.Store(true)
		if _, err := sp.Answer(); !errors.Is(err, errFlaky) {
			t.Fatalf("failing Answer: %v, want errFlaky", err)
		}
		if _, err := sp.Ask(); !errors.Is(err, errFlaky) {
			t.Fatalf("failing Ask: %v, want errFlaky", err)
		}
		fs.fail.Store(false)
		res, err := sp.Answer()
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("Answer after an errored execution: %v rows, err %v; want 1 row", res, err)
		}
		if ok, err := sp.Ask(); err != nil || !ok {
			t.Fatalf("Ask after an errored execution = %v, %v; want true", ok, err)
		}
	}
}

// rowsKey renders a result as a sorted, decoded multiset, for comparing
// answers that may come from different strategy objects.
func rowsKey(res *engine.Result, d *dict.Dict) string {
	var rows []string
	for _, row := range res.Decode(d) {
		rows = append(rows, fmt.Sprint(row))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestPreparedSharedAcrossGoroutines: one ServerPrepared — one compiled plan
// — executed by 8 goroutines at once while a writer streams data-only
// batches, a schema-changing batch, and a batch that coins a constant the
// query names. Every execution must succeed, and at quiescence every
// goroutine's answer must equal a fresh Server.Query. Under -race this is
// the proof that the shared plan and its adaptive hints are race-free.
func TestPreparedSharedAcrossGoroutines(t *testing.T) {
	ex := func(n string) webreason.Term { return webreason.NewIRI("http://ex.org/" + n) }
	queries := []*webreason.Query{
		// Join over entailed edges and types: follows data and schema.
		webreason.MustParseQuery(`PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:q ?y . ?x a ex:D }`),
		// Names ex:late, unknown to the dictionary until the writer coins it.
		webreason.MustParseQuery(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:q ex:late }`),
		// A variable in class position: the rewriting reads the data vocabulary.
		webreason.MustParseQuery(`PREFIX ex: <http://ex.org/> SELECT ?c WHERE { ex:s0 a ?c }`),
	}
	for _, name := range serverStrategies {
		t.Run(name, func(t *testing.T) {
			kb := serverKB(t)
			strat, err := webreason.NewStrategy(name, kb)
			if err != nil {
				t.Fatal(err)
			}
			srv := webreason.NewServer(strat, webreason.ServerOptions{FlushEvery: 4})
			defer srv.Close()
			var sps []*webreason.ServerPrepared
			for _, q := range queries {
				sp, err := srv.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				sps = append(sps, sp)
			}

			const readers = 8
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := sps[(r+i)%len(sps)].Answer(); err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
					}
				}(r)
			}

			write := func(ts ...webreason.Triple) {
				t.Helper()
				if err := srv.Insert(ts...); err != nil {
					t.Fatal(err)
				}
			}
			for b := 0; b < 40; b++ { // data only, past the 2× replan drift
				write(webreason.T(ex(fmt.Sprintf("s%d", b)), ex("p"), ex(fmt.Sprintf("o%d", b))),
					webreason.T(ex(fmt.Sprintf("s%d", b)), ex("r"), ex(fmt.Sprintf("o%d", b))))
			}
			write(webreason.T(ex("r"), webreason.SubPropertyOf, ex("q")), // schema change
				webreason.T(ex("r"), webreason.Domain, ex("D")))
			write(webreason.T(ex("s1"), ex("p"), ex("late"))) // coins ex:late
			for b := 40; b < 60; b++ {
				write(webreason.T(ex(fmt.Sprintf("s%d", b)), ex("r"), ex("late")))
			}
			if err := srv.Delete(webreason.T(ex("r"), webreason.Domain, ex("D"))); err != nil {
				t.Fatal(err)
			}
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()

			// Quiescence: every goroutine's answer equals a fresh ad hoc one.
			want := make([]string, len(queries))
			for i, q := range queries {
				res, err := srv.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) == 0 {
					t.Fatalf("query %d: fresh answer is empty; the test checks nothing", i)
				}
				want[i] = rowsKey(res, kb.Dict())
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i, sp := range sps {
						res, err := sp.Answer()
						if err != nil {
							t.Errorf("reader %d query %d: %v", r, i, err)
						} else if got := rowsKey(res, kb.Dict()); got != want[i] {
							t.Errorf("reader %d query %d: prepared answer differs from a fresh Query:\ngot\n%s\nwant\n%s", r, i, got, want[i])
						}
					}
				}(r)
			}
			wg.Wait()
		})
	}
}

// gatedSource is a ReplicaSource whose chain scans fail while it is paused,
// so a live follower can be made to lag past the primary's WAL GC horizon.
type gatedSource struct {
	webreason.ReplicaSource
	paused atomic.Bool
}

func (g *gatedSource) Chain() (persist.ChainInfo, error) {
	if g.paused.Load() {
		return persist.ChainInfo{}, errors.New("gatedSource: paused")
	}
	return g.ReplicaSource.Chain()
}

// TestPreparedFollowsFollowerRebootstrap is the follower variant of
// TestPreparedSharedAcrossGoroutines: a gap re-bootstrap replaces the
// follower's whole strategy object under a ServerPrepared that goroutines
// are executing, and the same ServerPrepared keeps answering — correctly,
// from the new strategy.
func TestPreparedFollowsFollowerRebootstrap(t *testing.T) {
	primDir := t.TempDir()
	db, err := webreason.OpenDB(primDir, webreason.DBOptions{
		Sync: webreason.SyncGroup, CheckpointRecords: 2, CheckpointBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	strat, err := webreason.NewStrategy("saturation", webreason.NewKB())
	if err != nil {
		t.Fatal(err)
	}
	srv := webreason.NewServer(strat, webreason.ServerOptions{FlushEvery: 1, DB: db})
	defer srv.Close()

	src := &gatedSource{ReplicaSource: webreason.NewFSFeeder(primDir)}
	f, err := webreason.StartFollower(webreason.FollowerConfig{Dir: t.TempDir(), Source: src, Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := webreason.NewFollowerServer(f, webreason.ServerOptions{})
	defer fsrv.Close()

	q := webreason.MustParseQuery(`SELECT ?s ?o WHERE { ?s <http://fleet.example.org/p> ?o }`)
	sp, err := fsrv.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sp.Answer(); err != nil {
					t.Errorf("prepared Answer on the follower: %v", err)
					return
				}
			}
		}()
	}

	n := 0
	insert := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			n++
			if err := srv.InsertDurable(fleetT(n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	caughtUp := func() bool { return fsrv.Health().ReplicaApplied.Compare(srv.Health().Position) >= 0 }
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	insert(3)
	waitFor("the follower to catch up", caughtUp)
	epoch0 := fsrv.Health().ReplicaEpoch
	strat0 := fsrv.Strategy()

	// While the follower cannot scan, the primary rotates through several
	// checkpoints and collects the generation the follower was tailing.
	src.paused.Store(true)
	waitFor("a re-bootstrap", func() bool {
		insert(6)
		src.paused.Store(false)
		time.Sleep(20 * time.Millisecond)
		if fsrv.Health().ReplicaEpoch > epoch0 {
			return true
		}
		src.paused.Store(true)
		return false
	})
	if fsrv.Strategy() == strat0 {
		t.Fatal("re-bootstrap did not swap the follower's strategy object")
	}
	waitFor("the follower to catch up again", caughtUp)
	close(stop)
	wg.Wait()

	res, err := sp.Answer()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := fsrv.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n || len(fresh.Rows) != n {
		t.Fatalf("after the re-bootstrap: prepared %d rows, fresh %d rows, want %d", len(res.Rows), len(fresh.Rows), n)
	}
}

// TestPreparedSurvivesGC: a compiled plan is owned by its prepared query,
// not by a sync.Pool, so collections between executions cost nothing — no
// rewriting and no compilation happens again. (With per-goroutine instances
// in a pool, every collection emptied the pool and the next execution
// re-reformulated: ROADMAP's ref.read finding.)
func TestPreparedSurvivesGC(t *testing.T) {
	f := getFixture(t)
	srv := webreason.NewServer(f.ref, webreason.ServerOptions{})
	defer srv.Close()
	pq, err := srv.Prepare(f.qs["Q5"])
	if err != nil {
		t.Fatal(err)
	}
	want, err := pq.Answer()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, compiled := core.RefPlanStats.Rebuilt.Load(), engine.PlanStats.Compiled.Load()
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.GC()
		res, err := pq.Answer()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(want.Rows) {
			t.Fatalf("execution %d after GC: %d rows, want %d", i, len(res.Rows), len(want.Rows))
		}
	}
	if got := core.RefPlanStats.Rebuilt.Load() - rebuilt; got != 0 {
		t.Errorf("garbage collection cost %d re-reformulations of a prepared query", got)
	}
	if got := engine.PlanStats.Compiled.Load() - compiled; got != 0 {
		t.Errorf("garbage collection cost %d plan compilations of a prepared query", got)
	}
}
