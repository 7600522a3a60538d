package webreason_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	webreason "repro"
)

// serverKB builds a KB with a tiny ontology: ex:p has domain ex:D and range
// ex:R and is a subproperty of ex:q.
func serverKB(t testing.TB) *webreason.KB {
	t.Helper()
	kb := webreason.NewKB()
	ex := func(n string) webreason.Term { return webreason.NewIRI("http://ex.org/" + n) }
	if _, err := kb.LoadGraph(webreason.GraphOf(
		webreason.T(ex("p"), webreason.SubPropertyOf, ex("q")),
		webreason.T(ex("p"), webreason.Domain, ex("D")),
		webreason.T(ex("p"), webreason.Range, ex("R")),
	)); err != nil {
		t.Fatal(err)
	}
	return kb
}

var serverStrategies = []string{"saturation", "reformulation", "backward"}

func newServerFor(t testing.TB, name string, opts webreason.ServerOptions) *webreason.Server {
	t.Helper()
	strat, err := webreason.NewStrategy(name, serverKB(t))
	if err != nil {
		t.Fatal(err)
	}
	return webreason.NewServer(strat, opts)
}

// TestServerFlushVisibility: mutations become visible exactly at flush
// boundaries — not before the flush (bounded staleness), fully after it
// (read-your-flushed-writes), for all three strategies.
func TestServerFlushVisibility(t *testing.T) {
	ex := func(n string) webreason.Term { return webreason.NewIRI("http://ex.org/" + n) }
	q := webreason.MustParseQuery(
		`PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:q ?y . ?x a ex:D }`)
	for _, name := range serverStrategies {
		t.Run(name, func(t *testing.T) {
			// Timer disabled and batch huge: flushes happen only explicitly,
			// making the staleness window deterministic.
			srv := newServerFor(t, name, webreason.ServerOptions{FlushEvery: 1 << 20, FlushInterval: -1})
			defer srv.Close()

			if err := srv.Insert(webreason.T(ex("a"), ex("p"), ex("b"))); err != nil {
				t.Fatal(err)
			}
			res, err := srv.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 0 {
				t.Fatalf("unflushed insert already visible (%d rows)", len(res.Rows))
			}
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}
			res, err = srv.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("after flush: %d rows, want 1 (entailed q-edge + domain type)", len(res.Rows))
			}

			if err := srv.Delete(webreason.T(ex("a"), ex("p"), ex("b"))); err != nil {
				t.Fatal(err)
			}
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}
			if ok, _ := srv.Ask(q); ok {
				t.Fatal("deleted triple still entailed after flush")
			}
		})
	}
}

// TestServerTimerFlush: with a short interval and no explicit Flush, the
// background writer applies the batch on its own.
func TestServerTimerFlush(t *testing.T) {
	ex := func(n string) webreason.Term { return webreason.NewIRI("http://ex.org/" + n) }
	srv := newServerFor(t, "saturation", webreason.ServerOptions{FlushEvery: 1 << 20, FlushInterval: 200 * time.Microsecond})
	defer srv.Close()
	if err := srv.Insert(webreason.T(ex("a"), ex("p"), ex("b"))); err != nil {
		t.Fatal(err)
	}
	q := webreason.MustParseQuery(`PREFIX ex: <http://ex.org/> ASK { ex:a ex:q ex:b }`)
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok, err := srv.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timer flush never applied the batch")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerValidationAndClose: ill-formed mutations fail synchronously;
// mutations after Close are rejected; reads keep working; Close is
// idempotent.
func TestServerValidationAndClose(t *testing.T) {
	ex := func(n string) webreason.Term { return webreason.NewIRI("http://ex.org/" + n) }
	srv := newServerFor(t, "saturation", webreason.ServerOptions{})
	bad := webreason.T(webreason.NewLiteral("lit"), ex("p"), ex("b"))
	if err := srv.Insert(bad); err == nil {
		t.Fatal("ill-formed triple accepted")
	}
	if err := srv.Insert(webreason.T(ex("a"), ex("p"), ex("b"))); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Close drained the queue: the pre-close insert must be visible.
	if ok, _ := srv.Ask(webreason.MustParseQuery(`PREFIX ex: <http://ex.org/> ASK { ex:a ex:p ex:b }`)); !ok {
		t.Fatal("pre-close mutation lost")
	}
	if err := srv.Insert(webreason.T(ex("c"), ex("p"), ex("d"))); err == nil {
		t.Fatal("insert after Close accepted")
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}

// TestServerBackpressure: a full mutation queue blocks producers until the
// writer drains it — nothing is lost, nothing grows without bound.
func TestServerBackpressure(t *testing.T) {
	ex := func(n string) webreason.Term { return webreason.NewIRI("http://ex.org/" + n) }
	srv := newServerFor(t, "saturation", webreason.ServerOptions{
		FlushEvery:    1 << 20, // only backpressure nudges trigger drains
		FlushInterval: -1,
		MaxPending:    2,
	})
	defer srv.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if err := srv.Insert(webreason.T(ex(fmt.Sprintf("s%d", i)), ex("p"), ex(fmt.Sprintf("o%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Query(webreason.MustParseQuery(
		`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:D }`))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n {
		t.Fatalf("after backpressured inserts: %d answers, want %d", len(res.Rows), n)
	}
}

// TestServerPreparedConcurrent: one ServerPrepared shared by many goroutines
// must behave like independent prepared queries (the pool hands out
// per-goroutine instances), with correct results throughout.
func TestServerPreparedConcurrent(t *testing.T) {
	ex := func(n string) webreason.Term { return webreason.NewIRI("http://ex.org/" + n) }
	for _, name := range serverStrategies {
		t.Run(name, func(t *testing.T) {
			srv := newServerFor(t, name, webreason.ServerOptions{FlushEvery: 4, FlushInterval: time.Millisecond})
			defer srv.Close()
			const n = 20
			for i := 0; i < n; i++ {
				if err := srv.Insert(webreason.T(ex(fmt.Sprintf("s%d", i)), ex("p"), ex(fmt.Sprintf("o%d", i)))); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}
			pq, err := srv.Prepare(webreason.MustParseQuery(
				`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:D }`))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						res, err := pq.Answer()
						if err != nil {
							errs <- err
							return
						}
						if len(res.Rows) != n {
							errs <- fmt.Errorf("got %d rows, want %d", len(res.Rows), n)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}
