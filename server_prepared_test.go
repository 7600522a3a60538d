package webreason_test

import (
	"errors"
	"sync/atomic"
	"testing"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sparql"
)

var errFlaky = errors.New("flaky prepared execution")

// flakyStrategy wraps a real strategy but hands out instrumented prepared
// queries: each instance carries an id, records itself as lastUsed on every
// execution, and fails while fail is set.
type flakyStrategy struct {
	core.Strategy
	prepares atomic.Int32
	fail     atomic.Bool
	lastUsed atomic.Int32
}

func (f *flakyStrategy) Prepare(q *sparql.Query) (core.PreparedQuery, error) {
	pq, err := f.Strategy.Prepare(q)
	if err != nil {
		return nil, err
	}
	return &flakyPrepared{inner: pq, id: f.prepares.Add(1) - 1, s: f}, nil
}

type flakyPrepared struct {
	inner core.PreparedQuery
	id    int32
	s     *flakyStrategy
}

func (f *flakyPrepared) Query() *sparql.Query { return f.inner.Query() }

func (f *flakyPrepared) Answer() (*engine.Result, error) {
	f.s.lastUsed.Store(f.id)
	if f.s.fail.Load() {
		return nil, errFlaky
	}
	return f.inner.Answer()
}

// TestServerPreparedDropsErroredInstance is the regression test for the
// prepared-instance pool: an instance whose execution returned an error must
// be dropped, not recycled to the next caller — the error may have left its
// cached plan state broken. After an error, the next execution must run on a
// freshly prepared instance.
func TestServerPreparedDropsErroredInstance(t *testing.T) {
	kb := serverKB(t)
	fs := &flakyStrategy{Strategy: core.NewSaturation(kb)}
	srv := webreason.NewServer(fs, webreason.ServerOptions{})
	defer srv.Close()

	q := webreason.MustParseQuery(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:q ?y }`)
	sp, err := srv.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Answer(); err != nil {
		t.Fatal(err)
	}

	// (sync.Pool gives no guarantee about WHICH instance a healthy
	// execution draws, so the assertions below only pin the contract that
	// matters: an instance that errored is never handed out again.)
	fs.fail.Store(true)
	if _, err := sp.Answer(); !errors.Is(err, errFlaky) {
		t.Fatalf("failing Answer: %v, want errFlaky", err)
	}
	failedID := fs.lastUsed.Load()
	fs.fail.Store(false)
	for i := 0; i < 8; i++ {
		if _, err := sp.Answer(); err != nil {
			t.Fatalf("Answer %d after recovery: %v", i, err)
		}
		if got := fs.lastUsed.Load(); got == failedID {
			t.Fatalf("Answer %d recycled errored prepared instance %d back out of the pool", i, failedID)
		}
	}
	if got := fs.prepares.Load(); got < 2 {
		t.Fatalf("%d Prepare calls, want a fresh instance after the error", got)
	}

	// Same contract on the Ask path.
	fs.fail.Store(true)
	if _, err := sp.Ask(); !errors.Is(err, errFlaky) {
		t.Fatalf("failing Ask: %v, want errFlaky", err)
	}
	failedID = fs.lastUsed.Load()
	fs.fail.Store(false)
	for i := 0; i < 8; i++ {
		if _, err := sp.Ask(); err != nil {
			t.Fatalf("Ask %d after recovery: %v", i, err)
		}
		if got := fs.lastUsed.Load(); got == failedID {
			t.Fatalf("Ask %d recycled errored prepared instance %d back out of the pool", i, failedID)
		}
	}
}
