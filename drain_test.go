package webreason_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/persist"
)

// heldStrategy wraps a strategy and parks the server's applier inside its
// first Apply — after the drain has taken its batches off the queue, before
// any of them is maintained — until release is closed. Whatever is enqueued
// meanwhile is the next drain, whole.
type heldStrategy struct {
	core.Strategy
	once             sync.Once
	entered, release chan struct{}
}

func hold(s core.Strategy) *heldStrategy {
	return &heldStrategy{Strategy: s, entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *heldStrategy) Apply(fn func(core.Writer) error) error {
	h.once.Do(func() {
		close(h.entered)
		<-h.release
	})
	return h.Strategy.Apply(fn)
}

// drainBatch is one mutation call of a scripted drain.
type drainBatch struct {
	del bool
	ts  []webreason.Triple
}

// alternatingBatches returns 2n batches over serverKB's vocabulary, inserts
// and deletes alternating so that every batch is a run of its own: batch 2j
// asserts two ex:p edges of subject sj (entailing ex:q edges and the ex:D /
// ex:R types), batch 2j+1 retracts the second of them. Batch 2 also asserts a
// schema triple (ex:q ⊑ ex:r), which the runs after it are maintained under.
func alternatingBatches(n int) []drainBatch {
	ex := func(name string) webreason.Term { return webreason.NewIRI("http://ex.org/" + name) }
	var out []drainBatch
	for j := 0; j < n; j++ {
		s := ex("s" + itoa(j))
		keep, drop := webreason.T(s, ex("p"), ex("o"+itoa(j))), webreason.T(s, ex("p"), ex("x"+itoa(j)))
		ins := drainBatch{ts: []webreason.Triple{keep, drop}}
		if j == 1 {
			ins.ts = append(ins.ts, webreason.T(ex("q"), webreason.SubPropertyOf, ex("r")))
		}
		out = append(out, ins, drainBatch{del: true, ts: []webreason.Triple{drop}})
	}
	return out
}

var drainQueries = []*webreason.Query{
	webreason.MustParseQuery(`PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:q ?y }`),
	webreason.MustParseQuery(`PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:r ?y . ?x a ex:D }`),
	webreason.MustParseQuery(`PREFIX ex: <http://ex.org/> SELECT ?y WHERE { ?y a ex:R }`),
}

// strategyKey renders a strategy's answers to drainQueries, decoded.
func strategyKey(t *testing.T, s webreason.Strategy, kb *webreason.KB) string {
	t.Helper()
	var b strings.Builder
	for _, q := range drainQueries {
		res, err := s.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(rowsKey(res, kb.Dict()) + "\n--\n")
	}
	return b.String()
}

// oneByOne applies batches to a fresh strategy over serverKB one Insert or
// Delete at a time and returns its answers.
func oneByOne(t *testing.T, name string, batches []drainBatch) string {
	t.Helper()
	kb := serverKB(t)
	ref, err := webreason.NewStrategy(name, kb)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if b.del {
			err = ref.Delete(b.ts...)
		} else {
			err = ref.Insert(b.ts...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return strategyKey(t, ref, kb)
}

var plug = drainBatch{ts: []webreason.Triple{webreason.T(
	webreason.NewIRI("http://ex.org/plug"), webreason.NewIRI("http://ex.org/p"), webreason.NewIRI("http://ex.org/plugged"))}}

// TestDrainPublishesOnce: a drained queue of ten alternating insert/delete
// batches — ten runs — is one view publication and one store epoch, for every
// strategy, and ends in the state that applying the batches one by one
// reaches. The counters are the ones /metrics exposes.
func TestDrainPublishesOnce(t *testing.T) {
	batches := alternatingBatches(5)
	for _, name := range serverStrategies {
		t.Run(name, func(t *testing.T) {
			kb := serverKB(t)
			strat, err := webreason.NewStrategy(name, kb)
			if err != nil {
				t.Fatal(err)
			}
			held := hold(strat)
			reg := webreason.NewMetricsRegistry()
			srv := webreason.NewServer(held, webreason.ServerOptions{FlushEvery: 1, Obs: reg})
			defer srv.Close()
			before := strat.WriteStats()

			// The plug is a drain of its own: it parks the applier while the
			// ten batches queue up behind it.
			if err := srv.Insert(plug.ts...); err != nil {
				t.Fatal(err)
			}
			<-held.entered
			for _, b := range batches {
				if err := srv.Mutate(context.Background(), webreason.Mutation{Delete: b.del, Triples: b.ts}); err != nil {
					t.Fatal(err)
				}
			}
			close(held.release)
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}

			out := expose(t, reg)
			drains := counterValue(t, out, "webreason_apply_seconds_count")
			views := counterValue(t, out, "webreason_views_published_total")
			if drains != 2 || views != 2 {
				t.Fatalf("plug + %d batches: %d drains published %d views, want 2 and 2", len(batches), drains, views)
			}
			after := strat.WriteStats()
			if got := after.StoreEpoch - before.StoreEpoch; got != 2 {
				t.Fatalf("2 drains cost %d store epochs, want 2", got)
			}
			if copied := counterValue(t, out, "webreason_store_copied_total"); uint64(copied) != after.StoreCopied {
				t.Fatalf("webreason_store_copied_total = %d, strategy says %d", copied, after.StoreCopied)
			}
			if got, want := strategyKey(t, srv.Strategy(), kb), oneByOne(t, name, append([]drainBatch{plug}, batches...)); got != want {
				t.Fatalf("drained as one epoch:\n%s\napplied one by one:\n%s", got, want)
			}
		})
	}
}

// TestDrainWALFailureAppliesLoggedPrefix: when logging run k of a drain
// fails, the runs logged before it are applied and visible — published with
// the drain — while run k and everything after it are refused with
// ErrDegraded, the server already reporting itself degraded when the first
// such ack fires, and session reads split at the same point.
func TestDrainWALFailureAppliesLoggedPrefix(t *testing.T) {
	const k = 3 // the failing run of the drain, 0-based
	batches := alternatingBatches(3)
	// WAL sync 1 is the header at Open, 2 the plug's record, 3+j run j's.
	fsys := faultfs.New(faultfs.NewSchedule().FailOpAlways(faultfs.OpSync, "wal-", 3+k, syscall.EIO))
	db, err := persist.Open(t.TempDir(), persist.Options{FS: fsys, Sync: persist.SyncAlways, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	held := hold(core.NewSaturation(serverKB(t)))
	srv := webreason.NewServer(held, webreason.ServerOptions{FlushEvery: 1, DB: db})
	defer srv.Close()

	if err := srv.Insert(plug.ts...); err != nil {
		t.Fatal(err)
	}
	<-held.entered
	// One durable call per batch, each from its own session, enqueued in
	// order: call i+1 starts once the server has accepted call i.
	type outcome struct {
		err      error
		degraded bool // Health().Degraded as the ack returned
	}
	outcomes := make([]outcome, len(batches))
	sessions := make([]*webreason.Session, len(batches))
	var wg sync.WaitGroup
	for i, b := range batches {
		sessions[i] = srv.Session()
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := sessions[i].Mutate(context.Background(), webreason.Mutation{Delete: b.del, Durable: true, Triples: b.ts})
			outcomes[i] = outcome{err, srv.Health().Degraded}
		}()
		for deadline := time.Now().Add(10 * time.Second); srv.Health().Enqueued < uint64(i+2); {
			if time.Now().After(deadline) {
				t.Fatalf("batch %d was never enqueued", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	close(held.release)
	wg.Wait()
	if err := srv.Flush(); !errors.Is(err, webreason.ErrDegraded) {
		t.Fatalf("Flush after the failed append = %v, want ErrDegraded", err)
	}

	for i, o := range outcomes {
		switch {
		case i < k && o.err != nil:
			t.Errorf("run %d was logged before the failure but its ack is %v", i, o.err)
		case i >= k && !errors.Is(o.err, webreason.ErrDegraded):
			t.Errorf("run %d: ack %v, want ErrDegraded", i, o.err)
		case i >= k && !errors.Is(o.err, syscall.EIO):
			t.Errorf("run %d: ack %v does not carry the cause", i, o.err)
		case i >= k && !o.degraded:
			t.Errorf("run %d: refused before Health reported the server degraded", i)
		}
	}
	// Runs 0..2 — assert s0's edges, retract one, assert s1's edges (and the
	// schema triple) — are what an anonymous reader sees; run 3, the retraction
	// of s1's second edge, never happened, nor did anything of s2.
	for _, c := range []struct {
		ask  string
		want bool
	}{
		{`ASK { <http://ex.org/plug> <http://ex.org/q> <http://ex.org/plugged> }`, true},
		{`ASK { <http://ex.org/s0> <http://ex.org/q> <http://ex.org/o0> }`, true},
		{`ASK { <http://ex.org/s0> <http://ex.org/p> <http://ex.org/x0> }`, false},
		{`ASK { <http://ex.org/s1> <http://ex.org/r> <http://ex.org/o1> }`, true},
		{`ASK { <http://ex.org/s1> <http://ex.org/p> <http://ex.org/x1> }`, true},
		{`ASK { <http://ex.org/s2> <http://ex.org/p> ?o }`, false},
	} {
		if ok, err := srv.Ask(webreason.MustParseQuery(c.ask)); err != nil || ok != c.want {
			t.Errorf("%s = %v, %v; want %v", c.ask, ok, err, c.want)
		}
	}
	// divergedAt is run k's first call: sessions below it keep reading, the
	// ones at or above it get the typed error instead of a stale answer.
	for i, ss := range sessions {
		_, err := ss.Query(drainQueries[0])
		if i < k && err != nil {
			t.Errorf("session of applied run %d: read failed: %v", i, err)
		}
		if i >= k && !errors.Is(err, webreason.ErrDegraded) {
			t.Errorf("session of refused run %d: read returned %v, want ErrDegraded", i, err)
		}
	}
}

// TestCheckpointMidDrainSitsAtItsRunBoundary: a checkpoint that comes due in
// the middle of a drain captures the state after exactly the runs logged
// before it — reopening from it gives the state of that WAL prefix, and
// replaying the tail on top gives the live state — although none of those
// runs was published before the drain ended.
func TestCheckpointMidDrainSitsAtItsRunBoundary(t *testing.T) {
	batches := alternatingBatches(4)
	dir := t.TempDir()
	// Due at the fifth record: the plug and four runs of the drain's eight.
	db, err := persist.Open(dir, persist.Options{Sync: persist.SyncNever, CheckpointBytes: -1, CheckpointRecords: 5})
	if err != nil {
		t.Fatal(err)
	}
	kb := serverKB(t)
	held := hold(core.NewSaturation(kb))
	srv := webreason.NewServer(held, webreason.ServerOptions{FlushEvery: 1, DB: db, NoFinalCheckpoint: true})
	if err := srv.Insert(plug.ts...); err != nil {
		t.Fatal(err)
	}
	<-held.entered
	for _, b := range batches {
		if err := srv.Mutate(context.Background(), webreason.Mutation{Delete: b.del, Triples: b.ts}); err != nil {
			t.Fatal(err)
		}
	}
	close(held.release)
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if v := held.WriteStats().Views; v != 2 {
		t.Fatalf("the capture published a view: %d views for 2 drains", v)
	}
	live := strategyKey(t, srv.Strategy(), kb)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // waits for the background checkpoint
		t.Fatal(err)
	}

	db, err = persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st := db.State()
	if st == nil {
		t.Fatal("no checkpoint was written")
	}
	all := append([]drainBatch{plug}, batches...)
	covered := len(all) - db.TailLen()
	if covered != 5 {
		t.Fatalf("the checkpoint covers %d of %d records, want the 5 it came due at", covered, len(all))
	}
	rkb, recovered, err := core.RestoreStrategy("saturation", st)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strategyKey(t, recovered, rkb), oneByOne(t, "saturation", all[:covered]); got != want {
		t.Fatalf("checkpoint state:\n%s\nstate of the WAL prefix it claims:\n%s", got, want)
	}
	if _, err := core.Replay(recovered, db.ReplayTail); err != nil {
		t.Fatal(err)
	}
	if got := strategyKey(t, recovered, rkb); got != live {
		t.Fatalf("checkpoint + tail:\n%s\nlive:\n%s", got, live)
	}
}
