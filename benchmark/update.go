package main

import (
	"fmt"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/lubm"
	"repro/internal/rdf"
)

// writer is sat.update's client 0: one Session streaming 16-triple batches
// through plain Insert/Delete against MaxPending back-pressure, every 32nd
// batch sent durably and timed to its ack.
type writer struct {
	s      *serving
	sess   *webreason.Session
	stream *updateStream
	acked  []update // durable batches whose call returned nil
	tr     *clientTrace
	st     opStats
	// cycles are the times between consecutive durable acks. When a durable
	// call returns, every batch sent so far has been applied and fsynced, so
	// a cycle is exactly the time the server took to apply durableEvery
	// batches; its median is the write path's steady-state cost, without the
	// stalls (checkpoints, collections) that update_triples_s includes.
	cycles  latencies
	lastAck time.Time
}

func (w *writer) send(u update, ts []rdf.Triple) error {
	switch {
	case u.durable && u.del:
		return w.sess.DeleteDurable(ts...)
	case u.durable:
		return w.sess.InsertDurable(ts...)
	case u.del:
		return w.sess.Delete(ts...)
	default:
		return w.sess.Insert(ts...)
	}
}

// run streams batches until the deadline, then flushes, so that every batch
// it counted has been applied when the window's clock stops.
func (w *writer) run(deadline time.Time) {
	for time.Now().Before(deadline) {
		u := w.stream.nextUpdate()
		ts := w.stream.triples(u)
		var d time.Duration
		var err error
		if w.tr != nil {
			d, err = w.tr.mutate(w, u, ts)
		} else {
			start := time.Now()
			err = w.send(u, ts)
			d = time.Since(start)
		}
		w.st.attempted++
		if err != nil {
			w.st.fail("batch %d: %v", w.stream.sent, err)
			continue
		}
		w.st.triples += len(ts)
		if u.durable {
			w.st.ack.add(d)
			w.acked = append(w.acked, u)
			now := time.Now()
			if !w.lastAck.IsZero() {
				w.cycles.add(now.Sub(w.lastAck))
			}
			w.lastAck = now
		}
	}
	if err := w.s.srv.Flush(); err != nil {
		w.st.fail("flush: %v", err)
	}
}

// runUpdate is sat.update: the Saturation strategy over a data directory
// with group commit, a writer session beside a reader of prepared point
// rounds.
func runUpdate(seed int64, sc scale, trace bool) (*report, error) {
	rep := &report{workload: "sat.update", seed: seed}
	if trace {
		sc.setups = 1 // a traced run reports no setup_s
	}
	dir := dataDir(rep.workload)
	s, setupS, heapMB, err := repeatSetUp(sc,
		func() (*serving, error) { return setUpServing("saturation", sc, dir) },
		(*serving).close)
	if err != nil {
		return nil, err
	}
	defer s.close()

	graph := lubm.GenerateWithOntology(dataConfig(sc))
	or, err := buildOracle(core.NewBackward(s.kb), s.kb.Dict(), sc)
	if err != nil {
		return nil, err
	}
	w := &writer{s: s, sess: s.srv.Session(), stream: newUpdateStream(seed, sc, graph)}
	// Answers change under the writes, so the reader checks errors only;
	// the served state is compared with a from-scratch saturation below.
	r := newReader(s, nil, bindingOrder(seed, or.eligible))
	clients := []func(time.Time){w.run, r.preparedClient}
	reset := func() { w.st, r.st, w.cycles, w.lastAck = opStats{}, opStats{}, nil, time.Time{} }

	gen0 := s.db.Generation()
	d := sc.window
	if trace {
		d /= 3
	}
	elapsed := window(sc.warmup, d, clients, reset)
	untraced := w.st
	untraced.merge(&r.st)
	checkpoints := int(s.db.Generation() - gen0)
	var tr *tracer
	if trace {
		tr = newTracer(rep.workload)
		if err := tr.attachUpdate(s, w, r); err != nil {
			return nil, err
		}
		gen0 = s.db.Generation()
		window(sc.warmup, sc.window*2/3, clients, func() { reset(); tr.reset(s) })
		checkpoints = int(s.db.Generation() - gen0)
		traced := w.st
		traced.merge(&r.st)
		rep.count(&traced)
		rep.layers = tr.updateLayers(s, &untraced, &traced)
	} else {
		rep.count(&untraced)
		rep.metrics = append([]metric{setupS, heapMB},
			metric{Name: "update_triples_s", Unit: "1/s", Value: float64(untraced.triples) / elapsed.Seconds(), N: untraced.triples, Stat: "applied/window closed by Flush"},
			timing("cycle_p50_ms", "ms", w.cycles, 0.5, 1e6),
			timing("ack_p50_us", "us", untraced.ack, 0.5, 1e3),
			timing("ack_p99_us", "us", untraced.ack, 0.99, 1e3),
			timing("prepared_p50_us", "us", untraced.prepared, 0.5, 1e3),
			timing("prepared_p99_us", "us", untraced.prepared, 0.99, 1e3))
		rep.notes = append(rep.notes,
			tailNote("durable ack", untraced.ack, "us", 1e3),
			tailNote("prepared round", untraced.prepared, "us", 1e3))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("background checkpoints completed in the window: %d", checkpoints))

	// The reopen is one traced operation of its own: persist.recover around
	// persist.open, core.restore and persist.replay.
	span := func(string) func() { return func() {} }
	if tr != nil {
		c := tr.newClient()
		op := c.beginOp("recover")
		parent := int32(-1)
		span = func(name string) func() {
			i := c.begin(op, name, parent)
			if parent < 0 {
				parent = i
			}
			return func() { c.end(i) }
		}
	}
	recoverTime, err := verifyUpdate(rep, s, w, w.stream.finalGraph(graph), span)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		rep.layers = append(rep.layers,
			metric{Name: "persist.checkpoints", Unit: "count", Value: float64(checkpoints)},
			metric{Name: "persist.recover_ms", Unit: "ms", Value: float64(recoverTime) / 1e6, Stat: "reopen + replay"})
		return rep, tr.write(rep)
	}
	return rep, nil
}

// verifyUpdate checks sat.update's two end-state contracts. The served
// answers must equal those of a from-scratch saturation of the final asserted
// graph; and after closing and reopening the data directory, the recovered
// state must have the same size and every acked batch must be present
// (inserts) or absent (deletes) exactly as the final graph says. It returns
// the time reopening took; span opens a trace span (the first one it opens is
// the parent of the rest) and returns the function that ends it.
func verifyUpdate(rep *report, s *serving, w *writer, final *rdf.Graph, span func(name string) (end func())) (time.Duration, error) {
	kb := webreason.NewKB()
	if _, err := kb.LoadGraph(final); err != nil {
		return 0, err
	}
	fresh := webreason.NewSaturationStrategy(kb)
	if got, want := s.srv.Len(), fresh.Len(); got != want {
		rep.failCheck("served |G∞| = %d, from-scratch saturation of the final graph has %d", got, want)
	}
	compare := func(text string) error {
		q, err := webreason.ParseQuery(text)
		if err != nil {
			return err
		}
		served, err := s.srv.Query(q)
		if err != nil {
			return err
		}
		want, err := fresh.Answer(q)
		if err != nil {
			return err
		}
		rep.attempted++
		if expectOf(served, s.kb.Dict()) != expectOf(want, kb.Dict()) {
			rep.failed++
			rep.failures = append(rep.failures, "after the window: served answer differs from from-scratch saturation for "+text)
		}
		return nil
	}
	for _, texts := range append(append([][]string(nil), s.pointText...), s.scanText...) {
		for _, text := range texts {
			if err := compare(text); err != nil {
				return 0, err
			}
		}
	}

	// Reopen. The server was built with NoFinalCheckpoint, so recovery
	// loads the last background checkpoint and replays the WAL tail.
	s.srv.Close()
	if err := s.db.Close(); err != nil {
		return 0, err
	}
	s.srv, s.db = nil, nil
	t0 := time.Now()
	endRecover := span("persist.recover")
	end := span("persist.open")
	db, err := webreason.OpenDB(s.dir, webreason.DBOptions{Sync: webreason.SyncGroup})
	end()
	if err != nil {
		return 0, err
	}
	defer db.Close()
	end = span("core.restore")
	rkb, recovered, err := webreason.RestoreStrategy("saturation", db.State())
	end()
	if err != nil {
		return 0, err
	}
	end = span("persist.replay")
	_, err = db.ReplayTail(recovered.Insert, recovered.Delete)
	end()
	if err != nil {
		return 0, err
	}
	endRecover()
	recoverTime := time.Since(t0)
	if got, want := recovered.Len(), fresh.Len(); got != want {
		rep.failCheck("recovered |G∞| = %d, want %d", got, want)
	}
	mat := recovered.(*core.Saturation).Materialization()
	for _, u := range w.acked {
		rep.attempted++
		for _, t := range w.stream.triples(u) {
			if mat.IsBase(rkb.Encode(t)) != final.Has(t) {
				rep.failed++
				rep.failures = append(rep.failures, fmt.Sprintf("after reopening: acked batch (del=%v id=%d) lost: %s", u.del, u.id, t))
				break
			}
		}
	}
	return recoverTime, nil
}
