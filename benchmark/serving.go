package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/lubm"
)

// scale fixes the data size and the phase lengths of a run. Every workload
// takes its scale as a value, so the smoke test runs the same code on a
// miniature graph with millisecond windows.
type scale struct {
	universities, depts int
	// warmup precedes every measured window: plans prepared, pools filled,
	// lazy leaf promotion done. window is the measured closed-loop time of a
	// serving workload and the time fig3.batch keeps starting cycles for.
	warmup, window time.Duration
	// setups is how many times set-up runs; setup_s is the median.
	setups int
}

// benchScale is the scale of a real run: |G| ≈ 68k asserted triples,
// |G∞| ≈ 102k at seed 1.
func benchScale(seconds int) scale {
	window := time.Duration(seconds) * time.Second
	return scale{universities: 4, depts: 15, warmup: window / 10, window: window, setups: 3}
}

// Server queue bounds of sat.update. The writer enqueues far faster than the
// applier maintains G∞, so with a bound below durableEvery it runs against
// MaxPending back-pressure for most of every 32-batch cycle and each durable
// call is acked "under the full queue".
const (
	updateMaxPending = 16
	updateFlushEvery = 16
	// checkpointBytes makes the background checkpointer complete several
	// checkpoints inside a 15 s window at the benchmark scale (≈140 B of WAL
	// per triple at ≈4k triples/s is ≈8 MB per window).
	checkpointBytes = 2 << 20
)

// serving is one set-up server with everything a workload needs to generate
// load against it.
type serving struct {
	sc       scale
	kb       *core.KB
	strat    core.Strategy
	srv      *webreason.Server
	reg      *webreason.MetricsRegistry
	db       *webreason.DB
	dir      string
	bindings []binding
	// pointText[b][t] and scanText[u][t] are the SPARQL texts of the rounds;
	// prepared[b][t] are the point plans prepared in set-up.
	pointText [][]string
	scanText  [][]string
	prepared  [][]*webreason.ServerPrepared
	// loadTime and buildTime are the store.load_ms and strategy-construction
	// shares of set-up (saturation, for the Saturation strategy).
	loadTime, buildTime time.Duration
}

// setUpServing generates the data, loads it, builds the strategy, opens the
// data directory when dir is set, starts the server with a metrics registry
// attached (as an operator would run it) and prepares every point plan.
func setUpServing(strategy string, sc scale, dir string) (*serving, error) {
	s := &serving{sc: sc, dir: dir, bindings: allBindings(sc)}
	// The generated graph is the load generator's input, not program state:
	// it is dropped after loading so heap_mb measures the store.
	graph := lubm.GenerateWithOntology(dataConfig(sc))
	s.kb = webreason.NewKB()
	t0 := time.Now()
	if _, err := s.kb.LoadGraph(graph); err != nil {
		return nil, err
	}
	s.loadTime = time.Since(t0)
	t0 = time.Now()
	switch strategy {
	case "saturation":
		s.strat = webreason.NewSaturationStrategy(s.kb)
	case "reformulation":
		s.strat = webreason.NewReformulationStrategy(s.kb)
	default:
		return nil, fmt.Errorf("no serving workload for strategy %q", strategy)
	}
	s.buildTime = time.Since(t0)
	s.reg = webreason.NewMetricsRegistry()
	opts := webreason.ServerOptions{Obs: s.reg}
	if dir != "" {
		db, err := webreason.OpenDB(dir, webreason.DBOptions{
			Sync: webreason.SyncGroup, CheckpointBytes: checkpointBytes, CheckpointRecords: -1, Obs: s.reg,
		})
		if err != nil {
			return nil, err
		}
		s.db = db
		// Bootstrap checkpoint: the bulk load becomes a snapshot, not a WAL.
		if err := db.Checkpoint(s.strat.(webreason.DurableStrategy).DurableState()); err != nil {
			s.close()
			return nil, err
		}
		opts.DB = db
		opts.MaxPending = updateMaxPending
		opts.FlushEvery = updateFlushEvery
		// The WAL tail is left for the reopen check to replay.
		opts.NoFinalCheckpoint = true
	}
	s.srv = webreason.NewServer(s.strat, opts)
	for _, b := range s.bindings {
		var texts []string
		var plans []*webreason.ServerPrepared
		for _, t := range templates(pointNames) {
			text := bind(t.Text, b)
			q, err := webreason.ParseQuery(text)
			if err != nil {
				s.close()
				return nil, err
			}
			p, err := s.srv.Prepare(q)
			if err != nil {
				s.close()
				return nil, err
			}
			texts = append(texts, text)
			plans = append(plans, p)
		}
		s.pointText = append(s.pointText, texts)
		s.prepared = append(s.prepared, plans)
	}
	for u := 0; u < sc.universities; u++ {
		var texts []string
		for _, t := range templates(scanNames) {
			texts = append(texts, bind(t.Text, binding{univ: u}))
		}
		s.scanText = append(s.scanText, texts)
	}
	return s, nil
}

// close stops the server, closes the data directory and removes it.
func (s *serving) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.db != nil {
		s.db.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// liveHeapMB is the live heap after a forced collection: the bytes the
// set-up state holds.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// repeatSetUp runs setUp sc.setups times, tearing down all but the last, and
// returns the last state with the median set-up time and the live heap it
// holds.
func repeatSetUp[T any](sc scale, setUp func() (T, error), tearDown func(T)) (state T, setupS, heapMB metric, err error) {
	var times []time.Duration
	for i := 0; i < sc.setups; i++ {
		if i > 0 {
			tearDown(state)
			var zero T
			state = zero
			runtime.GC()
		}
		t0 := time.Now()
		if state, err = setUp(); err != nil {
			return state, setupS, heapMB, err
		}
		times = append(times, time.Since(t0))
	}
	setupS = metric{Name: "setup_s", Unit: "s", Value: medianDuration(times).Seconds(), N: len(times), Stat: "median"}
	heapMB = metric{Name: "heap_mb", Unit: "MB", Value: liveHeapMB(), Stat: "after set-up and GC"}
	return state, setupS, heapMB, nil
}
