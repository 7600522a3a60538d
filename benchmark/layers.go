package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/persist"
	"repro/internal/rdf"
	"repro/internal/reason"
	"repro/internal/reformulate"
	"repro/internal/schema"
	"repro/internal/sparql"
	"repro/internal/store"
)

// matchCall is one call the engine made into the store during a counted
// evaluation, kept so the same calls can be replayed against the store alone.
type matchCall struct {
	kind uint8 // 0 ForEachMatch, 1 Count, 2 SortedIDs
	pat  store.Triple
	n    int // triples the engine consumed before stopping
}

// countingSource forwards an engine.Source and counts what crosses the
// boundary: calls made and triples examined. It is used in a pass of its own,
// never in a timed span, so counting costs the timings nothing.
type countingSource struct {
	src      engine.Source
	calls    []matchCall
	examined int
}

func (c *countingSource) ForEachMatch(pat store.Triple, fn func(store.Triple) bool) {
	n := 0
	c.src.ForEachMatch(pat, func(t store.Triple) bool {
		n++
		return fn(t)
	})
	c.calls = append(c.calls, matchCall{0, pat, n})
	c.examined += n
}

func (c *countingSource) Count(pat store.Triple) int {
	c.calls = append(c.calls, matchCall{kind: 1, pat: pat})
	return c.src.Count(pat)
}

// countingSorted is the counting decorator for sources with sorted leaves,
// so prepared plans over it still choose merge joins.
type countingSorted struct{ countingSource }

func (c *countingSorted) SortedIDs(pat store.Triple) ([]dict.ID, bool) {
	ids, ok := c.src.(engine.SortedSource).SortedIDs(pat)
	c.calls = append(c.calls, matchCall{2, pat, len(ids)})
	c.examined += len(ids)
	return ids, ok
}

func (c *countingSource) reset(src engine.Source) {
	c.src, c.calls, c.examined = src, c.calls[:0], 0
}

// replay repeats the recorded store calls against the undecorated source:
// the time the evaluation spent matching, without the engine's own work.
func (c *countingSource) replay() {
	var n, limit int
	take := func(store.Triple) bool { // one closure for every call: no allocation per call
		n++
		return n < limit
	}
	for _, call := range c.calls {
		switch call.kind {
		case 0:
			n, limit = 0, call.n
			c.src.ForEachMatch(call.pat, take)
		case 1:
			c.src.Count(call.pat)
		case 2:
			c.src.(engine.SortedSource).SortedIDs(call.pat)
		}
	}
}

// plainSource hides a store's sorted leaves, as the reformulation strategy's
// union of data and schema overlay does: plans over it use nested-loop joins.
type plainSource struct{ engine.Source }

// readEnv is what the read replay of one traced run evaluates against. For
// saturation it is the current snapshot of G∞ (published by the write replay
// in sat.update); for reformulation, G with its schema closed.
type readEnv struct {
	strategy string
	d        *dict.Dict
	snap     atomic.Pointer[store.Snapshot]
	closed   *store.Store
	sch      *schema.Schema
}

func newReadEnv(s *serving) *readEnv {
	env := &readEnv{strategy: s.strat.Name(), d: s.kb.Dict()}
	if env.strategy == "reformulation" {
		env.closed = s.kb.Base().Clone()
		for _, t := range schema.Extract(env.closed, s.kb.Vocab()).ClosureTriples() {
			env.closed.Add(t)
		}
		env.sch = schema.Extract(env.closed, s.kb.Vocab())
	}
	return env
}

func (e *readEnv) source() engine.Source {
	if e.strategy == "reformulation" {
		return plainSource{e.closed}
	}
	return e.snap.Load()
}

// readReplay replays one client's queries layer by layer. Plans are cached
// per query text, one bound to the real source and one to the counting
// decorator; building them happens outside every span.
type readReplay struct {
	env      *readEnv
	counting engine.Source // *countingSource or *countingSorted
	cs       *countingSource
	parsed   map[string]*sparql.Query
	sat      map[string][2]*engine.Prepared
	ref      map[string][2]*reformulate.PreparedUCQ
}

func newReadReplay(env *readEnv) *readReplay {
	r := &readReplay{env: env, parsed: map[string]*sparql.Query{},
		sat: map[string][2]*engine.Prepared{}, ref: map[string][2]*reformulate.PreparedUCQ{}}
	if env.strategy == "reformulation" {
		c := &countingSource{}
		r.counting, r.cs = c, c
	} else {
		c := &countingSorted{}
		r.counting, r.cs = c, &c.countingSource
	}
	r.cs.src = env.source()
	return r
}

var refOptions = reformulate.Options{Minimize: true}

// recordMatch runs after a counted evaluation: it replays the store calls
// under a store.match span (a child of the evaluation span) and adds the
// counts.
func (c *clientTrace) recordMatch(op, eval int32, kind string, rows int) {
	r := c.layers
	m := c.begin(op, "store.match", eval)
	r.cs.replay()
	c.end(m)
	c.add(kind, "store.match_calls", float64(len(r.cs.calls)))
	c.add(kind, "store.triples_examined", float64(r.cs.examined))
	c.add(kind, "engine.rows_out", float64(rows))
}

// replayPrepared decomposes one prepared execution: evaluation over the
// cached plan, and the store matching inside it.
func (c *clientTrace) replayPrepared(op, parent int32, text string) error {
	r := c.layers
	q := r.parsed[text]
	if q == nil {
		var err error
		if q, err = sparql.Parse(text); err != nil {
			return err
		}
		r.parsed[text] = q
	}
	src := r.env.source()
	r.cs.reset(src)
	proj := q.Projection()
	if r.env.strategy == "reformulation" {
		plans, ok := r.ref[text]
		if !ok {
			ucq, err := reformulate.Reformulate(q, r.env.sch, r.env.d, r.env.closed, refOptions)
			if err != nil {
				return err
			}
			for i, s := range []engine.Source{src, r.counting} {
				if plans[i], err = ucq.Prepare(s, r.env.d); err != nil {
					return err
				}
			}
			r.ref[text] = plans
		}
		e := c.begin(op, "engine.eval", parent)
		res, err := plans[0].Evaluate()
		c.end(e)
		if err != nil {
			return err
		}
		if _, err := plans[1].Evaluate(); err != nil {
			return err
		}
		c.recordMatch(op, e, "prepared", len(res.Rows))
		return nil
	}
	plans, ok := r.sat[text]
	if !ok {
		for i, s := range []engine.Source{src, r.counting} {
			p, err := engine.Prepare(s, q.Patterns, r.env.d)
			if err != nil {
				return err
			}
			plans[i] = p
		}
		r.sat[text] = plans
	}
	plans[0].Rebind(src)
	e := c.begin(op, "engine.eval", parent)
	res := plans[0].EvalDistinct(proj)
	c.end(e)
	plans[1].EvalDistinct(proj)
	c.recordMatch(op, e, "prepared", len(res.Rows))
	return nil
}

// replayText decomposes one query answered from text: parse, rewrite (for
// reformulation), compile and plan, evaluate, project, and — outside the
// facade call, which returns encoded rows — decode.
func (c *clientTrace) replayText(op, parent int32, kind, text string) error {
	r := c.layers
	src := r.env.source()
	r.cs.reset(src)
	sp := c.begin(op, "sparql.parse", parent)
	q, err := sparql.Parse(text)
	c.end(sp)
	if err != nil {
		return err
	}
	var out *engine.Result
	if r.env.strategy == "reformulation" {
		rw := c.begin(op, "reformulate.rewrite", parent)
		ucq, err := reformulate.Reformulate(q, r.env.sch, r.env.d, r.env.closed, refOptions)
		c.end(rw)
		if err != nil {
			return err
		}
		c.add(kind, "reformulate.branches", float64(ucq.Size()))
		cp := c.begin(op, "engine.compile_plan", parent)
		pu, err := ucq.Prepare(src, r.env.d)
		c.end(cp)
		if err != nil {
			return err
		}
		e := c.begin(op, "engine.eval", parent)
		out, err = pu.Evaluate()
		c.end(e)
		if err != nil {
			return err
		}
		counted, err := ucq.Prepare(r.counting, r.env.d)
		if err != nil {
			return err
		}
		if _, err := counted.Evaluate(); err != nil {
			return err
		}
		c.recordMatch(op, e, kind, len(out.Rows))
	} else {
		cp := c.begin(op, "engine.compile", parent)
		compiled, err := engine.Compile(q.Patterns, r.env.d)
		c.end(cp)
		if err != nil {
			return err
		}
		e := c.begin(op, "engine.eval", parent)
		res := compiled.Eval(src)
		c.end(e)
		// Eval plans before it joins; Plan alone, run again, is that share.
		pl := c.begin(op, "engine.plan", e)
		compiled.Plan(src)
		c.end(pl)
		compiled.Eval(r.counting)
		c.recordMatch(op, e, kind, len(res.Rows))
		pj := c.begin(op, "engine.project", parent)
		out = res.Project(q.Projection()).Distinct()
		c.end(pj)
	}
	dd := c.begin(op, "dict.decode", -1)
	out.Decode(r.env.d)
	c.end(dd)
	return nil
}

// preparedRound is the traced form of reader.preparedRound: every query gets
// a parent span around the facade call and its layer replay, in alternating
// order (see beginAlternating). The duration returned is the facade time
// alone, so the traced pass's latencies compare with the untraced pass's and
// their ratio is the tracing overhead.
func (c *clientTrace) preparedRound(r *reader, bi int) (time.Duration, error) {
	if c.full() {
		r.tr = nil
	}
	op, replayFirst := c.beginAlternating("prepared")
	var total time.Duration
	for i, p := range r.s.prepared[bi] {
		parent := c.begin(op, "webreason.query", -1)
		if replayFirst {
			if err := c.replayPrepared(op, parent, r.s.pointText[bi][i]); err != nil {
				return total, err
			}
			c.restart(parent)
		}
		res, err := p.Answer()
		total += c.end(parent)
		if err != nil {
			return total, err
		}
		r.res[i] = res
		if !replayFirst {
			if err := c.replayPrepared(op, parent, r.s.pointText[bi][i]); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// textRound is the traced form of reader.textRound.
func (c *clientTrace) textRound(r *reader, kind string, texts []string) (time.Duration, error) {
	if c.full() {
		r.tr = nil
	}
	op, replayFirst := c.beginAlternating(kind)
	var total time.Duration
	for i, text := range texts {
		parent := c.begin(op, "webreason.query", -1)
		if replayFirst {
			if err := c.replayText(op, parent, kind, text); err != nil {
				return total, err
			}
			c.restart(parent)
		}
		q, err := webreason.ParseQuery(text)
		if err == nil {
			r.res[i], err = r.s.srv.Query(q)
		}
		total += c.end(parent)
		if err != nil {
			return total, err
		}
		if !replayFirst {
			if err := c.replayText(op, parent, kind, text); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// writeReplay is the write path replayed beside sat.update's server: its own
// WAL directory, and a clone of the materialisation that receives every
// batch the server receives, in the same order.
type writeReplay struct {
	kb    *core.KB
	wal   *persist.DB
	mat   *reason.Materialization
	env   *readEnv
	enc   []store.Triple
	acked chan error
	n     int
}

// checkpointEvery is how many traced batches pass between two synchronous
// checkpoints of the replay's WAL directory.
const checkpointEvery = 500

func newWriteReplay(s *serving, env *readEnv, dir string) (*writeReplay, error) {
	wal, err := persist.Open(dir, persist.Options{Sync: persist.SyncGroup, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		return nil, err
	}
	// The server is idle between the untraced and the traced window (its
	// writer flushed), so its materialisation can be cloned here.
	mat := s.strat.(*core.Saturation).Materialization().Clone()
	env.snap.Store(mat.Store().Snapshot())
	return &writeReplay{kb: s.kb, wal: wal, mat: mat, env: env, acked: make(chan error, 1)}, nil
}

// mutate is the traced form of writer.send. For a durable batch the layer
// spans are children of the facade call, which waits for all of them; for a
// plain batch the call only enqueues, so the layers are recorded as roots:
// work the applier does outside the call.
func (c *clientTrace) mutate(w *writer, u update, ts []rdf.Triple) (time.Duration, error) {
	if c.full() {
		w.tr = nil
	}
	wr := c.writes
	// Inserts and deletes, plain and durable, are four kinds: each has its
	// own maintenance span and its own relation to the facade call.
	kind, link := "insert", int32(-1)
	if u.del {
		kind = "delete"
	}
	if u.durable {
		kind += ".durable"
	}
	op := c.beginOp(kind)
	parent := c.begin(op, "webreason.mutate", -1)
	err := w.send(u, ts)
	d := c.end(parent)
	if err != nil {
		return d, err
	}
	if u.durable {
		link = parent
	}

	e := c.begin(op, "dict.encode", link)
	wr.enc = wr.enc[:0]
	for _, t := range ts {
		wr.enc = append(wr.enc, wr.kb.Encode(t))
	}
	c.end(e)

	bytes0 := wr.wal.Stats().WALSize
	a := c.begin(op, "persist.append", link)
	err = wr.wal.AppendAck(u.del, ts, func(err error) { wr.acked <- err })
	c.end(a)
	if err != nil {
		return d, fmt.Errorf("trace WAL: %w", err)
	}
	if u.durable {
		f := c.begin(op, "persist.fsync", link)
		err = <-wr.acked
		c.end(f)
	} else {
		err = <-wr.acked // outside every span: a plain batch does not wait
	}
	if err != nil {
		return d, fmt.Errorf("trace WAL: %w", err)
	}
	c.add(kind, "persist.wal_bytes", float64(wr.wal.Stats().WALSize-bytes0))
	c.add(kind, "triples", float64(len(ts)))

	copied0 := wr.mat.Store().CopiedNodes()
	m := c.begin(op, map[bool]string{false: "reason.insert", true: "reason.delete"}[u.del], link)
	if u.del {
		wr.mat.Delete(wr.enc...)
	} else {
		wr.mat.Insert(wr.enc...)
	}
	c.end(m)
	sn := c.begin(op, "store.snapshot", link)
	snap := wr.mat.Store().Snapshot()
	c.end(sn)
	wr.env.snap.Store(snap)
	c.add(kind, "store.copied_nodes", float64(wr.mat.Store().CopiedNodes()-copied0))

	if wr.n++; wr.n%checkpointEvery == 0 {
		ck := c.beginOp("checkpoint")
		k := c.begin(ck, "persist.checkpoint", -1)
		err = wr.wal.Checkpoint(persist.State{
			Dict: wr.kb.Dict(), DictLen: wr.kb.Dict().Len(),
			BaseSet: wr.mat.BaseSet().Snapshot(), Saturated: snap,
		})
		c.end(k)
		if err != nil {
			return d, fmt.Errorf("trace checkpoint: %w", err)
		}
	}
	return d, nil
}

// attachReaders switches the read clients of sat.read / ref.read to their
// traced form.
func (t *tracer) attachReaders(s *serving, readers ...*reader) {
	env := newReadEnv(s)
	if sat, ok := s.strat.(*core.Saturation); ok {
		env.snap.Store(sat.Materialization().Store().Snapshot())
	}
	for _, r := range readers {
		r.tr = t.newClient()
		r.tr.layers = newReadReplay(env)
	}
}

// attachUpdate switches sat.update's writer and reader to their traced form.
func (t *tracer) attachUpdate(s *serving, w *writer, r *reader) error {
	env := newReadEnv(s)
	dir := filepath.Join(outDir, fmt.Sprintf("trace-wal-%d", os.Getpid()))
	wr, err := newWriteReplay(s, env, dir)
	if err != nil {
		return err
	}
	t.cleanup = append(t.cleanup, func() {
		wr.wal.Close()
		os.RemoveAll(dir)
	})
	w.tr = t.newClient()
	w.tr.writes = wr
	r.tr = t.newClient()
	r.tr.layers = newReadReplay(env)
	return nil
}
