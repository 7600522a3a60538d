package core

import (
	"fmt"
	"sync"
	"sync/atomic"

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

// Strategy is a query-answering technique: it computes the certain answer
// set q(G∞) of BGP queries and maintains whatever it materialises when the
// graph is updated. The three implementations mirror §II-B/§II-C of the
// paper.
// All three implementations follow a single-writer, multi-reader concurrency
// model: Answer and Prepare route every read through an immutable
// current-state pointer (store snapshots plus whatever derived structures the
// technique keeps) that the write path swaps atomically once per Apply, so
// reads racing an Apply observe either the state before all of its runs or
// after all of them, never a torn middle. Apply calls themselves are
// serialized internally; readers never block writers and vice versa.
type Strategy interface {
	// Name identifies the technique in reports.
	Name() string
	// Answer returns the answer set of q with respect to RDF entailment:
	// the evaluation of q against G∞, deduplicated over the projection
	// (certain-answer semantics; LIMIT is applied afterwards).
	Answer(q *sparql.Query) (*engine.Result, error)
	// Apply is the one write path: it runs fn as one write epoch. Each
	// Insert or Delete fn makes on w is one run — maintained at once, in
	// call order, so a later run sees the earlier ones — and the stores are
	// frozen and the view readers use is swapped once, after fn returns,
	// whatever it returns: the runs that succeeded before an error are
	// applied and become visible together. The copy-on-write a frozen store
	// costs its next writer is therefore paid once per Apply, not once per
	// run. w is valid only until fn returns.
	Apply(fn func(w Writer) error) error
	// Insert asserts base triples: an Apply of one run.
	Insert(ts ...rdf.Triple) error
	// Delete retracts base triples: an Apply of one run.
	Delete(ts ...rdf.Triple) error
	// Len returns the number of triples the strategy stores physically:
	// |G∞| for saturation, and for reformulation and backward chaining |G|
	// plus the closed-schema triples G does not assert.
	Len() int
	// Prepare compiles q into a PreparedQuery whose plan is kept across
	// executions — the paper's repeated-query regime, where planning and
	// (for reformulation) rewriting are paid once. The prepared query reads
	// the strategy's data live and replaces its plan when it goes stale, so
	// it stays correct across Insert/Delete.
	Prepare(q *sparql.Query) (PreparedQuery, error)
	// DurableState captures the strategy's persistent state for a
	// checkpoint: the asserted triples (always) and the saturated store
	// (when materialised), plus the dictionary length as of the same
	// boundary. It must be called from the strategy's (serialized) mutation
	// side — in serving deployments, the server's single writer goroutine at
	// a run boundary, between Apply calls or through the Writer inside one —
	// and returns O(1) copy-on-write views: capturing a checkpoint never
	// stalls reads or subsequent writes, the serialisation happens later
	// against the frozen views. (The capture freezes the stores like a
	// publication does, so a capture in the middle of an Apply splits its
	// copy-on-write epoch in two.)
	DurableState() persist.State
	// WriteStats reports what the write path has cost so far, as of the
	// current view; safe for any goroutine.
	WriteStats() WriteStats
}

// DurableStrategy names the checkpointing surface, which every Strategy
// carries.
type DurableStrategy = Strategy

// Writer is the write side of a strategy inside one Apply: runs to maintain,
// and the state capture a checkpoint that comes due between two of them
// needs. Nothing done through it is visible to readers before the Apply ends.
type Writer interface {
	// Insert asserts base triples as one run.
	Insert(ts ...rdf.Triple) error
	// Delete retracts base triples as one run.
	Delete(ts ...rdf.Triple) error
	// DurableState is Strategy.DurableState as of the runs applied so far.
	DurableState() persist.State
}

// WriteStats counts a strategy's write epochs and what they copied.
type WriteStats struct {
	// Views is the number of views published by Apply (the one built at
	// construction is not counted).
	Views uint64
	// StoreEpoch is the mutation epoch of the store behind the current view
	// (G∞ for saturation, G otherwise): it advances once per freeze — a
	// publication or a mid-Apply DurableState — that a write follows.
	StoreEpoch uint64
	// StoreCopied is that store's CopiedNodes: the trie nodes, entries and
	// postings leaves its writes have copied because a freeze shared them.
	StoreCopied uint64
}

// Replay feeds a recovered record sequence through s as one Apply, so a WAL
// tail of any number of runs is maintained run by run and published once.
// replay is persist.DB.ReplayTail, or a closure over persist.ReplayBatch; its
// record count and error are returned.
func Replay(s Strategy, replay func(insert, del func(...rdf.Triple) error) (int, error)) (n int, err error) {
	err = s.Apply(func(w Writer) error {
		n, err = replay(w.Insert, w.Delete)
		return err
	})
	return n, err
}

// PreparedQuery is a query compiled against one strategy for repeated
// execution. Answer matches Strategy.Answer; the compiled plan is replaced
// transparently when it goes stale (schema updates, a constant the
// dictionary has learnt since, statistics drift), so results always reflect
// the strategy's current data. A PreparedQuery is safe for concurrent use:
// the compiled plan is immutable and shared by every caller, each execution
// runs on its own scratch, and the results returned are independent
// snapshots that remain valid.
type PreparedQuery interface {
	// Query returns the source query.
	Query() *sparql.Query
	// Answer executes the prepared query; see Strategy.Answer.
	Answer() (*engine.Result, error)
	// Execute is Answer, and additionally reports whether this call had to
	// build a plan (compile, recompile or re-plan) before it could execute,
	// instead of running on the one already published.
	Execute() (res *engine.Result, built bool, err error)
}

// Ask turns the outcome of an Answer call — a Strategy's, a PreparedQuery's
// or a server's — into the ASK verdict: whether the query pattern has any
// answer against G∞.
func Ask(res *engine.Result, err error) (bool, error) {
	if err != nil {
		return false, err
	}
	return len(res.Rows) > 0, nil
}

// limit applies q's LIMIT, the last step of every answer.
func limit(res *engine.Result, q *sparql.Query) *engine.Result {
	if q.Limit > 0 {
		return res.Limit(q.Limit)
	}
	return res
}

// ---------------------------------------------------------------------------
// The shared skeleton
// ---------------------------------------------------------------------------

// view is one immutable read epoch of a strategy. A fresh view is published
// at the end of every Apply, so a reader that loads one evaluates entirely
// against that boundary.
type view struct {
	// src is what queries evaluate against: a snapshot of G∞ (saturation),
	// of G with its schema closed (reformulation), or that snapshot read
	// through each pattern's single-step rewritings (backward chaining).
	src engine.Source
	// sch is the closed schema the view was built under (nil for
	// saturation, which stores its consequences). Its identity is the
	// schema epoch: a data-only batch republishes the same pointer, a batch
	// that changed a schema triple a new one.
	sch *schema.Schema
	// size is the number of triples physically stored (Strategy.Len).
	size int
	// stats is WriteStats as of this view: the technique fills the store
	// fields, the skeleton the publication count.
	stats WriteStats
}

// technique is what distinguishes one strategy from another: what it
// materialises on the write side and how it evaluates on the read side. The
// skeleton supplies everything else. apply, view and durable run on the
// writer side, serialized by the skeleton's mutex; compile runs on any reader
// against the immutable view it is handed.
type technique interface {
	// apply maintains the strategy's stores for one run of assertions or
	// retractions.
	apply(del bool, enc []store.Triple)
	// view freezes the stores and builds the immutable read epoch over their
	// current content.
	view() *view
	// durable adds O(1) snapshots of the stores a checkpoint must hold.
	durable(st *persist.State)
	// compile builds the evaluation of q against v: compiled under v's
	// schema, planned against v's data. data is v.src when compiling also
	// read v's data vocabulary — the plan is then good for that data only —
	// and nil otherwise.
	compile(v *view, q *sparql.Query) (p plan, data engine.Source, err error)
}

// plan is a technique's compiled evaluation of one query: immutable, shared
// by every goroutine executing the query, with the source an argument.
type plan interface {
	// on returns the plan to execute against src, the data of a view under
	// the schema the plan was compiled for: the receiver while it is still
	// good there, otherwise its successor (see engine.Plan.For).
	on(src engine.Source) plan
	// exec runs the plan against src, deduplicated over the projection.
	exec(src engine.Source) *engine.Result
}

// skeleton is the part every strategy shares: the KB, the writer mutex, the
// atomically published view, and the paths that run on them — every write is
// lock → (encode → technique.apply) per run → publish once, every read loads
// the current view and hands it to the technique.
type skeleton struct {
	kb   *KB
	tech technique
	// mu serializes the writer side; cur is the view readers use.
	mu  sync.Mutex
	cur atomic.Pointer[view]
}

// start binds the technique (the strategy embedding this skeleton, its own
// stores already built) and publishes the first view.
func (s *skeleton) start(t technique) {
	s.tech = t
	s.cur.Store(t.view())
}

// Apply implements Strategy. Everything fn's runs changed becomes visible to
// readers at once, when the view built after the last of them is swapped in.
func (s *skeleton) Apply(fn func(Writer) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := epoch{s: s}
	err := fn(&e)
	if e.ran {
		v := s.tech.view()
		v.stats.Views = s.cur.Load().stats.Views + 1
		s.cur.Store(v)
	}
	return err
}

// epoch is the Writer of one Apply; the skeleton's mutex is held for as long
// as it is valid.
type epoch struct {
	s *skeleton
	// ran records that a run reached the technique, so there is something to
	// publish.
	ran bool
}

// run maintains the stores for one run; an ill-formed triple refuses the
// whole run. A delete only looks its triples up: one with a term the
// dictionary lacks is stored nowhere, so it is dropped rather than given
// new IDs.
func (e *epoch) run(del bool, ts []rdf.Triple) error {
	for _, t := range ts {
		if err := t.WellFormed(); err != nil {
			return err
		}
	}
	enc := make([]store.Triple, 0, len(ts))
	for _, t := range ts {
		if !del {
			enc = append(enc, e.s.kb.Encode(t))
		} else if u, ok := e.s.kb.Lookup(t); ok {
			enc = append(enc, u)
		}
	}
	e.s.tech.apply(del, enc)
	e.ran = true
	return nil
}

func (e *epoch) Insert(ts ...rdf.Triple) error { return e.run(false, ts) }

func (e *epoch) Delete(ts ...rdf.Triple) error { return e.run(true, ts) }

func (e *epoch) DurableState() persist.State { return e.s.durableState() }

// Insert implements Strategy.
func (s *skeleton) Insert(ts ...rdf.Triple) error {
	return s.Apply(func(w Writer) error { return w.Insert(ts...) })
}

// Delete implements Strategy.
func (s *skeleton) Delete(ts ...rdf.Triple) error {
	return s.Apply(func(w Writer) error { return w.Delete(ts...) })
}

// WriteStats implements Strategy.
func (s *skeleton) WriteStats() WriteStats { return s.cur.Load().stats }

// Len implements Strategy, as of the current view.
func (s *skeleton) Len() int { return s.cur.Load().size }

// build validates q and has the technique compile it against v.
func (s *skeleton) build(v *view, q *sparql.Query) (*compilation, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p, data, err := s.tech.compile(v, q)
	if err != nil {
		return nil, err
	}
	return &compilation{plan: p, sch: v.sch, data: data}, nil
}

// Answer implements Strategy: the ad hoc query is the prepared one's
// degenerate case — compile against the current view, execute once, drop the
// plan. Rewriting (if any) and evaluation run against the same view, so a
// concurrent mutation cannot slip between them.
func (s *skeleton) Answer(q *sparql.Query) (*engine.Result, error) {
	v := s.cur.Load()
	c, err := s.build(v, q)
	if err != nil {
		return nil, err
	}
	return limit(c.plan.exec(v.src), q), nil
}

// DurableState implements Strategy: the capture, under the writer mutex.
func (s *skeleton) DurableState() persist.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durableState()
}

// durableState captures the dictionary boundary plus the technique's stores;
// the caller holds the writer mutex.
func (s *skeleton) durableState() persist.State {
	st := persist.State{Dict: s.kb.dict, DictLen: s.kb.dict.Len()}
	s.tech.durable(&st)
	return st
}

// Prepare implements Strategy. Steady-state execution allocates only the
// result rows; see prepared.current for how the plan follows mutations.
func (s *skeleton) Prepare(q *sparql.Query) (PreparedQuery, error) {
	c, err := s.build(s.cur.Load(), q)
	if err != nil {
		return nil, err
	}
	pq := &prepared{s: s, q: q}
	pq.cur.Store(c)
	return pq, nil
}

// prepared is the PreparedQuery of every strategy: the query and the one
// compilation all its callers currently share, swapped atomically.
type prepared struct {
	s   *skeleton
	q   *sparql.Query
	cur atomic.Pointer[compilation]
}

// compilation is a technique's plan together with what it was compiled
// under. It is immutable; a prepared query replaces it whole.
//
//webreason:frozen
type compilation struct {
	plan plan
	// sch is the schema the plan was compiled under (the view's pointer).
	sch *schema.Schema
	// data is the view source a vocabulary-dependent rewriting read, nil for
	// every other plan.
	data engine.Source
}

func (pq *prepared) Query() *sparql.Query { return pq.q }

// current returns the compilation to execute against v and whether this call
// built it. It states the one validity rule of a prepared query: the
// published compilation is good for v when it was compiled under v's schema
// (pointer identity: a data-only batch republishes the same schema) and, if
// its rewriting read the data vocabulary, against v's very data; then its
// plan follows the data by plan.on — a constant the dictionary did not know
// is recompiled once the dictionary has grown, a join order is re-planned
// once the data size has drifted past the engine's threshold, and nothing
// else looks at the dictionary or costs more than an O(1) count. Whoever
// finds the compilation stale builds the successor and publishes it for
// everyone; two callers racing on different views each publish a valid one.
// On error the published compilation stays.
func (pq *prepared) current(v *view) (*compilation, bool, error) {
	c := pq.cur.Load()
	if c.sch == v.sch && (c.data == nil || c.data == v.src) {
		p := c.plan.on(v.src)
		if p == c.plan {
			return c, false, nil
		}
		c = &compilation{plan: p, sch: c.sch, data: c.data}
	} else {
		var err error
		if c, err = pq.s.build(v, pq.q); err != nil {
			return nil, false, err
		}
	}
	pq.cur.Store(c)
	return c, true, nil
}

// Execute implements PreparedQuery against the current view.
//
//webreason:hotpath
func (pq *prepared) Execute() (*engine.Result, bool, error) {
	v := pq.s.cur.Load()
	//lint:ignore hotpath compiling or re-planning is the cold branch; the steady state is two pointer comparisons and plan.on's O(1) count
	c, built, err := pq.current(v)
	if err != nil {
		return nil, false, err
	}
	return limit(c.plan.exec(v.src), pq.q), built, nil
}

// Answer implements PreparedQuery.
func (pq *prepared) Answer() (*engine.Result, error) {
	res, _, err := pq.Execute()
	return res, err
}

// direct is the read side of the two strategies that evaluate the query as
// written — saturation against the stored G∞, backward chaining against G
// read through each pattern's single-step rewritings.
type direct struct{ d *dict.Dict }

func (e direct) compile(v *view, q *sparql.Query) (plan, engine.Source, error) {
	p, err := engine.NewPlan(v.src, q.Patterns, e.d, q.Projection())
	if err != nil {
		return nil, nil, err
	}
	return bgpPlan{p}, nil, nil
}

// bgpPlan is a compiled join plan with a fused projection+dedup.
type bgpPlan struct{ *engine.Plan }

func (p bgpPlan) on(src engine.Source) plan { return bgpPlan{p.For(src)} }

func (p bgpPlan) exec(src engine.Source) *engine.Result { return p.Exec(src) }

// asserted is the write side of the two strategies that store G as asserted
// and reason at query time, reformulation and backward chaining: both answer
// from G with its schema closed, the store [12] assumes. Instance updates
// cost O(1), and only the (small) schema is re-derived when a schema triple
// changes.
type asserted struct {
	voc schema.Vocab
	// data holds G's instance triples and the closed schema: the strategy's
	// own version of G, a clone of the KB's that shares its nodes until either
	// side writes, plus the closure triples G does not assert.
	data *store.Store
	// axioms holds G's constraint triples, the asserted schema sch is
	// extracted from; data holds them too, as part of the closure.
	axioms *store.Store
	// sch is the closed schema of axioms, which reformulation rewrites
	// queries against and backward chaining chains through.
	sch *schema.Schema
}

// newAsserted builds the write side over a clone of the KB's data, closing
// its schema.
func newAsserted(kb *KB) asserted {
	g := asserted{voc: kb.voc, data: kb.base.Clone(), axioms: store.New()}
	for _, p := range [...]dict.ID{g.voc.SubClassOf, g.voc.SubPropertyOf, g.voc.Domain, g.voc.Range} {
		kb.base.ForEachMatch(store.Triple{P: p}, func(t store.Triple) bool {
			g.axioms.Add(t)
			return true
		})
	}
	g.sch = schema.Extract(g.axioms, g.voc)
	for _, t := range g.sch.ClosureTriples() {
		g.data.Add(t)
	}
	return g
}

// apply maintains the stores for one run: instance triples in data,
// constraint triples in axioms. When axioms changed, the closed schema is
// re-extracted and data takes its one diff — the closure triples gained
// added, the ones lost removed — the diff saturation applies too.
func (g *asserted) apply(del bool, enc []store.Triple) {
	schemaChanged := false
	for _, t := range enc {
		st, axiom := g.data, g.voc.IsConstraintProperty(t.P)
		if axiom {
			st = g.axioms
		}
		var changed bool
		if del {
			changed = st.Remove(t)
		} else {
			changed = st.Add(t)
		}
		if changed && axiom {
			schemaChanged = true
		}
	}
	if !schemaChanged {
		return
	}
	old := g.sch
	g.sch = schema.Extract(g.axioms, g.voc)
	for _, t := range g.sch.Minus(old) {
		g.data.Add(t)
	}
	for _, t := range old.Minus(g.sch) {
		g.data.Remove(t)
	}
}

// storeStats is the store part of a view's WriteStats; the writer side reads
// it off the live store just after freezing it.
func storeStats(st *store.Store) WriteStats {
	return WriteStats{StoreEpoch: st.Epoch(), StoreCopied: st.CopiedNodes()}
}

// durable persists only the asserted triples, as the set image of the
// store's SPO index less the closure triples G does not assert — the bytes
// saturation writes for the same G. Whatever is derived from them is
// recomputed on restore (it is small by the paper's DB-fragment assumption).
func (g *asserted) durable(st *persist.State) {
	base := g.data.CloneSet()
	for _, t := range g.sch.ClosureTriples() {
		if !g.axioms.Contains(t) {
			base.Remove(t)
		}
	}
	st.BaseSet = base.Snapshot()
}

// ---------------------------------------------------------------------------
// Saturation strategy
// ---------------------------------------------------------------------------

// Saturation answers queries by direct evaluation against the materialised
// closure G∞, maintained incrementally on updates (the RDFS rules compiled
// against the closed schema: consequences added on insertion, one-step
// support checks on deletion). This is the forward-chaining camp of §II-C (OWLIM, Oracle,
// Jena/Sesame persistent inferencing).
type Saturation struct {
	skeleton
	direct
	mat *reason.Materialization
}

// NewSaturation materialises the KB's closure. Its base set is a clone of
// the KB's store (store.Store.CloneSet), which the KB keeps reading as
// loaded; later updates must go through this strategy.
func NewSaturation(kb *KB) *Saturation {
	return newSaturation(kb, reason.Materialize(kb.base, kb.rules))
}

// NewSaturationRestored rebuilds a saturation strategy from a recovered
// snapshot, skipping re-saturation entirely: base is the set of asserted
// triples G and saturated its closure under the KB's rules (the persistence
// layer guarantees the pair, having checkpointed them together at a batch
// boundary). The strategy takes ownership of both; the KB contributes only
// dictionary, vocabulary and rules — its own base store plays no role in a
// restored materialisation.
func NewSaturationRestored(kb *KB, base *store.TripleSet, saturated *store.Store) *Saturation {
	return newSaturation(kb, reason.Restore(base, saturated, kb.rules))
}

func newSaturation(kb *KB, mat *reason.Materialization) *Saturation {
	s := &Saturation{skeleton: skeleton{kb: kb}, direct: direct{kb.dict}, mat: mat}
	s.start(s)
	return s
}

// Name implements Strategy.
func (s *Saturation) Name() string { return "saturation" }

// Materialization exposes the underlying materialisation (stats, explain).
// Unlike the query path it is not snapshot-isolated: callers must not race
// it with Insert/Delete.
func (s *Saturation) Materialization() *reason.Materialization { return s.mat }

func (s *Saturation) apply(del bool, enc []store.Triple) {
	if del {
		s.mat.Delete(enc...)
	} else {
		s.mat.Insert(enc...)
	}
}

func (s *Saturation) view() *view {
	snap := s.mat.Store().Snapshot()
	return &view{src: snap, size: snap.Len(), stats: storeStats(s.mat.Store())}
}

// durable persists the asserted set and the saturated closure, so a restart
// restores G and G∞ without re-running saturation.
func (s *Saturation) durable(st *persist.State) {
	st.BaseSet = s.mat.BaseSet().Snapshot()
	st.Saturated = s.mat.Store().Snapshot()
}

// ---------------------------------------------------------------------------
// Reformulation strategy
// ---------------------------------------------------------------------------

// Reformulation leaves the instance data untouched and rewrites queries at
// run time; only the (small) schema closure is maintained, in G's own store,
// so instance updates cost O(1). This is the approach of [12], [19], [20].
type Reformulation struct {
	skeleton
	asserted
	opt reformulate.Options
}

// NewReformulation builds the strategy over a clone of the KB's data, which
// shares the loaded store's nodes; opt tunes the rewriting (zero value =
// defaults).
func NewReformulation(kb *KB, opt reformulate.Options) *Reformulation {
	r := &Reformulation{skeleton: skeleton{kb: kb}, asserted: newAsserted(kb), opt: opt}
	r.start(r)
	return r
}

// Name implements Strategy.
func (r *Reformulation) Name() string { return "reformulation" }

func (r *Reformulation) view() *view {
	snap := r.data.Snapshot()
	return &view{src: snap, sch: r.sch, size: snap.Len(), stats: storeStats(r.data)}
}

// rewrite reformulates q against v's schema and data vocabulary.
func (r *Reformulation) rewrite(v *view, q *sparql.Query) (*reformulate.UCQ, error) {
	return reformulate.Reformulate(q, v.sch, r.kb.dict, v.src.(*store.Snapshot), r.opt)
}

// Reformulate exposes the rewriting of q (for -explain, and the union sizes
// TestLUBMUnionSizes pins).
func (r *Reformulation) Reformulate(q *sparql.Query) (*reformulate.UCQ, error) {
	return r.rewrite(r.cur.Load(), q)
}

// compile rewrites q against v's schema and compiles the union into engine
// plans: one join of atom unions per product-shaped run of branches, one
// plan per other branch (reformulate.PreparedUCQ).
func (r *Reformulation) compile(v *view, q *sparql.Query) (plan, engine.Source, error) {
	RefPlanStats.Rebuilt.Add(1)
	ucq, err := r.rewrite(v, q)
	if err != nil {
		return nil, nil, err
	}
	pu, err := ucq.Prepare(v.src, r.kb.dict)
	if err != nil {
		return nil, nil, err
	}
	if ucq.VocabDependent {
		return ucqPlan{pu}, v.src, nil
	}
	return ucqPlan{pu}, nil, nil
}

// RefPlanStats counts the rewritings compiled into a union plan: one per
// prepared compile or recompile and one per ad hoc query. Exposed by the
// server's metrics registry alongside engine.PlanStats.
var RefPlanStats struct {
	Rebuilt atomic.Uint64
}

// ucqPlan is a reformulated union compiled into engine plans. The union
// depends only on the schema closure (and, when VocabDependent, the data
// vocabulary), so across a data-only batch it and every plan are kept: the
// common case of constant classes and properties, where update-heavy
// workloads pay one O(1) check per plan instead of a full rewrite.
type ucqPlan struct{ *reformulate.PreparedUCQ }

func (p ucqPlan) on(src engine.Source) plan { return ucqPlan{p.For(src)} }

func (p ucqPlan) exec(src engine.Source) *engine.Result { return p.Exec(src) }

// interface checks
var (
	_ Strategy = (*Saturation)(nil)
	_ Strategy = (*Reformulation)(nil)
	_ Strategy = (*Backward)(nil)
)

// PlainAnswer evaluates q against the KB's loaded triples only, ignoring
// entailment — the plain "query evaluation" that the paper's motivation
// contrasts with query answering, and the baseline showing how many answers
// each workload query loses without reasoning. It reads G as loaded, not the
// current G of a strategy that has since been updated.
func PlainAnswer(kb *KB, q *sparql.Query) (*engine.Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p, err := engine.NewPlan(kb.base, q.Patterns, kb.dict, q.Projection())
	if err != nil {
		return nil, err
	}
	return limit(p.Exec(kb.base), q), nil
}

// NewStrategy builds a strategy by name ("saturation", "reformulation",
// "backward"). Reformulation minimises its unions, as the benchmark
// measures it.
func NewStrategy(name string, kb *KB) (Strategy, error) {
	switch name {
	case "saturation":
		return NewSaturation(kb), nil
	case "reformulation":
		return NewReformulation(kb, reformulate.Options{Minimize: true}), nil
	case "backward":
		return NewBackward(kb), nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q (want saturation, reformulation or backward)", name)
	}
}

// RestoreStrategy builds the named strategy from snapshot-recovered state,
// returning the KB it was built on. The fast path — a saturation snapshot
// restored as the saturation strategy — starts serving without re-running
// saturation (and without a full base store: the KB then carries only
// dictionary, vocabulary and rules). Otherwise the G store is built from the
// base set in one pass (store.Build) and the strategy is built on it exactly
// as a fresh one would be: a G-only snapshot restored as saturation
// re-saturates.
func RestoreStrategy(name string, ls *persist.LoadedState) (*KB, Strategy, error) {
	if name == "saturation" && ls.Saturated != nil {
		kb := RestoreKB(ls.Dict, nil)
		return kb, NewSaturationRestored(kb, ls.BaseSet, ls.Saturated), nil
	}
	ts := make([]store.Triple, 0, ls.BaseSet.Len())
	ls.BaseSet.ForEach(func(t store.Triple) bool { ts = append(ts, t); return true })
	kb := RestoreKB(ls.Dict, store.Build(ts))
	s, err := NewStrategy(name, kb)
	return kb, s, err
}
