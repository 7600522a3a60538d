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
// technique keeps) that Insert/Delete swap atomically after each mutation
// batch, so reads racing a mutation observe either the state before the whole
// batch or after it, never a torn middle. Mutation calls themselves are
// serialized internally; readers never block writers and vice versa.
type Strategy interface {
	// Name identifies the technique in reports.
	Name() string
	// Answer returns the answer set of q with respect to RDF entailment:
	// the evaluation of q against G∞, deduplicated over the projection
	// (certain-answer semantics; LIMIT is applied afterwards).
	Answer(q *sparql.Query) (*engine.Result, error)
	// Insert asserts base triples.
	Insert(ts ...rdf.Triple) error
	// Delete retracts base triples.
	Delete(ts ...rdf.Triple) error
	// Len returns the number of triples the strategy stores physically
	// (|G∞| for saturation, |G| plus the closed schema for reformulation,
	// |G| for backward chaining).
	Len() int
	// Prepare compiles q into a PreparedQuery whose plans are cached across
	// executions — the paper's repeated-query regime, where planning and
	// (for reformulation) rewriting are paid once. The prepared query reads
	// the strategy's data live and revalidates its cached plans
	// automatically, so it stays correct across Insert/Delete.
	Prepare(q *sparql.Query) (PreparedQuery, error)
	// DurableState captures the strategy's persistent state for a
	// checkpoint: the asserted triples (always) and the saturated store
	// (when materialised), plus the dictionary length as of the same
	// boundary. It must be called from the strategy's (serialized) mutation
	// side — in serving deployments, the server's single writer goroutine at
	// a mutation-batch boundary — and returns O(1) copy-on-write views:
	// capturing a checkpoint never stalls reads or subsequent writes, the
	// serialisation happens later against the frozen views.
	DurableState() persist.State
}

// DurableStrategy names the checkpointing surface, which every Strategy
// carries.
type DurableStrategy = Strategy

// PreparedQuery is a query compiled against one strategy for repeated
// execution. Answer matches Strategy.Answer; cached plans are revalidated
// transparently (dictionary growth, schema updates), so results always
// reflect the strategy's current data. A PreparedQuery is not safe for
// concurrent use; results it returns are independent snapshots and remain
// valid.
type PreparedQuery interface {
	// Query returns the source query.
	Query() *sparql.Query
	// Answer executes the prepared query; see Strategy.Answer.
	Answer() (*engine.Result, error)
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
// after every mutation batch, so a reader that loads one evaluates entirely
// against that batch boundary.
type view struct {
	// src is what queries evaluate against: a snapshot of G∞ (saturation),
	// of G plus the closed schema (reformulation), or the virtual G∞ derived
	// from a snapshot of G (backward chaining).
	src engine.Source
	// sch is the closed schema the view was built under (nil for
	// saturation, which stores its consequences). Its identity is the
	// schema epoch: a data-only batch republishes the same pointer, a batch
	// that changed a schema triple a new one.
	sch *schema.Schema
	// size is the number of triples physically stored (Strategy.Len).
	size int
}

// technique is what distinguishes one strategy from another: what it
// materialises on the write side and how it evaluates on the read side. The
// skeleton supplies everything else. apply, view and durable run on the
// writer side, serialized by the skeleton's mutex; answer and compile run on
// any reader against the immutable view they are handed.
type technique interface {
	// apply maintains the strategy's stores for one batch of assertions or
	// retractions; ts are the same triples as enc at term level.
	apply(del bool, enc []store.Triple, ts []rdf.Triple)
	// view builds the immutable read epoch over the stores' current content.
	view() *view
	// durable adds O(1) snapshots of the stores a checkpoint must hold.
	durable(st *persist.State)
	// answer evaluates q once against v, deduplicated over the projection.
	answer(v *view, q *sparql.Query) (*engine.Result, error)
	// compile builds the cached evaluation of q against v.
	compile(v *view, q *sparql.Query) (plan, error)
}

// plan is a technique's cached evaluation of one query, compiled under one
// schema and bound to one view's source.
type plan interface {
	// rebind points the plan at src, the data of the current view (same
	// schema as the plan was compiled under), and reports whether the plan
	// is sound there. It is called before every execution; false asks for a
	// recompile.
	rebind(src engine.Source) bool
	// eval runs the plan, deduplicated over proj.
	eval(proj []string) (*engine.Result, error)
}

// skeleton is the part every strategy shares: the KB, the writer mutex, the
// atomically published view, and the paths that run on them — every mutation
// is encode → lock → technique.apply → publish, every read loads the current
// view and hands it to the technique.
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

// mutate runs one batch. The whole batch becomes visible to readers at once,
// when the view built after the technique's maintenance is swapped in.
func (s *skeleton) mutate(del bool, ts []rdf.Triple) error {
	enc := make([]store.Triple, 0, len(ts))
	for _, t := range ts {
		if err := t.WellFormed(); err != nil {
			return err
		}
		enc = append(enc, s.kb.Encode(t))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tech.apply(del, enc, ts)
	s.cur.Store(s.tech.view())
	return nil
}

// Insert implements Strategy.
func (s *skeleton) Insert(ts ...rdf.Triple) error { return s.mutate(false, ts) }

// Delete implements Strategy.
func (s *skeleton) Delete(ts ...rdf.Triple) error { return s.mutate(true, ts) }

// Len implements Strategy, as of the current view.
func (s *skeleton) Len() int { return s.cur.Load().size }

// Answer implements Strategy: rewriting (if any) and evaluation run against
// the same view, so a concurrent mutation cannot slip between them.
func (s *skeleton) Answer(q *sparql.Query) (*engine.Result, error) {
	res, err := s.tech.answer(s.cur.Load(), q)
	if err != nil {
		return nil, err
	}
	return limit(res, q), nil
}

// DurableState implements Strategy: the dictionary boundary plus the
// technique's stores, captured under the writer mutex.
func (s *skeleton) DurableState() persist.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := persist.State{Dict: s.kb.dict, DictLen: s.kb.dict.Len()}
	s.tech.durable(&st)
	return st
}

// Prepare implements Strategy. Steady-state execution allocates only the
// result rows; see prepared.Answer for how the cached plan follows
// mutations.
func (s *skeleton) Prepare(q *sparql.Query) (PreparedQuery, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	pq := &prepared{s: s, q: q, proj: q.Projection()}
	if err := pq.compile(s.cur.Load()); err != nil {
		return nil, err
	}
	return pq, nil
}

// prepared is the PreparedQuery of every strategy: the query, its projection
// and LIMIT, and the technique's plan together with the schema it was
// compiled under.
type prepared struct {
	s    *skeleton
	q    *sparql.Query
	proj []string
	sch  *schema.Schema
	p    plan
}

func (pq *prepared) Query() *sparql.Query { return pq.q }

// compile (re)builds the plan against v; on error the previous plan stays.
func (pq *prepared) compile(v *view) error {
	p, err := pq.s.tech.compile(v, pq.q)
	if err != nil {
		return err
	}
	pq.p, pq.sch = p, v.sch
	return nil
}

// Answer executes against the current view with two invalidation tiers. A
// batch that changed the schema recompiles the plan from scratch. A
// data-only batch asks the plan to follow it: engine plans always can (a
// pointer swap; the engine replans on its own when the data size drifts or
// the dictionary grows), a reformulated union can unless its rewriting
// depends on the data vocabulary or the dictionary grew.
func (pq *prepared) Answer() (*engine.Result, error) {
	if v := pq.s.cur.Load(); v.sch != pq.sch || !pq.p.rebind(v.src) {
		if err := pq.compile(v); err != nil {
			return nil, err
		}
	}
	res, err := pq.p.eval(pq.proj)
	if err != nil {
		return nil, err
	}
	return limit(res, pq.q), nil
}

// direct is the read side of the two strategies that evaluate the query as
// written — saturation against the stored G∞, backward chaining against the
// virtual one.
type direct struct{ d *dict.Dict }

func (e direct) answer(v *view, q *sparql.Query) (*engine.Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	res, err := engine.EvalBGP(v.src, q.Patterns, e.d)
	if err != nil {
		return nil, err
	}
	return res.Project(q.Projection()).Distinct(), nil
}

func (e direct) compile(v *view, q *sparql.Query) (plan, error) {
	p, err := engine.Prepare(v.src, q.Patterns, e.d)
	if err != nil {
		return nil, err
	}
	return bgpPlan{p}, nil
}

// bgpPlan is a compiled join plan with a fused projection+dedup.
type bgpPlan struct{ *engine.Prepared }

func (p bgpPlan) rebind(src engine.Source) bool {
	p.Rebind(src)
	return true
}

func (p bgpPlan) eval(proj []string) (*engine.Result, error) { return p.EvalDistinct(proj), nil }

// asserted is the write side of the two strategies that store G as asserted
// and reason at query time: instance updates cost O(1), and only the (small)
// schema is re-derived when a schema triple changes.
type asserted struct {
	// data holds the asserted triples (the strategy's private copy of G).
	data *store.Store
}

// update applies the batch to data and reports whether it changed a schema
// triple.
func (g *asserted) update(del bool, enc []store.Triple, ts []rdf.Triple) (schemaChanged bool) {
	for i, t := range enc {
		var changed bool
		if del {
			changed = g.data.Remove(t)
		} else {
			changed = g.data.Add(t)
		}
		if changed && ts[i].IsSchema() {
			schemaChanged = true
		}
	}
	return schemaChanged
}

// durable persists only the asserted triples: whatever is derived from them
// is recomputed on restore (it is small by the paper's DB-fragment
// assumption).
func (g *asserted) durable(st *persist.State) { st.Base = g.data.Snapshot() }

// ---------------------------------------------------------------------------
// Saturation strategy
// ---------------------------------------------------------------------------

// Saturation answers queries by direct evaluation against the materialised
// closure G∞, maintained incrementally on updates (semi-naive insertion,
// DRed deletion). This is the forward-chaining camp of §II-C (OWLIM, Oracle,
// Jena/Sesame persistent inferencing).
type Saturation struct {
	skeleton
	direct
	mat *reason.Materialization
}

// NewSaturation materialises the KB's closure. The KB's base store is
// copied; later updates must go through this strategy.
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

func (s *Saturation) apply(del bool, enc []store.Triple, _ []rdf.Triple) {
	if del {
		s.mat.Delete(enc...)
	} else {
		s.mat.Insert(enc...)
	}
}

func (s *Saturation) view() *view {
	snap := s.mat.Store().Snapshot()
	return &view{src: snap, size: snap.Len()}
}

// durable persists the asserted set and the saturated closure, so a restart
// restores G and G∞ without re-running saturation. The base goes into the
// snapshot as a single-index set image — a third of a full store's bytes and
// load work, matching what the materialisation actually keeps.
func (s *Saturation) durable(st *persist.State) {
	st.BaseSet = s.mat.BaseSet().Snapshot()
	st.Saturated = s.mat.Store().Snapshot()
}

// ---------------------------------------------------------------------------
// Reformulation strategy
// ---------------------------------------------------------------------------

// Reformulation leaves the data untouched and rewrites queries at run time;
// only the (small) schema closure is maintained, stored in an overlay so
// instance updates cost O(1). This is the approach of [12], [19], [20].
type Reformulation struct {
	skeleton
	asserted
	// overlay holds closed-schema triples not asserted in data, so
	// data ∪ overlay is G with closed schema and no duplicates.
	overlay *store.Store
	// sch is the closed schema queries are rewritten against.
	sch *schema.Schema
	opt reformulate.Options
}

// NewReformulation builds the strategy over a private copy of the KB's data;
// opt tunes the rewriting (zero value = defaults).
func NewReformulation(kb *KB, opt reformulate.Options) *Reformulation {
	r := &Reformulation{skeleton: skeleton{kb: kb}, asserted: asserted{kb.base.Clone()}, opt: opt}
	r.reclose()
	r.start(r)
	return r
}

// Name implements Strategy.
func (r *Reformulation) Name() string { return "reformulation" }

func (r *Reformulation) apply(del bool, enc []store.Triple, ts []rdf.Triple) {
	if r.update(del, enc, ts) {
		r.reclose()
	}
}

// reclose recomputes the schema closure overlay (cheap: schemas are small).
func (r *Reformulation) reclose() {
	r.overlay = store.New()
	for _, t := range schema.Extract(r.data, r.kb.voc).ClosureTriples() {
		if !r.data.Contains(t) {
			r.overlay.Add(t)
		}
	}
	// The schema used for rewriting must be the closed one, extracted over
	// data + overlay.
	r.sch = schema.Extract(&unionSource{a: r.data, b: r.overlay}, r.kb.voc)
}

func (r *Reformulation) view() *view {
	src := &unionSource{a: r.data.Snapshot(), b: r.overlay.Snapshot()}
	return &view{src: src, sch: r.sch, size: src.Count(store.Triple{})}
}

// rewrite reformulates q against v's schema and data vocabulary.
func (r *Reformulation) rewrite(v *view, q *sparql.Query) (*reformulate.UCQ, error) {
	return reformulate.Reformulate(q, v.sch, r.kb.dict, v.src.(*unionSource), r.opt)
}

// Reformulate exposes the rewriting of q (for -explain and experiment E6).
func (r *Reformulation) Reformulate(q *sparql.Query) (*reformulate.UCQ, error) {
	return r.rewrite(r.cur.Load(), q)
}

// answer rewrites, then evaluates the union on G.
func (r *Reformulation) answer(v *view, q *sparql.Query) (*engine.Result, error) {
	ucq, err := r.rewrite(v, q)
	if err != nil {
		return nil, err
	}
	return ucq.Evaluate(v.src, r.kb.dict)
}

// compile caches the rewriting and the per-branch plans of the union. The
// dictionary version is read BEFORE the rewriting: a concurrent writer may
// coin terms while we compile, and stamping the older version merely costs
// one extra recompile on the next execution, whereas stamping the newer one
// would mark growth we never saw as already-handled and skip a required
// recompile forever.
func (r *Reformulation) compile(v *view, q *sparql.Query) (plan, error) {
	RefPlanStats.Rebuilt.Add(1)
	dver := r.kb.dict.Version()
	ucq, err := r.rewrite(v, q)
	if err != nil {
		return nil, err
	}
	pu, err := ucq.Prepare(v.src, r.kb.dict)
	if err != nil {
		return nil, err
	}
	return &ucqPlan{pu: pu, src: v.src, d: r.kb.dict, dver: dver}, nil
}

// RefPlanStats counts reformulation prepared-union lifecycle events:
// full re-reformulations (rebuild) and cheap branch-level rebinds. Exposed
// by the server's metrics registry alongside engine.PlanStats.
var RefPlanStats struct {
	Rebuilt atomic.Uint64
	Rebound atomic.Uint64
}

// ucqPlan is a reformulated union with one engine plan per branch.
type ucqPlan struct {
	pu   *reformulate.PreparedUCQ
	src  engine.Source // source the branches are bound to
	d    *dict.Dict
	dver uint64 // dictionary version the rewriting saw
}

// rebind keeps the union and every branch plan across a data-only batch,
// merely pointing the branches at the new snapshot (each replans on its own
// only when the data size drifts past the engine's threshold) — the common
// case of constant classes and properties, where update-heavy workloads pay
// one pointer swap per branch instead of a full rewrite. Dictionary growth,
// or any batch under a rewriting that instantiated class/property variables
// against the data vocabulary, invalidates the rewriting itself.
func (p *ucqPlan) rebind(src engine.Source) bool {
	if p.d.Version() != p.dver {
		return false
	}
	if src == p.src {
		return true
	}
	if p.pu.VocabDependent() {
		return false
	}
	RefPlanStats.Rebound.Add(1)
	p.pu.Rebind(src)
	p.src = src
	return true
}

func (p *ucqPlan) eval([]string) (*engine.Result, error) { return p.pu.Evaluate() }

// storeView is the read-only store surface shared by *store.Store and
// *store.Snapshot that composite sources build on: what the engine needs to
// evaluate plus what reformulation needs to enumerate the vocabulary.
type storeView interface {
	engine.Source
	reformulate.VocabularySource
}

// unionSource exposes two disjoint store views as one engine.Source /
// reformulate.VocabularySource.
type unionSource struct {
	a, b storeView
}

func (u *unionSource) ForEachMatch(pat store.Triple, fn func(store.Triple) bool) {
	stopped := false
	u.a.ForEachMatch(pat, func(t store.Triple) bool {
		if !fn(t) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	u.b.ForEachMatch(pat, fn)
}

func (u *unionSource) Count(pat store.Triple) int {
	return u.a.Count(pat) + u.b.Count(pat)
}

func (u *unionSource) Predicates() []dict.ID {
	return unionIDs(u.a.Predicates(), u.b.Predicates())
}

func (u *unionSource) Objects(p dict.ID) []dict.ID {
	return unionIDs(u.a.Objects(p), u.b.Objects(p))
}

func unionIDs(a, b []dict.ID) []dict.ID {
	set := make(map[dict.ID]struct{}, len(a)+len(b))
	out := make([]dict.ID, 0, len(a)+len(b))
	for _, ids := range [2][]dict.ID{a, b} {
		for _, id := range ids {
			if _, dup := set[id]; !dup {
				set[id] = struct{}{}
				out = append(out, id)
			}
		}
	}
	return out
}

// interface checks
var (
	_ Strategy                     = (*Saturation)(nil)
	_ Strategy                     = (*Reformulation)(nil)
	_ Strategy                     = (*Backward)(nil)
	_ engine.Source                = (*unionSource)(nil)
	_ reformulate.VocabularySource = (*unionSource)(nil)
)

// PlainAnswer evaluates q against the asserted triples only, ignoring
// entailment — the plain "query evaluation" that the paper's motivation
// contrasts with query answering, and the baseline showing how many answers
// each workload query loses without reasoning.
func PlainAnswer(kb *KB, q *sparql.Query) (*engine.Result, error) {
	res, err := direct{kb.dict}.answer(&view{src: kb.base}, q)
	if err != nil {
		return nil, err
	}
	return limit(res, q), nil
}

// NewStrategy builds a strategy by name ("saturation", "reformulation",
// "backward"), the switch used by cmd/rdfquery.
func NewStrategy(name string, kb *KB) (Strategy, error) {
	switch name {
	case "saturation":
		return NewSaturation(kb), nil
	case "reformulation":
		return NewReformulation(kb, reformulate.Options{}), nil
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
// dictionary, vocabulary and rules). Cross-strategy restores convert: a
// saturation snapshot restored as reformulation/backward rebuilds the full
// G store from the base set, and a G-only snapshot restored as saturation
// re-saturates, exactly as a fresh build would.
func RestoreStrategy(name string, ls *persist.LoadedState) (*KB, Strategy, error) {
	base := ls.Base
	if base == nil && !(name == "saturation" && ls.Saturated != nil) {
		base = store.New()
		ls.BaseSet.ForEach(func(t store.Triple) bool { base.Add(t); return true })
	}
	kb := RestoreKB(ls.Dict, base)
	if name == "saturation" && ls.Saturated != nil {
		baseSet := ls.BaseSet
		if baseSet == nil {
			baseSet = store.NewTripleSet()
			ls.Base.ForEachMatch(store.Triple{}, func(t store.Triple) bool { baseSet.Add(t); return true })
		}
		return kb, NewSaturationRestored(kb, baseSet, ls.Saturated), nil
	}
	s, err := NewStrategy(name, kb)
	return kb, s, err
}
