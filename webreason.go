// Package webreason is the public API of this repository: query answering
// over semantic-rich Web (RDF) data, reproducing "Reasoning on Web Data:
// Algorithms and Performance" (Bursztyn, Goasdoué, Manolescu, Roatiş, ICDE
// 2015).
//
// An RDF graph is loaded into a KB together with its RDFS constraints
// (rdfs:subClassOf, rdfs:subPropertyOf, rdfs:domain, rdfs:range). Queries
// are SPARQL basic graph patterns, and their answers are defined against
// the graph's saturation G∞ — the implicit triples count. Three
// interchangeable strategies compute those answers:
//
//	Saturation    — materialise G∞ once, evaluate directly, maintain
//	                incrementally under updates (forward chaining).
//	Reformulation — rewrite each query into a union q_ref with
//	                q_ref(G) = q(G∞) and evaluate on the untouched graph.
//	Backward      — derive entailed triples lazily during evaluation.
//
// The Thresholds and Advise helpers quantify when each choice wins, the
// paper's Figure 3 analysis. See examples/ for runnable walkthroughs and
// benchmark/ for the paper's experiment at LUBM scale, end to end.
//
// # Prepared queries
//
// The paper's central trade-off assumes queries are asked repeatedly. For
// that regime, Prepare compiles a query once against a strategy and returns
// a PreparedQuery whose Answer reuses the compiled plan on every call:
// saturation and backward chaining skip per-call compilation and join
// planning, and reformulation additionally keeps the rewritten union with
// one plan per union member. The plan is immutable and shared, so a
// PreparedQuery is safe for concurrent use; it reads the strategy's data
// live and replaces its plan when it goes stale (schema updates, a constant
// the dictionary has learnt since, statistics drift), so it stays correct
// across Insert/Delete — steady-state re-execution is allocation-free apart
// from the result itself.
//
//	pq, err := webreason.Prepare(strategy, q)
//	for ... { res, err := pq.Answer() }
//
// # Concurrent serving
//
// Strategy mutations are serialized and reads are snapshot-isolated, but a
// bare strategy applies each write on the caller's goroutine. To serve
// many clients while the graph evolves — the paper's web setting — wrap a
// strategy in a Server: queries run concurrently against immutable
// snapshots, and updates flow through an asynchronous batched mutation
// queue applied by one background writer. See the Server type for the exact
// snapshot-isolation guarantees.
//
//	srv := webreason.NewServer(strategy, webreason.ServerOptions{})
//	defer srv.Close()
//	err := srv.Insert(triples...) // validates, then applies asynchronously
//	res, err := srv.Query(q)      // always a consistent closure
//
// Server reads are bounded-staleness by default; a Session upgrades one
// client to read-your-writes, and InsertDurable/DeleteDurable block until
// the write is fsynced (group-committed under SyncGroup):
//
//	sess := srv.Session()
//	err := sess.InsertDurable(triples...) // logged + fsynced on return
//	res, err := sess.Query(q)             // observes the session's writes
//
// Insert, Delete, InsertDurable and DeleteDurable are all Mutate with a
// background context; call Mutate directly to bound the admission and
// durability waits with a deadline:
//
//	err := srv.Mutate(ctx, webreason.Mutation{Durable: true, Triples: triples})
package webreason

import (
	"io"

	"repro/internal/core"
	"repro/internal/lubm"
	"repro/internal/ntriples"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/rdf"
	"repro/internal/rdfio"
	"repro/internal/reformulate"
	"repro/internal/sparql"
	"repro/internal/turtle"
)

// Re-exported model types. A Term is an IRI, literal, blank node or query
// variable; a Triple is an (S,P,O) statement; a Graph is a set of triples.
type (
	Term   = rdf.Term
	Triple = rdf.Triple
	Graph  = rdf.Graph
	// KB is a knowledge base: asserted triples plus entailment rules.
	KB = core.KB
	// Strategy answers queries w.r.t. RDF entailment; see New*Strategy.
	Strategy = core.Strategy
	// PreparedQuery is a query compiled against one strategy for repeated
	// execution; see Prepare.
	PreparedQuery = core.PreparedQuery
	// Query is a parsed SPARQL BGP query.
	Query = sparql.Query
	// UCQ is a reformulated query: a union of BGP queries.
	UCQ = reformulate.UCQ
	// Workload and CostModel feed the strategy advisor.
	Workload = core.Workload
	// CostModel aggregates measured unit costs.
	CostModel = core.CostModel
	// MaintenanceCosts and QueryCosts are the Figure 3 cost inputs.
	MaintenanceCosts = core.MaintenanceCosts
	QueryCosts       = core.QueryCosts
	// Thresholds are the Figure 3 outputs for one query.
	Thresholds = core.Thresholds
)

// Term constructors.
var (
	NewIRI          = rdf.NewIRI
	NewLiteral      = rdf.NewLiteral
	NewTypedLiteral = rdf.NewTypedLiteral
	NewLangLiteral  = rdf.NewLangLiteral
	NewBlank        = rdf.NewBlank
	NewVar          = rdf.NewVar
	T               = rdf.T
	NewGraph        = rdf.NewGraph
	GraphOf         = rdf.GraphOf
)

// RDFS vocabulary terms.
var (
	Type          = rdf.Type
	SubClassOf    = rdf.SubClassOf
	SubPropertyOf = rdf.SubPropertyOf
	Domain        = rdf.Domain
	Range         = rdf.Range
)

// NewKB returns an empty knowledge base with the RDFS rules of the DB
// fragment of RDF.
func NewKB() *KB { return core.NewKB() }

// ParseQuery parses a SPARQL BGP query (SELECT or ASK).
func ParseQuery(src string) (*Query, error) { return sparql.Parse(src) }

// MustParseQuery parses a query known to be valid, panicking on error.
func MustParseQuery(src string) *Query { return sparql.MustParse(src) }

// ParseTurtle parses a Turtle document into a graph.
func ParseTurtle(r io.Reader) (*Graph, error) { return turtle.Parse(r) }

// ParseNTriples parses an N-Triples document into a graph.
func ParseNTriples(r io.Reader) (*Graph, error) { return ntriples.Read(r) }

// LoadFile loads an RDF file, dispatching on the extension (.nt, .ttl).
func LoadFile(path string) (*Graph, error) { return rdfio.Load(path) }

// SaveFile writes a graph, dispatching on the extension.
func SaveFile(path string, g *Graph, prefixes map[string]string) error {
	return rdfio.Save(path, g, prefixes)
}

// NewSaturationStrategy materialises the KB's closure and answers queries
// against it.
func NewSaturationStrategy(kb *KB) Strategy { return core.NewSaturation(kb) }

// NewReformulationStrategy answers queries by run-time rewriting over the
// untouched graph, with subsumption minimization of the union (the minimal
// reformulations of [12]). It is NewStrategy("reformulation", kb).
func NewReformulationStrategy(kb *KB) Strategy {
	s, _ := core.NewStrategy("reformulation", kb) // a known name cannot fail
	return s
}

// NewBackwardStrategy answers queries by backward chaining during
// evaluation.
func NewBackwardStrategy(kb *KB) Strategy { return core.NewBackward(kb) }

// NewStrategy builds a strategy by name: "saturation", "reformulation" (the
// minimised union of NewReformulationStrategy) or "backward".
func NewStrategy(name string, kb *KB) (Strategy, error) { return core.NewStrategy(name, kb) }

// Durability. A DB is an open persistence directory: binary snapshots of the
// serving state plus a write-ahead log of mutation batches. Open one, rebuild
// the KB and strategy from its recovered state, replay the WAL tail through
// the strategy (Replay), and hand the DB to NewServer via ServerOptions.DB; see
// internal/persist for the format and crash-recovery contract.
type (
	// DB is the handle to a persistence directory (WAL + snapshots).
	DB = persist.DB
	// DBOptions tunes fsync policy and checkpoint thresholds.
	DBOptions = persist.Options
	// DBState is the state recovered from a snapshot (DB.State).
	DBState = persist.LoadedState
	// DBStats is the DB's point-in-time health counters (DB.Stats);
	// Server.Health folds them into the serving-layer report.
	DBStats = persist.Stats
	// DurableStrategy is Strategy under the name of its checkpointing
	// surface (Strategy.DurableState).
	DurableStrategy = core.DurableStrategy
)

// Durability error sentinels, for errors.Is. ErrDBLocked means another
// process holds the data directory's LOCK file — the error's own message
// names the directory and the remediation. ErrWALBound means the live WAL
// chain outgrew DBOptions.MaxWALBytes because checkpoints kept failing; a
// Server hitting it degrades to read-only (see ErrDegraded and the Server
// degraded-mode doc).
var (
	ErrDBLocked = persist.ErrLocked
	ErrWALBound = persist.ErrWALBound
)

// WAL fsync policies. SyncAlways fsyncs per record; SyncGroup stages
// records and amortises one background fsync across every concurrent
// producer's records (group commit — near-SyncNever throughput, with
// acknowledged writes carrying SyncAlways crash semantics); SyncNever
// leaves flushing to the OS. See the Server durability doc for the exact
// guarantees and Server.InsertDurable / Session for acknowledged writes.
const (
	SyncAlways = persist.SyncAlways
	SyncGroup  = persist.SyncGroup
	SyncNever  = persist.SyncNever
)

// OpenDB opens (creating if needed) a persistence directory and recovers its
// state: the newest valid snapshot is loaded and the WAL tail above it is
// made available for replay. A torn final WAL record — the signature of a
// crash mid-append — is truncated away; other damage refuses to open.
func OpenDB(dir string, opts DBOptions) (*DB, error) { return persist.Open(dir, opts) }

// RestoreStrategy builds the named strategy (and the KB it runs on) from
// snapshot-recovered state (DB.State), taking ownership of the contained
// structures. A saturation snapshot restored as the saturation strategy
// starts serving without re-running saturation.
var RestoreStrategy = core.RestoreStrategy

// Replay feeds a DB's recovered WAL tail through a strategy as one write
// epoch — every run takes the normal maintenance path, the strategy's view is
// published once: webreason.Replay(strategy, db.ReplayTail). It returns the
// number of records replayed.
var Replay = core.Replay

// Observability. A MetricsRegistry collects the serving stack's metric
// families — build one, pass it through ServerOptions.Obs, DBOptions.Obs
// and FollowerConfig.Obs, and every layer registers and observes its
// counters, gauges and latency histograms against it (lock-free and
// allocation-free on the hot paths; see internal/obs). A SlowLog rides
// alongside via ServerOptions.SlowLog, retaining a structured QueryTrace
// for every read at or above its threshold. AdminHandler serves both over
// HTTP together with Health and pprof.
type (
	// MetricsRegistry is a named collection of metric families, rendered in
	// the Prometheus text exposition format by WritePrometheus.
	MetricsRegistry = obs.Registry
	// SlowLog is a bounded ring buffer of slow-query traces.
	SlowLog = obs.SlowLog
	// QueryTrace is one slow-query record: strategy, plan-cache hit/miss,
	// duration, rows, query text.
	QueryTrace = obs.QueryTrace
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSlowLog returns a slow-query log holding up to capacity traces of
// reads that took at least threshold (capacity <= 0 means 256).
var NewSlowLog = obs.NewSlowLog

// Prepare compiles q against s for repeated execution. The returned
// PreparedQuery keeps the join plan (and, for reformulation, the rewritten
// union) across Answer calls — shared by all its callers, replaced
// automatically when the strategy's schema, dictionary or data statistics
// outdate it — use it whenever the same
// query is asked more than a handful of times, the regime the paper's
// Figure 3 thresholds reason about.
func Prepare(s Strategy, q *Query) (PreparedQuery, error) { return s.Prepare(q) }

// Ask turns the outcome of an Answer call into the ASK verdict — whether the
// query has any answer against G∞: webreason.Ask(strategy.Answer(q)),
// webreason.Ask(pq.Answer()).
var Ask = core.Ask

// ComputeThresholds evaluates the Figure 3 arithmetic: how many executions
// of a query amortise saturation (or one maintenance step) against
// reformulation.
func ComputeThresholds(m MaintenanceCosts, q QueryCosts) Thresholds {
	return core.ComputeThresholds(m, q)
}

// Advise recommends the cheapest strategy for a workload mix given
// measured unit costs (§II-D's "automatizing the choice").
func Advise(cm CostModel, w Workload) core.Recommendation { return core.Advise(cm, w) }

// Explain returns a human-readable proof tree showing why the triple is
// entailed by the KB (OWLIM-style justification), or ok=false if it is not
// entailed. It reads the KB's loaded G, not the current G of a strategy that
// has since been updated, and adds nothing to the dictionary: a triple with
// a term the dictionary lacks is not entailed. The call saturates the KB, so
// it is meant for debugging and teaching, not hot paths; hold on to a
// Saturation strategy for repeated use.
func Explain(kb *KB, t Triple) (proof string, ok bool) {
	enc, known := kb.Lookup(t)
	if !known {
		return "", false
	}
	sat := core.NewSaturation(kb)
	d := sat.Materialization().Explain(enc)
	if d == nil {
		return "", false
	}
	return d.Format(kb.Dict()), true
}

// LUBMOntology and LUBMGenerate expose the built-in evaluation workload: a
// university ontology and deterministic data generator in the spirit of
// LUBM, used by the paper's experiments.
func LUBMOntology() *Graph { return lubm.Ontology() }

// LUBMGenerate produces instance data at the given scale (universities ×
// departments), deterministic in seed.
func LUBMGenerate(universities, depts int, seed int64) *Graph {
	cfg := lubm.DefaultConfig()
	cfg.Universities = universities
	cfg.DeptsPerUniv = depts
	cfg.Seed = seed
	return lubm.Generate(cfg)
}
