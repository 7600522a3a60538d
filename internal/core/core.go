// Package core assembles the paper's contribution as a library: query
// answering over semantic-rich RDF graphs, with the reasoning decoupled
// from evaluation in the three ways the tutorial surveys —
//
//   - Saturation (forward chaining, OWLIM/Oracle style): materialise G∞
//     once, evaluate queries directly, maintain the closure under updates;
//   - Reformulation ([12]/[19] style): leave G untouched, rewrite each
//     query into a union q_ref with q_ref(G) = q(G∞);
//   - Backward chaining (AllegroGraph/Virtuoso style): evaluate against a
//     virtual view of G∞ that derives entailed triples at match time.
//
// All three implement Strategy over the same store, so their performance
// differences (Figure 3 and experiments E3–E8) are algorithmic, not
// storage artifacts. They also share one read path: a query is compiled
// into an immutable plan that every goroutine executing it shares — kept by
// a prepared query (safe for concurrent use, replaced under the one
// validity rule of prepared.current), dropped after one execution by an ad
// hoc Answer. And one write path, Strategy.Apply: a sequence of insert and
// delete runs, each maintained as it arrives, the stores frozen and the new
// view published once at the end (Insert and Delete are its one-run case), so
// the copy-on-write a published view costs the next writer is paid per
// drained queue, shipped chunk or recovered WAL tail, not per run. The
// package also hosts the threshold arithmetic of Figure 3 and the strategy
// advisor sketched as an open issue in §II-D.
package core

import (
	"fmt"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/reason"
	"repro/internal/schema"
	"repro/internal/store"
)

// KB is a knowledge base: a dictionary-encoded RDF graph (instance + schema
// triples) plus the entailment rules of the DB fragment, reason.RDFSRules,
// fixed. Saturation materialises G∞ under those rules while reformulation and
// backward chaining answer from the schema closure of internal/schema, which
// is the closure under the same rules — so q(G∞) = q_ref(G) holds only for
// this rule set, and there is no way to replace it. The KB is the loading
// container from which strategies are built: LoadGraph is its one write.
// Each strategy starts from a clone of the loaded store, which shares its
// nodes under copy-on-write (store.Store.Clone), so a process holds G's
// nodes once however many strategies it builds, and their update paths can
// still be compared side by side. Updates go through a strategy and never
// reach the KB, so what the KB reads is G as loaded. The KB leaves its store
// snapshotted, so building strategies only reads it: any number of
// goroutines may build them from one KB at once.
type KB struct {
	dict  *dict.Dict
	voc   schema.Vocab
	base  *store.Store
	rules []reason.Rule
}

// NewKB returns an empty knowledge base using the RDFS rule set of the DB
// fragment.
func NewKB() *KB { return RestoreKB(dict.New(), nil) }

// RestoreKB rebuilds a knowledge base around a dictionary and base store
// recovered from a persistence snapshot, taking ownership of both. The RDFS
// vocabulary is re-encoded against the restored dictionary (terms already
// present keep their IDs; the dense assignment makes this a no-op for any
// dictionary that saw the vocabulary before it was persisted). base may be
// nil when the KB only carries dictionary, vocabulary and rules (the
// restored-saturation fast path, whose data lives in the strategy).
func RestoreKB(d *dict.Dict, base *store.Store) *KB {
	if base == nil {
		base = store.New()
	}
	base.Snapshot()
	voc := schema.NewVocab(d)
	return &KB{
		dict:  d,
		voc:   voc,
		base:  base,
		rules: reason.RDFSRules(voc),
	}
}

// Dict exposes the term dictionary (shared, append-only).
func (kb *KB) Dict() *dict.Dict { return kb.dict }

// Vocab exposes the encoded RDF/RDFS vocabulary.
func (kb *KB) Vocab() schema.Vocab { return kb.voc }

// Rules returns the entailment rules in force: reason.RDFSRules over the
// KB's vocabulary.
func (kb *KB) Rules() []reason.Rule { return kb.rules }

// Len returns the number of loaded triples: |G| as loaded, not the current G
// of a strategy that has since been updated.
func (kb *KB) Len() int { return kb.base.Len() }

// Base returns the store of loaded triples. Callers must treat it as
// read-only; LoadGraph is the one write.
func (kb *KB) Base() *store.Store { return kb.base }

// Encode converts a term-level triple to its dictionary-encoded form,
// assigning IDs as needed.
func (kb *KB) Encode(t rdf.Triple) store.Triple {
	return store.Triple{
		S: kb.dict.Encode(t.S),
		P: kb.dict.Encode(t.P),
		O: kb.dict.Encode(t.O),
	}
}

// Lookup converts a term-level triple to its dictionary-encoded form without
// assigning IDs; ok is false when one of its terms is not in the dictionary,
// so no stored triple can equal it.
func (kb *KB) Lookup(t rdf.Triple) (enc store.Triple, ok bool) {
	var okS, okP, okO bool
	enc.S, okS = kb.dict.Lookup(t.S)
	enc.P, okP = kb.dict.Lookup(t.P)
	enc.O, okO = kb.dict.Lookup(t.O)
	return enc, okS && okP && okO
}

// Decode converts an encoded triple back to terms.
func (kb *KB) Decode(t store.Triple) rdf.Triple {
	return rdf.T(kb.dict.MustTerm(t.S), kb.dict.MustTerm(t.P), kb.dict.MustTerm(t.O))
}

// LoadGraph asserts every triple of g, returning the number added. Every
// triple is validated before any is encoded, so a graph with an ill-formed
// triple adds nothing, to the base or to the dictionary. Into an empty KB
// the base is built in one pass (store.Build) and replaces the empty store.
// The base is left snapshotted (see KB).
func (kb *KB) LoadGraph(g *rdf.Graph) (int, error) {
	var err error
	g.ForEach(func(t rdf.Triple) bool {
		if werr := t.WellFormed(); werr != nil {
			err = fmt.Errorf("loading %s: %w", t, werr)
		}
		return err == nil
	})
	if err != nil {
		return 0, err
	}
	ts := make([]store.Triple, 0, g.Len())
	g.ForEach(func(t rdf.Triple) bool {
		ts = append(ts, kb.Encode(t))
		return true
	})
	n := 0
	if kb.base.Len() == 0 {
		kb.base = store.Build(ts)
		n = kb.base.Len()
	} else {
		for _, t := range ts {
			if kb.base.Add(t) {
				n++
			}
		}
	}
	kb.base.Snapshot()
	return n, nil
}

// Graph decodes the loaded triples back into an rdf.Graph (mainly for
// serialisation and tests): G as loaded, not the current G of a strategy
// that has since been updated.
func (kb *KB) Graph() *rdf.Graph {
	g := rdf.NewGraph()
	kb.base.ForEachMatch(store.Triple{}, func(t store.Triple) bool {
		g.Add(kb.Decode(t))
		return true
	})
	return g
}
