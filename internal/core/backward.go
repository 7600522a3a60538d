package core

import (
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/store"
)

// Backward answers queries by backward chaining at match time: the engine
// evaluates the original query against a virtual view of G∞ that derives
// entailed triples on demand from G and the closed schema. This mirrors the
// run-time reasoning of AllegroGraph's RDFS++ and Virtuoso's SPARQL
// inference (§II-C) — no materialisation, no query rewriting, inference
// interleaved with evaluation.
//
// The virtual view is a plain Source (its matches are derived lazily, not
// stored sorted), so prepared backward queries get plan caching but no merge
// joins.
type Backward struct {
	skeleton
	direct
	asserted
}

// NewBackward builds the strategy over a clone of the KB's data, which
// shares the loaded store's nodes.
func NewBackward(kb *KB) *Backward {
	b := &Backward{skeleton: skeleton{kb: kb}, direct: direct{kb.dict}, asserted: newAsserted(kb)}
	b.start(b)
	return b
}

// Name implements Strategy.
func (b *Backward) Name() string { return "backward" }

func (b *Backward) view() *view {
	st := b.data.Snapshot()
	return &view{src: &inferredView{st: st, sch: b.sch, voc: b.voc}, sch: b.sch, size: st.Len(), stats: storeStats(b.data)}
}

// inferredView is an engine.Source that behaves like G∞ without storing it.
// Each match call unions the explicit matches with the entailed ones
// reachable through the closed schema; a per-call set deduplicates triples
// derivable several ways. The view is immutable — it reads a store snapshot
// and a schema, both frozen — so any number of evaluations may share it
// concurrently.
type inferredView struct {
	// st is G with its schema closed.
	st  *store.Snapshot
	sch *schema.Schema
	voc schema.Vocab
}

var _ engine.Source = (*inferredView)(nil)

func (v *inferredView) ForEachMatch(pat store.Triple, fn func(store.Triple) bool) {
	emit := newDedupEmitter(fn)
	switch {
	case pat.P == v.voc.Type:
		v.matchType(pat.S, pat.O, emit)
	case pat.P == dict.None:
		v.matchAnyPredicate(pat, emit)
	case v.voc.IsConstraintProperty(pat.P):
		v.matchSchema(pat, emit)
	default:
		v.matchProperty(pat.S, pat.P, pat.O, emit)
	}
}

// dedupEmitter suppresses duplicate triples and honours early stop.
type dedupEmitter struct {
	seen    map[store.Triple]struct{}
	fn      func(store.Triple) bool
	stopped bool
}

func newDedupEmitter(fn func(store.Triple) bool) *dedupEmitter {
	return &dedupEmitter{seen: map[store.Triple]struct{}{}, fn: fn}
}

func (e *dedupEmitter) emit(t store.Triple) {
	if e.stopped {
		return
	}
	if _, dup := e.seen[t]; dup {
		return
	}
	e.seen[t] = struct{}{}
	if !e.fn(t) {
		e.stopped = true
	}
}

// matchType enumerates (s rdf:type c) triples of G∞.
func (v *inferredView) matchType(s, c dict.ID, e *dedupEmitter) {
	if c != dict.None {
		// Explicit members of c and of its subclasses.
		classes := append([]dict.ID{c}, v.sch.SubClasses(c)...)
		for _, cls := range classes {
			v.st.ForEachMatch(store.Triple{P: v.voc.Type, O: cls, S: s}, func(t store.Triple) bool {
				e.emit(store.Triple{S: t.S, P: v.voc.Type, O: c})
				return !e.stopped
			})
			if e.stopped {
				return
			}
		}
		// Members via domain constraints: (x p y) with p domain c ⇒ x : c.
		for _, p := range v.sch.PropertiesWithDomain(c) {
			v.st.ForEachMatch(store.Triple{S: s, P: p}, func(t store.Triple) bool {
				e.emit(store.Triple{S: t.S, P: v.voc.Type, O: c})
				return !e.stopped
			})
			if e.stopped {
				return
			}
		}
		// Members via range constraints: (x p y) with p range c ⇒ y : c.
		for _, p := range v.sch.PropertiesWithRange(c) {
			v.st.ForEachMatch(store.Triple{P: p, O: s}, func(t store.Triple) bool {
				e.emit(store.Triple{S: t.O, P: v.voc.Type, O: c})
				return !e.stopped
			})
			if e.stopped {
				return
			}
		}
		return
	}
	// Class unbound: derive all types of the matching subjects.
	v.st.ForEachMatch(store.Triple{S: s, P: v.voc.Type}, func(t store.Triple) bool {
		e.emit(t)
		for _, sup := range v.sch.SuperClasses(t.O) {
			e.emit(store.Triple{S: t.S, P: v.voc.Type, O: sup})
			if e.stopped {
				return false
			}
		}
		return !e.stopped
	})
	if e.stopped {
		return
	}
	// Types induced by domain/range of properties on s (or on anything when
	// s is unbound). Closed schema makes Domains/Ranges complete.
	v.st.ForEachMatch(store.Triple{S: s}, func(t store.Triple) bool {
		for _, c := range v.sch.Domains(t.P) {
			e.emit(store.Triple{S: t.S, P: v.voc.Type, O: c})
			if e.stopped {
				return false
			}
		}
		return true
	})
	if e.stopped {
		return
	}
	// Range-induced types: object position. When s is bound we scan its
	// incoming edges; when unbound, all triples.
	v.st.ForEachMatch(store.Triple{O: s}, func(t store.Triple) bool {
		for _, c := range v.sch.Ranges(t.P) {
			e.emit(store.Triple{S: t.O, P: v.voc.Type, O: c})
			if e.stopped {
				return false
			}
		}
		return true
	})
}

// matchProperty enumerates (s p o) triples of G∞ for a regular property p:
// explicit matches plus matches of every subproperty, re-labelled as p.
func (v *inferredView) matchProperty(s, p, o dict.ID, e *dedupEmitter) {
	props := append([]dict.ID{p}, v.sch.SubProperties(p)...)
	for _, sub := range props {
		v.st.ForEachMatch(store.Triple{S: s, P: sub, O: o}, func(t store.Triple) bool {
			e.emit(store.Triple{S: t.S, P: p, O: t.O})
			return !e.stopped
		})
		if e.stopped {
			return
		}
	}
}

// matchSchema serves constraint-property patterns: their triples in G∞ are
// the closed schema's, which st holds. The snapshot is called directly, not
// through an interface, so the emitter does not escape to the heap.
func (v *inferredView) matchSchema(pat store.Triple, e *dedupEmitter) {
	v.st.ForEachMatch(pat, func(t store.Triple) bool {
		e.emit(t)
		return !e.stopped
	})
}

// matchAnyPredicate handles patterns with an unbound predicate: the union
// over rdf:type, every data property, and the four constraint properties.
func (v *inferredView) matchAnyPredicate(pat store.Triple, e *dedupEmitter) {
	v.matchType(pat.S, pat.O, e)
	if e.stopped {
		return
	}
	// Candidate properties: G's predicates label the explicit triples, and
	// the schema's properties the entailed ones (an entailed triple carries
	// a superproperty of an asserted triple's predicate, which the closed
	// schema knows).
	cands := map[dict.ID]struct{}{}
	for _, p := range v.st.Predicates() {
		cands[p] = struct{}{}
	}
	for _, p := range v.sch.Properties() {
		cands[p] = struct{}{}
	}
	for p := range cands {
		if p == v.voc.Type || v.voc.IsConstraintProperty(p) {
			continue
		}
		v.matchProperty(pat.S, p, pat.O, e)
		if e.stopped {
			return
		}
	}
	for _, p := range []dict.ID{v.voc.SubClassOf, v.voc.SubPropertyOf, v.voc.Domain, v.voc.Range} {
		v.matchSchema(store.Triple{S: pat.S, P: p, O: pat.O}, e)
		if e.stopped {
			return
		}
	}
}

// Count gives the optimizer a cheap estimate: explicit matches plus the
// explicit counts of the one-step expansions. A constraint pattern's count is
// exact, since st holds the closed schema.
func (v *inferredView) Count(pat store.Triple) int {
	n := v.st.Count(pat)
	switch {
	case pat.P == v.voc.Type && pat.O != dict.None:
		for _, c := range v.sch.SubClasses(pat.O) {
			n += v.st.Count(store.Triple{S: pat.S, P: v.voc.Type, O: c})
		}
		for _, p := range v.sch.PropertiesWithDomain(pat.O) {
			n += v.st.Count(store.Triple{S: pat.S, P: p})
		}
		for _, p := range v.sch.PropertiesWithRange(pat.O) {
			n += v.st.Count(store.Triple{P: p, O: pat.S})
		}
	case pat.P != dict.None && !v.voc.IsConstraintProperty(pat.P) && pat.P != v.voc.Type:
		for _, sub := range v.sch.SubProperties(pat.P) {
			n += v.st.Count(store.Triple{S: pat.S, P: sub, O: pat.O})
		}
	case pat.P == dict.None:
		// Wildcard predicate: assume inference roughly doubles matches.
		n *= 2
	}
	return n
}
