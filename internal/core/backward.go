package core

import (
	"cmp"
	"slices"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/reformulate"
	"repro/internal/schema"
	"repro/internal/store"
)

// Backward answers queries by backward chaining at match time: the engine
// evaluates the original query against a source that answers each triple
// pattern over G∞ from G, one atom at a time — the pattern's matches in G
// plus those of its single-step rewritings (reformulate.Step, the rules the
// reformulation strategy applies to the whole query), each relabelled as the
// queried triple. This mirrors the run-time reasoning of AllegroGraph's
// RDFS++ and Virtuoso's SPARQL inference (§II-C) — no materialisation, no
// rewriting of the query, inference interleaved with evaluation.
//
// The source is a plain Source (a pattern's matches come from several store
// lookups, not from one sorted leaf), so prepared backward queries get plan
// caching but no merge joins.
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
	return &view{src: &chained{st: st, sch: b.sch}, sch: b.sch, size: st.Len(), stats: storeStats(b.data)}
}

// chained is backward chaining's engine.Source: G∞, read through the closed
// schema from a snapshot of G with its schema closed, and never stored. It
// is immutable, so any number of evaluations may share it concurrently. It
// does not deduplicate: a triple entailed several ways is emitted once per
// way, and the engine's projection and dedup give the answers set semantics.
type chained struct {
	st  *store.Snapshot
	sch *schema.Schema
}

var _ engine.Source = (*chained)(nil)

// ForEachMatch emits the matches of pat in G∞.
func (c *chained) ForEachMatch(pat store.Triple, fn func(store.Triple) bool) {
	c.instances(pat, func(q store.Triple) bool { return c.match(q, fn) })
}

// Count is the number of triples ForEachMatch emits for pat when its
// predicate and class are constants. Otherwise it is pat's count in G, an
// estimate that costs O(1), as the engine's size-drift check of
// Count(store.Triple{}) on every prepared execution needs.
func (c *chained) Count(pat store.Triple) int {
	n := c.st.Count(pat)
	if c.open(pat) {
		return n
	}
	reformulate.Step(c.sch, nil, pat.S, pat.P, pat.O, dict.None, func(s, p, o dict.ID, _ bool) bool {
		n += c.st.Count(store.Triple{S: s, P: p, O: o})
		return true
	})
	if ground(pat) {
		return min(n, 1)
	}
	return n
}

// open reports whether pat's predicate or, for rdf:type, its class is a
// variable.
func (c *chained) open(pat store.Triple) bool {
	return pat.P == dict.None || pat.P == c.sch.Vocab().Type && pat.O == dict.None
}

// instances calls fn with pat when its predicate and class are constants,
// and otherwise with each of its instantiations over G∞'s vocabulary: for
// (s rdf:type ?c) with s bound, over the classes s can reach (see
// classesOf); it reports whether fn let it run to the end.
func (c *chained) instances(pat store.Triple, fn func(store.Triple) bool) bool {
	if !c.open(pat) {
		return fn(pat)
	}
	if pat.P == c.sch.Vocab().Type && pat.S != dict.None {
		for _, k := range c.classesOf(pat.S) {
			if !fn(store.Triple{S: pat.S, P: pat.P, O: k}) {
				return false
			}
		}
		return true
	}
	return reformulate.Step(c.sch, c.st, pat.S, pat.P, pat.O, dict.None, func(s, p, o dict.ID, _ bool) bool {
		return c.instances(store.Triple{S: s, P: p, O: o}, fn)
	})
}

// classesOf returns, ascending and each once, the classes s is an instance
// of in G∞, read off s's own edges in G: its asserted types and their
// superclasses, the domains of its out-edges' properties and the ranges of
// its in-edges' properties.
func (c *chained) classesOf(s dict.ID) []dict.ID {
	typ := c.sch.Vocab().Type
	var ks, out, in []dict.ID // the classes, and the properties already read
	c.st.ForEachMatch(store.Triple{S: s}, func(t store.Triple) bool {
		switch {
		case t.P == typ:
			ks = append(append(ks, t.O), c.sch.SuperClasses(t.O)...)
		case !slices.Contains(out, t.P):
			out = append(out, t.P)
			ks = append(ks, c.sch.Domains(t.P)...)
		}
		return true
	})
	c.st.ForEachMatch(store.Triple{O: s}, func(t store.Triple) bool {
		if !slices.Contains(in, t.P) {
			in = append(in, t.P)
			ks = append(ks, c.sch.Ranges(t.P)...)
		}
		return true
	})
	slices.Sort(ks)
	return slices.Compact(ks)
}

// match emits the matches of q in G∞, q's predicate and class constants:
// its matches in G and those of its single-step rewritings, each relabelled
// as q — the subject read where the step put it, the object q's when bound.
// A ground q has at most one match, so it stops at the first. match reports
// whether fn let it run to the end.
func (c *chained) match(q store.Triple, fn func(store.Triple) bool) bool {
	ok, found := true, false
	one := func(step store.Triple, inv bool) bool {
		c.st.ForEachMatch(step, func(t store.Triple) bool {
			s := t.S
			if inv {
				s = t.O
			}
			ok, found = fn(store.Triple{S: s, P: q.P, O: cmp.Or(q.O, t.O)}), true
			return ok && !ground(q)
		})
		return ok && !(found && ground(q))
	}
	if one(q, false) {
		reformulate.Step(c.sch, nil, q.S, q.P, q.O, dict.None, func(s, p, o dict.ID, inv bool) bool {
			return one(store.Triple{S: s, P: p, O: o}, inv)
		})
	}
	return ok
}

// ground reports whether every position of a pattern is bound.
func ground(t store.Triple) bool { return t.S != dict.None && t.P != dict.None && t.O != dict.None }
