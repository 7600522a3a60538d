package reason

import (
	"repro/internal/dict"
	"repro/internal/store"
)

// This file holds the general rule engine that applying the rules through
// the closed schema replaced: semi-naive forward chaining over any valid set
// of two-premise rules, maintained under deletions by DRed (over-delete,
// then re-derive). It knows nothing of the RDFS vocabulary, so for RDFSRules
// it is the differential oracle saturation is checked against, triple for
// triple; for user-defined rules it is the only engine.

// matchPattern binds pattern p against concrete triple t, writing variable
// bindings into b (dict.None means "unbound"). It reports whether the match
// is consistent with the bindings already in b.
func matchPattern(p Pattern, t store.Triple, b []dict.ID) bool {
	bind := func(a Atom, v dict.ID) bool {
		if !a.IsVar {
			return a.ID == v
		}
		if b[a.Var] == dict.None {
			b[a.Var] = v
			return true
		}
		return b[a.Var] == v
	}
	return bind(p.S, t.S) && bind(p.P, t.P) && bind(p.O, t.O)
}

// instantiate builds the (possibly partial) triple pattern obtained by
// substituting bindings into p; unbound variables map to dict.None, i.e.
// store wildcards.
func instantiate(p Pattern, b []dict.ID) store.Triple {
	get := func(a Atom) dict.ID {
		if a.IsVar {
			return b[a.Var]
		}
		return a.ID
	}
	return store.Triple{S: get(p.S), P: get(p.P), O: get(p.O)}
}

// scratch holds reusable variable-binding buffers for rule matching.
type scratch struct {
	b, b2, b3 []dict.ID
	// conclusions buffers the results of one instantiation enumeration so
	// callbacks run only after the store iteration has finished — the store
	// forbids mutation during ForEachMatch, and the seminaive callback Adds
	// conclusions to the store.
	conclusions []store.Triple
}

// grow ensures all three buffers have length n. Only b is cleared to
// dict.None (the "unbound" marker matchPattern expects); b2 and b3 are
// always fully overwritten by copy before use.
func (sc *scratch) grow(n int) {
	if cap(sc.b) < n {
		sc.b = make([]dict.ID, n)
		sc.b2 = make([]dict.ID, n)
		sc.b3 = make([]dict.ID, n)
	}
	sc.b = sc.b[:n]
	sc.b2 = sc.b2[:n]
	sc.b3 = sc.b3[:n]
	for i := range sc.b {
		sc.b[i] = dict.None
	}
}

// generic is a materialisation under an arbitrary rule set: the store holds
// G∞ = base ∪ derived, the base set the asserted triples.
type generic struct {
	st    *store.Store
	base  *store.TripleSet
	rules []Rule
	sc    scratch

	// rounds, derived, overdeleted and rederived count the most recent
	// operation's semi-naive rounds and triples.
	rounds, derived, overdeleted, rederived int
}

// genericMaterialize saturates g under rules by semi-naive forward chaining.
func genericMaterialize(g *store.Store, rules []Rule) *generic {
	m := &generic{st: store.New(), base: store.NewTripleSet(), rules: rules}
	delta := make([]store.Triple, 0, g.Len())
	g.ForEachMatch(store.Triple{}, func(t store.Triple) bool {
		m.base.Add(t)
		m.st.Add(t)
		delta = append(delta, t)
		return true
	})
	m.seminaive(delta)
	return m
}

// Store returns G∞.
func (m *generic) Store() *store.Store { return m.st }

// forEachInstantiation enumerates, for a triple t playing premise position
// pos of rule r, every rule instantiation against partner triples currently
// in st; fn receives each instantiated conclusion. Instantiations are
// buffered and fn runs only after the store enumeration has finished: the
// store forbids mutation during ForEachMatch, and the seminaive callback
// Adds conclusions (which may land in the very postings leaf being
// iterated).
func forEachInstantiation(st *store.Store, r *Rule, pos int, t store.Triple, sc *scratch, fn func(conclusion store.Triple)) {
	sc.grow(r.NVars)
	b, b2 := sc.b, sc.b2
	if !matchPattern(r.Premises[pos], t, b) {
		return
	}
	other := 1 - pos
	partnerPat := instantiate(r.Premises[other], b)
	sc.conclusions = sc.conclusions[:0]
	st.ForEachMatch(partnerPat, func(u store.Triple) bool {
		copy(b2, b)
		if matchPattern(r.Premises[other], u, b2) {
			sc.conclusions = append(sc.conclusions, instantiate(r.Conclusion, b2))
		}
		return true
	})
	for _, c := range sc.conclusions {
		fn(c)
	}
}

// seminaive runs delta-driven forward chaining until fixpoint: each round,
// every rule is joined with the previous round's new triples in either
// premise position against the full current store.
func (m *generic) seminaive(delta []store.Triple) {
	for len(delta) > 0 {
		m.rounds++
		var next []store.Triple
		for _, t := range delta {
			for ri := range m.rules {
				r := &m.rules[ri]
				for pos := 0; pos < 2; pos++ {
					forEachInstantiation(m.st, r, pos, t, &m.sc, func(c store.Triple) {
						if m.st.Add(c) {
							m.derived++
							next = append(next, c)
						}
					})
				}
			}
		}
		delta = next
	}
}

// Insert adds base triples and propagates them semi-naively.
func (m *generic) Insert(ts ...store.Triple) int {
	m.rounds, m.derived, m.overdeleted, m.rederived = 0, 0, 0, 0
	var delta []store.Triple
	added := 0
	for _, t := range ts {
		if !m.base.Add(t) {
			continue
		}
		added++
		if m.st.Add(t) {
			delta = append(delta, t)
		}
	}
	m.seminaive(delta)
	return added
}

// Delete removes base triples with DRed: (1) overdelete everything
// transitively derived using a deleted triple, (2) re-derive whatever is
// still entailed by the remaining graph.
func (m *generic) Delete(ts ...store.Triple) int {
	m.rounds, m.derived, m.overdeleted, m.rederived = 0, 0, 0, 0
	removedBase := 0
	var seeds []store.Triple
	for _, t := range ts {
		if !m.base.Remove(t) {
			continue
		}
		removedBase++
		seeds = append(seeds, t)
	}
	if removedBase == 0 {
		return 0
	}
	over := make(map[store.Triple]struct{})
	queue := make([]store.Triple, 0, len(seeds))
	for _, t := range seeds {
		if _, ok := over[t]; !ok {
			over[t] = struct{}{}
			queue = append(queue, t)
		}
	}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		for ri := range m.rules {
			r := &m.rules[ri]
			for pos := 0; pos < 2; pos++ {
				forEachInstantiation(m.st, r, pos, t, &m.sc, func(c store.Triple) {
					if _, dead := over[c]; dead {
						return
					}
					if m.base.Contains(c) || !m.st.Contains(c) {
						return
					}
					over[c] = struct{}{}
					queue = append(queue, c)
				})
			}
		}
	}
	for t := range over {
		m.st.Remove(t)
	}
	m.overdeleted = len(over)
	var redelta []store.Triple
	for t := range over {
		if m.derivableOneStep(t) {
			m.st.Add(t)
			m.rederived++
			redelta = append(redelta, t)
		}
	}
	m.seminaive(redelta)
	return removedBase
}

// derivableOneStep reports whether some rule instantiation over the current
// store concludes t.
func (m *generic) derivableOneStep(t store.Triple) bool {
	for ri := range m.rules {
		r := &m.rules[ri]
		m.sc.grow(r.NVars)
		b, b2, b3 := m.sc.b, m.sc.b2, m.sc.b3
		if !matchPattern(r.Conclusion, t, b) {
			continue
		}
		found := false
		p0 := instantiate(r.Premises[0], b)
		m.st.ForEachMatch(p0, func(u store.Triple) bool {
			copy(b2, b)
			if !matchPattern(r.Premises[0], u, b2) {
				return true
			}
			p1 := instantiate(r.Premises[1], b2)
			m.st.ForEachMatch(p1, func(v store.Triple) bool {
				copy(b3, b2)
				if matchPattern(r.Premises[1], v, b3) && instantiate(r.Conclusion, b3) == t {
					found = true
					return false
				}
				return true
			})
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
