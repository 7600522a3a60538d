package reason

import (
	"repro/internal/store"
)

// Materialization is a saturated RDF graph with enough bookkeeping to
// maintain the saturation under updates: the store holds G∞ = base ∪
// derived, and the base store records which triples were explicitly asserted
// (the "G" of the paper). Deletion maintenance uses DRed
// (delete-and-rederive), which is sound for the recursive RDFS rules,
// cyclic subClassOf/subPropertyOf schemas included.
//
// Both stores support O(1) copy-on-write snapshots, which is what lets the
// persistence layer checkpoint a live materialization (base G and saturated
// G∞ together, at a mutation-batch boundary) without stalling the writer.
type Materialization struct {
	st    *store.Store
	base  *store.TripleSet
	rules []Rule
	sc    scratch // reusable binding buffers for the join hot path

	// Stats accumulates counters for the most recent operation.
	Stats Stats
}

// Stats reports work done by a saturation or maintenance operation.
type Stats struct {
	// Rounds is the number of semi-naive iterations.
	Rounds int
	// Derived is the number of triples added by rules (not base).
	Derived int
	// Overdeleted is the number of triples removed during DRed overdeletion.
	Overdeleted int
	// Rederived is the number of overdeleted triples put back.
	Rederived int
}

// Materialize saturates the triples of g under the rules and returns the
// resulting materialization. The input store is not modified.
func Materialize(g *store.Store, rules []Rule) *Materialization {
	m := &Materialization{
		st:    store.New(),
		base:  store.NewTripleSet(),
		rules: rules,
	}
	delta := make([]store.Triple, 0, g.Len())
	g.ForEachMatch(store.Triple{}, func(t store.Triple) bool {
		m.base.Add(t)
		m.st.Add(t)
		delta = append(delta, t)
		return true
	})
	m.Stats = Stats{}
	m.seminaive(delta)
	return m
}

// Restore rebuilds a materialization from a previously saturated state
// without re-running saturation: base is the set of asserted triples G,
// saturated is its closure G∞ under the same rules (typically both just
// loaded from a snapshot — the snapshot codec guarantees integrity, this
// constructor trusts the pair). It takes ownership of both containers.
func Restore(base *store.TripleSet, saturated *store.Store, rules []Rule) *Materialization {
	return &Materialization{st: saturated, base: base, rules: rules}
}

// Store exposes the saturated store (G∞). Callers must not mutate it
// directly; use Insert/Delete so the materialization stays consistent.
func (m *Materialization) Store() *store.Store { return m.st }

// BaseSet exposes the set of explicitly asserted triples (G). Callers must
// not mutate it directly; use Insert/Delete. Like the store, it supports
// O(1) snapshots for checkpointing.
func (m *Materialization) BaseSet() *store.TripleSet { return m.base }

// IsBase reports whether t was explicitly asserted.
func (m *Materialization) IsBase(t store.Triple) bool { return m.base.Contains(t) }

// BaseLen returns |G| and DerivedLen returns |G∞| − |G|.
func (m *Materialization) BaseLen() int    { return m.base.Len() }
func (m *Materialization) DerivedLen() int { return m.st.Len() - m.base.Len() }

// Rules returns the rule set the materialization maintains.
func (m *Materialization) Rules() []Rule { return m.rules }

// Clone returns an independent copy (used by benchmarks to restore state
// between destructive runs).
func (m *Materialization) Clone() *Materialization {
	return &Materialization{
		st:    m.st.Clone(),
		base:  m.base.Clone(),
		rules: m.rules,
	}
}

// forEachInstantiation enumerates, for a triple t playing premise position
// pos of rule r, every rule instantiation against partner triples currently
// in st; fn receives each instantiated conclusion.
// The binding vectors come from sc, so the call allocates nothing at steady
// state; fn must not re-enter forEachInstantiation with the same scratch.
//
// Instantiations are buffered and fn runs only after the store enumeration
// has finished: the store forbids mutation during ForEachMatch, and the
// seminaive callback Adds conclusions (which may land in the very
// postings leaf being iterated). Conclusions added by fn therefore never
// join the current enumeration — the semi-naive outer loop picks them up as
// the next delta.
//
//webreason:hotpath
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
// premise position against the full current store. Duplicates are absorbed
// by the store's set semantics.
func (m *Materialization) seminaive(delta []store.Triple) {
	for len(delta) > 0 {
		m.Stats.Rounds++
		var next []store.Triple
		for _, t := range delta {
			for ri := range m.rules {
				r := &m.rules[ri]
				for pos := 0; pos < 2; pos++ {
					forEachInstantiation(m.st, r, pos, t, &m.sc, func(c store.Triple) {
						if m.st.Add(c) {
							m.Stats.Derived++
							next = append(next, c)
						}
					})
				}
			}
		}
		delta = next
	}
}

// Insert adds base triples and incrementally maintains the saturation by
// semi-naive propagation from the new triples (insertion maintenance is the
// cheap direction, as the paper notes; deletions are the hard part).
// It returns the number of base triples that were actually new.
func (m *Materialization) Insert(ts ...store.Triple) int {
	m.Stats = Stats{}
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

// Delete removes base triples and maintains the saturation with DRed:
// (1) overdelete everything transitively derived using a deleted triple,
// (2) re-derive whatever is still entailed by the remaining graph.
// It returns the number of base triples actually removed.
func (m *Materialization) Delete(ts ...store.Triple) int {
	m.Stats = Stats{}
	// Phase 0: retract base facts.
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

	// Phase 1: overdeletion. Compute the set of triples whose derivations
	// may involve a deleted triple, joining against the still-intact store
	// so every instantiation that existed before the deletion is seen.
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
					if m.base.Contains(c) {
						return // still explicitly asserted: keep
					}
					if !m.st.Contains(c) {
						return
					}
					over[c] = struct{}{}
					queue = append(queue, c)
				})
			}
		}
	}

	// Physically remove the overdeleted triples.
	for t := range over {
		m.st.Remove(t)
	}
	m.Stats.Overdeleted = len(over)

	// Phase 2: re-derivation. An overdeleted triple survives if some rule
	// instantiation over the remaining store still concludes it; re-derived
	// triples then propagate semi-naively (they may resurrect others).
	var redelta []store.Triple
	for t := range over {
		if m.derivableOneStep(t) {
			m.st.Add(t)
			m.Stats.Rederived++
			redelta = append(redelta, t)
		}
	}
	m.seminaive(redelta)
	return removedBase
}

// derivableOneStep reports whether some rule instantiation over the current
// store concludes t. It shares the materialization's scratch buffers (it is
// never nested inside forEachInstantiation).
func (m *Materialization) derivableOneStep(t store.Triple) bool {
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

// Saturate is a convenience wrapper: it returns a new store holding the
// closure of g under rules, plus saturation stats.
func Saturate(g *store.Store, rules []Rule) (*store.Store, Stats) {
	m := Materialize(g, rules)
	return m.st, m.Stats
}
