package reason

import (
	"repro/internal/schema"
	"repro/internal/store"
)

// Materialization is a saturated RDF graph with enough bookkeeping to
// maintain the saturation under updates: the store holds G∞ = base ∪
// derived, and the base store records which triples were explicitly asserted
// (the "G" of the paper). The rules are applied through the closed schema
// of the base (schema.Extract, see the package doc), which is the only copy
// of the schema the materialization keeps, so maintenance needs no joins: an
// insertion adds the new triples' consequences, a deletion checks the
// support of the triples the deleted ones entailed, and a schema update
// re-extracts the closed schema, diffs it against the old one once
// (Schema.Minus) and visits only the triples whose consequences that diff
// changes. All of it holds on cyclic subClassOf/subPropertyOf schemas too.
//
// Both stores support O(1) copy-on-write snapshots, which is what lets the
// persistence layer checkpoint a live materialization (base G and saturated
// G∞ together, at a mutation-batch boundary) without stalling the writer.
type Materialization struct {
	st    *store.Store
	base  *store.TripleSet
	rules []Rule
	sch   *schema.Schema
	// buf is reused for the consequences and candidates of one operation.
	buf []store.Triple

	// Stats accumulates counters for the most recent operation.
	Stats Stats
}

// Stats reports work done by a saturation or maintenance operation.
type Stats struct {
	// Derived is the number of triples added to G∞ that are not base
	// triples of the operation.
	Derived int
	// Checked is the number of support checks a deletion made, one per
	// candidate triple still in G∞ when its turn came.
	Checked int
	// Retracted is the number of triples a deletion removed from G∞.
	Retracted int
}

// Materialize saturates the triples of g under the rules and returns the
// resulting materialization. The input store is not modified. rules must be
// RDFSRules of some vocabulary, the only rule set the package implements;
// Materialize panics on any other.
//
// G∞ is built once: G, the schema closure and every base triple's
// consequences go into one slice, which store.Build sorts, deduplicates and
// turns into the three indexes bottom-up. The base set is g's SPO index,
// shared under copy-on-write (store.Store.CloneSet).
func Materialize(g *store.Store, rules []Rule) *Materialization {
	sch := schema.Extract(g, vocabOf(rules))
	closure := sch.ClosureTriples()
	// Saturating G is the schema change from the empty schema: every
	// closure triple carries the base triples it applies to.
	ch := group(closure, sch.Vocab())
	ts := make([]store.Triple, 0, g.Len()+len(closure)+ch.consequenceCount(g))
	g.ForEachMatch(store.Triple{}, func(t store.Triple) bool {
		ts = append(ts, t)
		return true
	})
	ts = append(ts, closure...)
	ts = ch.affected(ts, g)
	st := store.Build(ts)
	return &Materialization{
		st:    st,
		base:  g.CloneSet(),
		rules: rules,
		sch:   sch,
		Stats: Stats{Derived: st.Len() - g.Len()},
	}
}

// add adds a derived triple to G∞, counting it if it is new.
func (m *Materialization) add(t store.Triple) {
	if m.st.Add(t) {
		m.Stats.Derived++
	}
}

// Restore rebuilds a materialization from a previously saturated state
// without re-running saturation: base is the set of asserted triples G,
// saturated is its closure G∞ under the same rules (typically both just
// loaded from a snapshot — the snapshot codec guarantees integrity, this
// constructor trusts the pair). It takes ownership of both containers. The
// closed schema is extracted from the constraint triples of saturated, which
// are already closed.
func Restore(base *store.TripleSet, saturated *store.Store, rules []Rule) *Materialization {
	return &Materialization{
		st:    saturated,
		base:  base,
		rules: rules,
		sch:   schema.Extract(saturated, vocabOf(rules)),
	}
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

// Clone returns an independently maintainable copy in O(1): clones of both
// stores, which share every node with the receiver's under copy-on-write
// (see store.Store.Clone), and the immutable closed schema. Like the
// stores' Clone, it must be serialized with the receiver's updates.
func (m *Materialization) Clone() *Materialization {
	return &Materialization{
		st:    m.st.Clone(),
		base:  m.base.Clone(),
		rules: m.rules,
		sch:   m.sch,
	}
}

// Insert adds base triples and maintains the saturation: each new triple's
// consequences are added, and a new constraint triple re-extracts the closed
// schema, adds the closure triples new.Minus(old) and what they carry the
// existing triples to (insertion maintenance is the cheap direction, as the
// paper notes). It returns the number of base triples that were actually
// new.
func (m *Materialization) Insert(ts ...store.Triple) int {
	m.Stats = Stats{}
	added, schemaChanged := 0, false
	fresh := m.buf[:0]
	for _, t := range ts {
		if !m.base.Add(t) {
			continue
		}
		added++
		if !m.st.Add(t) {
			continue // already entailed, and so are its consequences
		}
		if m.sch.Vocab().IsConstraintProperty(t.P) {
			schemaChanged = true
		} else {
			fresh = append(fresh, t)
		}
	}
	n := len(fresh)
	if schemaChanged {
		old := m.sch
		m.recompile()
		gained := m.sch.Minus(old)
		for _, t := range gained {
			m.add(t)
		}
		fresh = group(gained, m.sch.Vocab()).affected(fresh, m.st)
	}
	for i := 0; i < n; i++ {
		fresh = appendConsequences(m.sch, fresh, fresh[i])
	}
	for _, t := range fresh[n:] {
		m.add(t)
	}
	m.buf = fresh[:0]
	return added
}

// Delete removes base triples and maintains the saturation. The candidates
// are the deleted triples and their consequences, plus, when a constraint
// triple goes, what the lost closure triples old.Minus(new) carried the
// stored triples to. Each candidate stays if it is still supported one step
// back (see supported) — the non-type candidates first, so the rdf:type ones
// are checked against settled domain and range evidence. It returns the
// number of base triples actually removed.
func (m *Materialization) Delete(ts ...store.Triple) int {
	m.Stats = Stats{}
	removed, schemaChanged := 0, false
	cands := m.buf[:0]
	for _, t := range ts {
		if !m.base.Remove(t) {
			continue
		}
		removed++
		if m.sch.Vocab().IsConstraintProperty(t.P) {
			schemaChanged = true
			continue
		}
		cands = append(cands, t)
		cands = appendConsequences(m.sch, cands, t)
	}
	var gone []store.Triple
	if schemaChanged {
		old := m.sch
		m.recompile()
		gone = old.Minus(m.sch)
		cands = group(gone, m.sch.Vocab()).affected(cands, m.st)
	}
	typ := m.sch.Vocab().Type
	for pass := 0; pass < 2; pass++ {
		for _, t := range cands {
			if (t.P == typ) != (pass == 1) || !m.st.Contains(t) {
				continue
			}
			m.Stats.Checked++
			if !supported(m.sch, t, m.base, m.st) {
				m.st.Remove(t)
				m.Stats.Retracted++
			}
		}
	}
	for _, t := range gone {
		if m.st.Remove(t) {
			m.Stats.Retracted++
		}
	}
	m.buf = cands[:0]
	return removed
}

// recompile re-extracts the closed schema from the base's constraint
// triples. Those are all in the store, among the previous closure's triples,
// so the store enumerates them and the base set filters out the derived ones.
func (m *Materialization) recompile() {
	m.sch = schema.Extract(baseSource{m.st, m.base}, m.sch.Vocab())
}

// baseSource reads the triples of st that are in base.
type baseSource struct {
	st   *store.Store
	base *store.TripleSet
}

func (b baseSource) ForEachMatch(pat store.Triple, fn func(store.Triple) bool) {
	b.st.ForEachMatch(pat, func(t store.Triple) bool {
		return !b.base.Contains(t) || fn(t)
	})
}
