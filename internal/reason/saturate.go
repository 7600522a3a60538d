package reason

import (
	"slices"

	"repro/internal/dict"
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
// changes. A schema deletion decides the rdf:type triples of each class the
// diff names set at a time: one sorted run of candidates, struck by merging
// it against G∞'s sorted runs of settled evidence (see Delete). All of it
// holds on cyclic subClassOf/subPropertyOf schemas too.
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
	// Checked is the number of candidates a deletion decided: each
	// distinct candidate triple still in G∞ when its turn came, once,
	// whether its support was found by a probe or in a merge of sorted
	// runs. For a class a schema deletion names, the candidates may be
	// its whole rdf:type run.
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
// consequences go into one slice (see saturationInput), which store.Build
// sorts, deduplicates and turns into the three indexes bottom-up. The base
// set is g's SPO index, shared under copy-on-write (store.Store.CloneSet).
func Materialize(g *store.Store, rules []Rule) *Materialization {
	sch := schema.Extract(g, vocabOf(rules))
	st := store.Build(saturationInput(g, sch))
	return &Materialization{
		st:    st,
		base:  g.CloneSet(),
		rules: rules,
		sch:   sch,
		Stats: Stats{Derived: st.Len() - g.Len()},
	}
}

// saturationInput returns the triples G∞ is built from: g's own, the
// closure of sch, which is g's closed schema, and what that closure carries
// g's triples to — saturating G is the schema change from the empty schema.
// Each rdf:type consequence comes once, so a derived type repeats at most an
// asserted one; a super-property consequence comes once per source. The
// rdf:type consequences are collected first, so that the slice is allocated
// at its exact length.
func saturationInput(g *store.Store, sch *schema.Schema) []store.Triple {
	closure := sch.ClosureTriples()
	ch := group(closure, sch.Vocab())
	types := ch.types(g)
	ts := make([]store.Triple, 0, g.Len()+len(closure)+ch.superCount(g)+types.len())
	g.ForEachMatch(store.Triple{}, func(t store.Triple) bool {
		ts = append(ts, t)
		return true
	})
	ts = append(ts, closure...)
	ts = ch.appendSupers(ts, g)
	return types.appendTo(ts, sch.Vocab().Type)
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
// stored triples to. Each distinct candidate still in G∞ is decided once:
// it stays if it is still supported one step back (see supported). The
// non-type candidates go first, triple by triple, so that every rdf:type
// decision reads settled domain and range evidence; then the rdf:type
// candidates of the classes the schema diff does not name, triple by
// triple; last, for each class c the diff does name, its rdf:type
// candidates set at a time (see decide). It returns the number of base
// triples actually removed.
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
	var lost []loss
	if schemaChanged {
		old := m.sch
		m.recompile()
		gone = old.Minus(m.sch)
		ch := group(gone, m.sch.Vocab())
		lost = ch.losses(m.sch)
		cands = ch.affected(cands, m.st)
	}
	// kept holds the candidates decided to stay, so that a repeat of one is
	// not decided again; a repeat of a retracted one is no longer in G∞.
	var kept map[store.Triple]bool
	typ := m.sch.Vocab().Type
	for pass := 0; pass < 2; pass++ {
		for _, t := range cands {
			if (t.P == typ) != (pass == 1) || !m.st.Contains(t) || kept[t] || pass == 1 && named(lost, t.O) {
				continue
			}
			m.Stats.Checked++
			if supported(m.sch, t, m.base, m.st) {
				if kept == nil {
					kept = map[store.Triple]bool{}
				}
				kept[t] = true
				continue
			}
			m.st.Remove(t)
			m.Stats.Retracted++
		}
	}
	for i := range lost {
		m.decide(lost, i, cands)
	}
	for _, t := range gone {
		if m.st.Remove(t) {
			m.Stats.Retracted++
		}
	}
	m.buf = cands[:0]
	return removed
}

// named reports whether one of lost is c's.
func named(lost []loss, c dict.ID) bool {
	for _, l := range lost {
		if l.class == c {
			return true
		}
	}
	return false
}

// has reports whether the ascending ids hold x.
func has(ids []dict.ID, x dict.ID) bool {
	_, ok := slices.BinarySearch(ids, x)
	return ok
}

// probeCost is how many steps of a sorted-run walk one store probe is
// worth, the exchange rate by which decide picks between walking a
// property's runs and probing its candidates one by one.
const probeCost = 2

// decide decides every (s rdf:type c) candidate of lost[i], c its class,
// set at a time. Its candidate run is one ascending, deduplicated set of
// subjects: the whole type(c) run of G∞, or, when the lost sources hold
// fewer triples than that run, the subjects they type as c, with those of
// the rdf:type candidates of c among cands, kept where still in G∞. Any
// superset of the true candidates does, because support decides. It
// strikes the candidates that still have support by merging the run
// against settled evidence: type(k) for each subclass k of c, the (p, o)
// runs of each property p with domain c and the objects of each property
// with range c. Domain and range evidence is settled, because the non-type
// candidates are decided before any rdf:type one. type(k) is settled when k
// is no class of lost[i:]: the classes of lost[:i] are decided already, and
// the rest of the type triples were decided triple by triple or never lost
// support. A cycle can make a class of lost[i:] a subclass of c; its
// type(k) is skipped. The residue left unstruck goes through supported.
func (m *Materialization) decide(lost []loss, i int, cands []store.Triple) {
	l, typ := lost[i], m.sch.Vocab().Type
	all, _ := m.st.SortedIDs(store.Triple{P: typ, O: l.class})
	if len(all) == 0 {
		return
	}
	var left []dict.ID
	if m.lossSize(l, cands) < len(all) {
		left = m.lossSubjects(l, cands)
		left = store.IntersectSorted(nil, left, all)
	} else {
		left = slices.Clone(all)
	}
	m.Stats.Checked += len(left)
	struck := make([]bool, len(left))
	// Of the settled subclasses, only those below no other settled one are
	// read: in settled G∞, k ⊑ k' makes type(k) a subset of type(k').
	subs := m.sch.SubClasses(l.class)
	settled := func(k dict.ID) bool { return has(subs, k) && !named(lost[i:], k) }
	for _, k := range subs {
		if len(left) == 0 {
			return
		}
		if !settled(k) || slices.ContainsFunc(m.sch.SuperClasses(k), func(sup dict.ID) bool {
			return settled(sup) && !has(m.sch.SuperClasses(sup), k)
		}) {
			continue
		}
		run, _ := m.st.SortedIDs(store.Triple{P: typ, O: k})
		strike(left, struck, run)
		left = compact(left, struck)
	}
	for _, by := range [2]struct {
		props  []dict.ID
		domain bool
	}{{m.sch.PropertiesWithDomain(l.class), true}, {m.sch.PropertiesWithRange(l.class), false}} {
		for _, p := range by.props {
			if len(left) == 0 {
				return
			}
			switch {
			case m.st.Count(store.Triple{P: p}) > probeCost*len(left):
				for j, s := range left {
					pat := store.Triple{P: p, O: s}
					if by.domain {
						pat = store.Triple{S: s, P: p}
					}
					struck[j] = m.st.Count(pat) > 0
				}
			case by.domain:
				n := 0
				for _, o := range m.st.Objects(p) {
					run, _ := m.st.SortedIDs(store.Triple{P: p, O: o})
					if n += strike(left, struck, run); n == len(left) {
						break
					}
				}
			default:
				strike(left, struck, m.st.Objects(p))
			}
			left = compact(left, struck)
		}
	}
	for _, s := range left {
		t := store.Triple{S: s, P: typ, O: l.class}
		if !supported(m.sch, t, m.base, m.st) {
			m.st.Remove(t)
			m.Stats.Retracted++
		}
	}
}

// lossSize is an upper bound on the number of subjects lossSubjects returns:
// the triples of l's lost sources, read from the store's counters, plus
// the candidates of cands.
func (m *Materialization) lossSize(l loss, cands []store.Triple) int {
	n := len(cands)
	for _, k := range l.subs {
		n += m.st.Count(store.Triple{P: m.sch.Vocab().Type, O: k})
	}
	for _, p := range l.domainOf {
		n += m.st.Count(store.Triple{P: p})
	}
	for _, p := range l.rangeOf {
		n += m.st.Count(store.Triple{P: p})
	}
	return n
}

// lossSubjects returns, ascending and deduplicated, every subject l's lost
// sources type as its class, with the subjects of the candidates of cands
// that type one.
func (m *Materialization) lossSubjects(l loss, cands []store.Triple) []dict.ID {
	typ := m.sch.Vocab().Type
	var ids []dict.ID
	for _, t := range cands {
		if t.P == typ && t.O == l.class {
			ids = append(ids, t.S)
		}
	}
	for _, k := range l.subs {
		run, _ := m.st.SortedIDs(store.Triple{P: typ, O: k})
		ids = append(ids, run...)
	}
	for _, p := range l.domainOf {
		m.st.ForEachMatch(store.Triple{P: p}, func(t store.Triple) bool {
			ids = append(ids, t.S)
			return true
		})
	}
	for _, p := range l.rangeOf {
		ids = append(ids, m.st.Objects(p)...)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// strike marks in struck each candidate of left, ascending, that the
// ascending run holds, and returns how many it newly marked. Like
// store.IntersectSorted, it merges inputs of similar length linearly and
// otherwise walks the shorter one, galloping through the longer.
//
//webreason:hotpath
func strike(left []dict.ID, struck []bool, run []dict.ID) int {
	n := 0
	mark := func(j int) {
		if !struck[j] {
			struck[j] = true
			n++
		}
	}
	switch {
	case len(left) >= 16*len(run):
		c := store.NewCursor(left)
		for _, x := range run {
			if c.SeekGE(x); !c.Valid() {
				break
			}
			if c.ID() == x {
				mark(c.Pos())
				c.Next()
			}
		}
	case len(run) >= 16*len(left):
		c := store.NewCursor(run)
		for j, x := range left {
			if c.SeekGE(x); !c.Valid() {
				break
			}
			if c.ID() == x {
				mark(j)
				c.Next()
			}
		}
	default:
		for j, k := 0, 0; j < len(left) && k < len(run); {
			switch {
			case left[j] < run[k]:
				j++
			case left[j] > run[k]:
				k++
			default:
				mark(j)
				j, k = j+1, k+1
			}
		}
	}
	return n
}

// compact drops the struck candidates from left, clearing their marks, and
// returns the rest.
func compact(left []dict.ID, struck []bool) []dict.ID {
	out := left[:0]
	for j, s := range left {
		if !struck[j] {
			out = append(out, s)
		}
		struck[j] = false
	}
	return out
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
