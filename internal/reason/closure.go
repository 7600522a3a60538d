package reason

import (
	"repro/internal/dict"
	"repro/internal/schema"
	"repro/internal/store"
)

// closure is RDFSRules compiled against one version of the closed schema:
// for every property and every class, the consequences one of its triples
// has in G∞. It is immutable, and rebuilt whole when the schema changes.
type closure struct {
	voc schema.Vocab
	sch *schema.Schema
	// props holds the consequence lists of every property that has any.
	props map[dict.ID]*consequences
	// classes holds every class's strict superclasses (itself left out, as
	// a cycle puts it there), for the classes that have any.
	classes map[dict.ID][]dict.ID
}

// consequences is what a triple (s p o) entails, for one property p: (s p' o)
// for each super-property p', (s rdf:type c) for each domain c and
// (o rdf:type c) for each range c, all closed. Each list is ascending.
type consequences struct {
	supers, domains, ranges []dict.ID
}

// compile builds the closure of sch.
func compile(sch *schema.Schema) *closure {
	c := &closure{
		voc:     sch.Vocab(),
		sch:     sch,
		props:   map[dict.ID]*consequences{},
		classes: map[dict.ID][]dict.ID{},
	}
	for _, p := range sch.Properties() {
		cons := &consequences{supers: without(sch.SuperProperties(p), p), domains: sch.Domains(p), ranges: sch.Ranges(p)}
		if len(cons.supers)+len(cons.domains)+len(cons.ranges) > 0 {
			c.props[p] = cons
		}
	}
	for _, k := range sch.Classes() {
		if sup := without(sch.SuperClasses(k), k); len(sup) > 0 {
			c.classes[k] = sup
		}
	}
	return c
}

// without returns ids minus x: ids itself when x is absent (ids is then
// shared, read-only), a copy otherwise.
func without(ids []dict.ID, x dict.ID) []dict.ID {
	for i, id := range ids {
		if id == x {
			return append(ids[:i:i], ids[i+1:]...)
		}
	}
	return ids
}

// appendConsequences appends to out every triple t entails in one step, t
// itself excluded; with the schema closed that is every triple t entails.
// Constraint triples entail nothing here: their consequences are the schema
// closure itself.
//
//webreason:hotpath
func (c *closure) appendConsequences(out []store.Triple, t store.Triple) []store.Triple {
	if t.P == c.voc.Type {
		for _, k := range c.classes[t.O] {
			out = append(out, store.Triple{S: t.S, P: t.P, O: k})
		}
		return out
	}
	cons := c.props[t.P]
	if cons == nil {
		return out
	}
	for _, q := range cons.supers {
		out = append(out, store.Triple{S: t.S, P: q, O: t.O})
	}
	for _, k := range cons.domains {
		out = append(out, store.Triple{S: t.S, P: c.voc.Type, O: k})
	}
	for _, k := range cons.ranges {
		out = append(out, store.Triple{S: t.O, P: c.voc.Type, O: k})
	}
	return out
}

// consequenceCount returns how many triples Materialize appends for the
// base triples of g, duplicates included: per predicate, its triple count
// times the length of its consequence lists, and per class, the length of
// its superclass list times its instance count.
func (c *closure) consequenceCount(g *store.Store) int {
	n := 0
	for p, cons := range c.props {
		n += g.Count(store.Triple{P: p}) * (len(cons.supers) + len(cons.domains) + len(cons.ranges))
	}
	for k, sup := range c.classes {
		n += g.Count(store.Triple{P: c.voc.Type, O: k}) * len(sup)
	}
	return n
}

// supported reports whether t, a non-constraint triple, is entailed by the
// base triples under c, looking one step back: t is asserted, or a base
// triple about the same subject (or, for a range, with t's subject as its
// object) entails it. It asks the base set for asserted triples of the same
// shape, and st for the triples whose domain or range makes t a type: for
// those the caller guarantees that every triple of st other than an rdf:type
// one is already exactly what the base entails.
//
//webreason:hotpath
func (c *closure) supported(t store.Triple, base *store.TripleSet, st *store.Store) bool {
	if base.Contains(t) {
		return true
	}
	if t.P != c.voc.Type {
		for _, q := range c.sch.SubProperties(t.P) {
			if base.Contains(store.Triple{S: t.S, P: q, O: t.O}) {
				return true
			}
		}
		return false
	}
	for _, k := range c.sch.SubClasses(t.O) {
		if base.Contains(store.Triple{S: t.S, P: t.P, O: k}) {
			return true
		}
	}
	for _, p := range c.sch.PropertiesWithDomain(t.O) {
		if st.Count(store.Triple{S: t.S, P: p}) > 0 {
			return true
		}
	}
	for _, p := range c.sch.PropertiesWithRange(t.O) {
		if st.Count(store.Triple{P: p, O: t.S}) > 0 {
			return true
		}
	}
	return false
}

// change is what a schema update does to the closure: per property, the
// consequence-list entries one version has and the other lacks, and the
// same per class.
type change struct {
	props   map[dict.ID]*consequences
	classes map[dict.ID][]dict.ID
}

// diff returns the entries of c's lists missing from d's.
func (c *closure) diff(d *closure) change {
	ch := change{props: map[dict.ID]*consequences{}, classes: map[dict.ID][]dict.ID{}}
	var none consequences
	for p, cons := range c.props {
		other := d.props[p]
		if other == nil {
			other = &none
		}
		delta := &consequences{
			supers:  minus(cons.supers, other.supers),
			domains: minus(cons.domains, other.domains),
			ranges:  minus(cons.ranges, other.ranges),
		}
		if len(delta.supers)+len(delta.domains)+len(delta.ranges) > 0 {
			ch.props[p] = delta
		}
	}
	for k, sup := range c.classes {
		if delta := minus(sup, d.classes[k]); len(delta) > 0 {
			ch.classes[k] = delta
		}
	}
	return ch
}

// minus returns the IDs of ascending a that ascending b lacks.
func minus(a, b []dict.ID) []dict.ID {
	var out []dict.ID
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			out = append(out, x)
		}
	}
	return out
}

// affected appends to out, for every entry of ch, the triple it carries each
// matching triple of st to: the leaf-level work of a schema update. Added
// entries yield the triples to add, removed ones the triples whose support
// to check.
func (ch change) affected(out []store.Triple, st *store.Store, voc schema.Vocab) []store.Triple {
	for p, cons := range ch.props {
		st.ForEachMatch(store.Triple{P: p}, func(t store.Triple) bool {
			for _, q := range cons.supers {
				out = append(out, store.Triple{S: t.S, P: q, O: t.O})
			}
			for _, k := range cons.domains {
				out = append(out, store.Triple{S: t.S, P: voc.Type, O: k})
			}
			for _, k := range cons.ranges {
				out = append(out, store.Triple{S: t.O, P: voc.Type, O: k})
			}
			return true
		})
	}
	for k, sup := range ch.classes {
		st.ForEachMatch(store.Triple{P: voc.Type, O: k}, func(t store.Triple) bool {
			for _, c := range sup {
				out = append(out, store.Triple{S: t.S, P: voc.Type, O: c})
			}
			return true
		})
	}
	return out
}
