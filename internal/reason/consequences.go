package reason

import (
	"repro/internal/dict"
	"repro/internal/schema"
	"repro/internal/store"
)

// appendConsequences appends to out every triple t entails in one step under
// the closed schema sch, t itself excluded; with the schema closed that is
// every triple t entails. A cyclic hierarchy makes a class its own
// superclass (and a property its own super-property); that self-loop
// entails t itself and is skipped. Constraint triples entail nothing here:
// their consequences are the schema closure itself.
//
//webreason:hotpath
func appendConsequences(sch *schema.Schema, out []store.Triple, t store.Triple) []store.Triple {
	typ := sch.Vocab().Type
	if t.P == typ {
		for _, k := range sch.SuperClasses(t.O) {
			if k != t.O {
				out = append(out, store.Triple{S: t.S, P: typ, O: k})
			}
		}
		return out
	}
	for _, q := range sch.SuperProperties(t.P) {
		if q != t.P {
			out = append(out, store.Triple{S: t.S, P: q, O: t.O})
		}
	}
	for _, k := range sch.Domains(t.P) {
		out = append(out, store.Triple{S: t.S, P: typ, O: k})
	}
	for _, k := range sch.Ranges(t.P) {
		out = append(out, store.Triple{S: t.O, P: typ, O: k})
	}
	return out
}

// supported reports whether t, a non-constraint triple, is entailed by the
// base triples under sch, looking one step back: t is asserted, or a base
// triple about the same subject (or, for a range, with t's subject as its
// object) entails it. It asks the base set for asserted triples of the same
// shape, and st for the triples whose domain or range makes t a type: for
// those the caller guarantees that every triple of st other than an rdf:type
// one is already exactly what the base entails.
//
//webreason:hotpath
func supported(sch *schema.Schema, t store.Triple, base *store.TripleSet, st *store.Store) bool {
	if base.Contains(t) {
		return true
	}
	if t.P != sch.Vocab().Type {
		for _, q := range sch.SubProperties(t.P) {
			if base.Contains(store.Triple{S: t.S, P: q, O: t.O}) {
				return true
			}
		}
		return false
	}
	for _, k := range sch.SubClasses(t.O) {
		if base.Contains(store.Triple{S: t.S, P: t.P, O: k}) {
			return true
		}
	}
	for _, p := range sch.PropertiesWithDomain(t.O) {
		if st.Count(store.Triple{S: t.S, P: p}) > 0 {
			return true
		}
	}
	for _, p := range sch.PropertiesWithRange(t.O) {
		if st.Count(store.Triple{P: p, O: t.S}) > 0 {
			return true
		}
	}
	return false
}

// change is a set of closed-schema triples grouped by the instance triples
// they carry to new ones: per property p, its super-properties, domains and
// ranges; per class, its superclasses. Grouping the closure added or removed
// by a schema update gives the consequences the update adds or takes away;
// grouping the whole closure gives saturation's.
type change struct {
	voc     schema.Vocab
	props   map[dict.ID]consequences
	classes map[dict.ID][]dict.ID
}

// consequences is what a triple (s p o) entails through one group of
// closed-schema triples: (s p' o) for each super-property p', (s rdf:type c)
// for each domain c and (o rdf:type c) for each range c.
type consequences struct {
	supers, domains, ranges []dict.ID
}

// group groups closed-schema triples ts, sorted as Schema.Minus returns
// them, leaving out the self-loops of cyclic hierarchies. The lists share
// one backing array.
func group(ts []store.Triple, voc schema.Vocab) change {
	ch := change{voc: voc, props: map[dict.ID]consequences{}, classes: map[dict.ID][]dict.ID{}}
	ids := make([]dict.ID, 0, len(ts))
	for i := 0; i < len(ts); {
		s, p := ts[i].S, ts[i].P
		hierarchy := p == voc.SubClassOf || p == voc.SubPropertyOf
		start := len(ids)
		for ; i < len(ts) && ts[i].S == s && ts[i].P == p; i++ {
			if o := ts[i].O; o != s || !hierarchy {
				ids = append(ids, o)
			}
		}
		run := ids[start:len(ids):len(ids)]
		if len(run) == 0 {
			continue
		}
		if p == voc.SubClassOf {
			ch.classes[s] = run
			continue
		}
		cons := ch.props[s]
		switch p {
		case voc.SubPropertyOf:
			cons.supers = run
		case voc.Domain:
			cons.domains = run
		default:
			cons.ranges = run
		}
		ch.props[s] = cons
	}
	return ch
}

// consequenceCount returns how many triples affected appends for the
// triples of g, duplicates included: per property, its triple count times
// the length of its lists, and per class, its instance count times the
// length of its superclass list.
func (ch change) consequenceCount(g *store.Store) int {
	n := 0
	for p, cons := range ch.props {
		n += g.Count(store.Triple{P: p}) * (len(cons.supers) + len(cons.domains) + len(cons.ranges))
	}
	for k, sup := range ch.classes {
		n += g.Count(store.Triple{P: ch.voc.Type, O: k}) * len(sup)
	}
	return n
}

// affected appends to out, for every entry of ch, the triple it carries each
// matching triple of st to: the leaf-level work of a schema update. Added
// entries yield the triples to add, removed ones the triples whose support
// to check.
func (ch change) affected(out []store.Triple, st *store.Store) []store.Triple {
	typ := ch.voc.Type
	for p, cons := range ch.props {
		st.ForEachMatch(store.Triple{P: p}, func(t store.Triple) bool {
			for _, q := range cons.supers {
				out = append(out, store.Triple{S: t.S, P: q, O: t.O})
			}
			for _, k := range cons.domains {
				out = append(out, store.Triple{S: t.S, P: typ, O: k})
			}
			for _, k := range cons.ranges {
				out = append(out, store.Triple{S: t.O, P: typ, O: k})
			}
			return true
		})
	}
	for k, sup := range ch.classes {
		st.ForEachMatch(store.Triple{P: typ, O: k}, func(t store.Triple) bool {
			for _, c := range sup {
				out = append(out, store.Triple{S: t.S, P: typ, O: c})
			}
			return true
		})
	}
	return out
}
