package reason

import (
	"cmp"
	"math/bits"
	"slices"

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

// superCount returns how many triples appendSupers appends for the triples
// of st: per property, its triple count times the length of its
// super-property list.
func (ch change) superCount(st *store.Store) int {
	n := 0
	for p, cons := range ch.props {
		if len(cons.supers) > 0 {
			n += st.Count(store.Triple{P: p}) * len(cons.supers)
		}
	}
	return n
}

// loss is what one class c stopped typing in a schema deletion: the
// instances of the classes in subs (c is no longer their superclass), the
// subjects of the properties in domainOf and the objects of those in
// rangeOf. Their (s rdf:type c) triples are the candidates whose support a
// deletion decides set at a time (see Materialization.decide).
type loss struct {
	class                   dict.ID
	subs, domainOf, rangeOf []dict.ID
}

// losses moves the rdf:type half of ch into one loss per class it names,
// leaving ch with the super-properties only, and returns them ordered so
// that a class comes after its strict subclasses under sch: most
// superclasses first, then by ID.
func (ch change) losses(sch *schema.Schema) []loss {
	at := map[dict.ID]int{}
	var out []loss
	of := func(c dict.ID) *loss {
		i, ok := at[c]
		if !ok {
			i = len(out)
			at[c] = i
			out = append(out, loss{class: c})
		}
		return &out[i]
	}
	for k, sup := range ch.classes {
		for _, c := range sup {
			l := of(c)
			l.subs = append(l.subs, k)
		}
		delete(ch.classes, k)
	}
	for p, cons := range ch.props {
		for _, c := range cons.domains {
			l := of(c)
			l.domainOf = append(l.domainOf, p)
		}
		for _, c := range cons.ranges {
			l := of(c)
			l.rangeOf = append(l.rangeOf, p)
		}
		if cons.supers == nil {
			delete(ch.props, p)
		} else {
			ch.props[p] = consequences{supers: cons.supers}
		}
	}
	slices.SortFunc(out, func(a, b loss) int {
		return cmp.Or(cmp.Compare(len(sch.SuperClasses(b.class)), len(sch.SuperClasses(a.class))), cmp.Compare(a.class, b.class))
	})
	return out
}

// affected appends to out, for every entry of ch, the triple it carries each
// matching triple of st to: the leaf-level work of a schema update. Added
// entries yield the triples to add, removed ones the triples whose support
// to check. Each rdf:type triple is appended once, however many triples of
// st carry to it (see types); a super-property one, once per source.
func (ch change) affected(out []store.Triple, st *store.Store) []store.Triple {
	out = ch.appendSupers(out, st)
	return ch.types(st).appendTo(out, ch.voc.Type)
}

// appendSupers appends to out (s q o) for every triple (s p o) of st and
// every super-property q that ch gives p.
func (ch change) appendSupers(out []store.Triple, st *store.Store) []store.Triple {
	for p, cons := range ch.props {
		if len(cons.supers) == 0 {
			continue
		}
		st.ForEachMatch(store.Triple{P: p}, func(t store.Triple) bool {
			for _, q := range cons.supers {
				out = append(out, store.Triple{S: t.S, P: q, O: t.O})
			}
			return true
		})
	}
	return out
}

// types returns the rdf:type triples ch carries the triples of st to, each
// once: the subject of every triple of a property with a domain c and the
// object of one with a range c typed c, and every instance of a class typed
// by each of its superclasses. It fetches a class's set once per property
// or subclass that types into it, never once per triple.
func (ch change) types(st *store.Store) typeSets {
	sets := typeSets{}
	var doms, rans, sups []*idBits
	for p, cons := range ch.props {
		if len(cons.domains)+len(cons.ranges) == 0 {
			continue
		}
		doms, rans = sets.of(doms[:0], cons.domains), sets.of(rans[:0], cons.ranges)
		st.ForEachMatch(store.Triple{P: p}, func(t store.Triple) bool {
			for _, b := range doms {
				b.set(t.S)
			}
			for _, b := range rans {
				b.set(t.O)
			}
			return true
		})
	}
	for k, sup := range ch.classes {
		subjects, _ := st.SortedIDs(store.Triple{P: ch.voc.Type, O: k})
		if len(subjects) == 0 {
			continue
		}
		sups = sets.of(sups[:0], sup)
		for _, b := range sups {
			for _, s := range subjects {
				b.set(s)
			}
		}
	}
	return sets
}

// typeSets is a set of rdf:type triples: per class c, the set of subjects s
// of its (s rdf:type c) triples.
type typeSets map[dict.ID]*idBits

// of appends to dst the sets of the classes cs, making the missing ones.
func (ts typeSets) of(dst []*idBits, cs []dict.ID) []*idBits {
	for _, c := range cs {
		b := ts[c]
		if b == nil {
			b = &idBits{}
			ts[c] = b
		}
		dst = append(dst, b)
	}
	return dst
}

// len returns the number of triples in ts.
func (ts typeSets) len() int {
	n := 0
	for _, b := range ts {
		for _, w := range b.w {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// appendTo appends the triples of ts to out, typ the rdf:type ID.
func (ts typeSets) appendTo(out []store.Triple, typ dict.ID) []store.Triple {
	for c, b := range ts {
		for i, w := range b.w {
			for ; w != 0; w &= w - 1 {
				out = append(out, store.Triple{S: dict.ID(i<<6 | bits.TrailingZeros64(w)), P: typ, O: c})
			}
		}
	}
	return out
}

// idBits is a set of IDs, one bit per ID up to the largest one set.
type idBits struct{ w []uint64 }

// set adds id to b, growing b to hold it.
func (b *idBits) set(id dict.ID) {
	i := int(id >> 6)
	if i >= len(b.w) {
		b.w = append(b.w, make([]uint64, i+1-len(b.w))...)
	}
	b.w[i] |= 1 << (id & 63)
}
