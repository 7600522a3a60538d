// Package schema extracts the RDFS ontology (the constraint triples of the
// paper's Figure 1, bottom) from a store and computes its closure: the
// transitive closure of rdfs:subClassOf and rdfs:subPropertyOf, and the
// propagation of rdfs:domain/rdfs:range constraints through both hierarchies.
//
// Both query reformulation and backward-chaining evaluation assume a closed
// schema (as does the EDBT'13 work the paper's Figure 3 comes from): schema
// graphs are small relative to instance data, so closing them is cheap and
// makes every single-step expansion rule complete.
package schema

import (
	"slices"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Vocab holds the dictionary IDs of the RDF/RDFS vocabulary terms the
// reasoning machinery keys on. Encoding them once up front keeps hot paths
// free of dictionary lookups.
type Vocab struct {
	Type          dict.ID
	SubClassOf    dict.ID
	SubPropertyOf dict.ID
	Domain        dict.ID
	Range         dict.ID
}

// NewVocab encodes the vocabulary in d (assigning IDs if necessary).
func NewVocab(d *dict.Dict) Vocab {
	return Vocab{
		Type:          d.Encode(rdf.Type),
		SubClassOf:    d.Encode(rdf.SubClassOf),
		SubPropertyOf: d.Encode(rdf.SubPropertyOf),
		Domain:        d.Encode(rdf.Domain),
		Range:         d.Encode(rdf.Range),
	}
}

// IsConstraintProperty reports whether p is one of the four RDFS constraint
// properties.
func (v Vocab) IsConstraintProperty(p dict.ID) bool {
	return p == v.SubClassOf || p == v.SubPropertyOf || p == v.Domain || p == v.Range
}

// relation is a closed binary relation frozen for reading: every key's
// related IDs as one ascending slice, built once by Extract. Accessors hand
// the slices out as they are, so reads sort and allocate nothing; callers
// must not modify them (each slice's capacity equals its length, so an
// append copies instead of writing into the schema).
type relation map[dict.ID][]dict.ID

// pairs returns the number of related pairs.
func (r relation) pairs() int {
	n := 0
	for _, ids := range r {
		n += len(ids)
	}
	return n
}

// Schema is the closed RDFS ontology of a graph. All relations are strict
// (they never contain c ⊑ c unless the input contains a cycle through c).
// A Schema is immutable once Extract returns it, and the slices its
// accessors return are its own: read them, never modify them.
type Schema struct {
	voc Vocab

	subClass  relation // class -> strict superclasses (closed)
	superOf   relation // class -> strict subclasses (closed, inverse)
	subProp   relation // property -> strict superproperties (closed)
	subPropOf relation // property -> strict subproperties (closed, inverse)
	domain    relation // property -> domain classes (closed)
	rng       relation // property -> range classes (closed)
	domOf     relation // class -> properties with that domain (closed, inverse)
	rngOf     relation // class -> properties with that range (closed, inverse)

	classes    []dict.ID // every ID that occurs in class position of a constraint
	properties []dict.ID // every ID that occurs in property position of a constraint
}

// TripleSource is the read capability Extract needs; *store.Store and its
// snapshots satisfy it, as does saturation's view of the asserted triples
// among its stored ones.
type TripleSource interface {
	ForEachMatch(pat store.Triple, fn func(store.Triple) bool)
}

// Extract builds the closed schema from the constraint triples in st.
// Schemas are small, so it numbers their IDs densely and closes the
// relations over slices indexed by that number; only the frozen result is
// keyed by dict.ID.
func Extract(st TripleSource, voc Vocab) *Schema {
	index := map[dict.ID]int32{}
	var ids []dict.ID
	var isClass, isProp []bool
	number := func(id dict.ID, class bool) int32 {
		i, ok := index[id]
		if !ok {
			i = int32(len(ids))
			index[id] = i
			ids = append(ids, id)
			isClass, isProp = append(isClass, false), append(isProp, false)
		}
		if class {
			isClass[i] = true
		} else {
			isProp[i] = true
		}
		return i
	}
	// edges holds the asserted subClassOf, subPropertyOf, domain and range
	// pairs, in that order.
	var edges [4][][2]int32
	for k, p := range [4]dict.ID{voc.SubClassOf, voc.SubPropertyOf, voc.Domain, voc.Range} {
		st.ForEachMatch(store.Triple{P: p}, func(t store.Triple) bool {
			edges[k] = append(edges[k], [2]int32{number(t.S, k == 0), number(t.O, k != 1)})
			return true
		})
	}
	n := len(ids)
	out := func(es [][2]int32) [][]int32 {
		adj := make([][]int32, n)
		for _, e := range es {
			adj[e[0]] = append(adj[e[0]], e[1])
		}
		return adj
	}
	// seen[v] == mark records that v is already collected for the node the
	// current pass works on; each pass takes a fresh mark.
	seen, mark := make([]int, n), 0
	var stack []int32
	// closure returns every node's strict transitive closure under adj: the
	// nodes one or more steps away, itself only through a cycle.
	closure := func(adj [][]int32) [][]int32 {
		reach := make([][]int32, n)
		for u := range adj {
			if len(adj[u]) == 0 {
				continue
			}
			mark++
			stack = append(stack[:0], int32(u))
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, w := range adj[v] {
					if seen[w] != mark {
						seen[w] = mark
						reach[u] = append(reach[u], w)
						stack = append(stack, w)
					}
				}
			}
		}
		return reach
	}
	superClass, superProp := closure(out(edges[0])), closure(out(edges[1]))
	// propagate closes domain (or range) constraints: through
	// superproperties downwards (p ⊑ p', p' domain c ⇒ p domain c) and
	// through superclasses upwards (p domain c, c ⊑ c' ⇒ p domain c').
	collect := func(cs, from []int32) []int32 {
		for _, c := range from {
			if seen[c] != mark {
				seen[c] = mark
				cs = append(cs, c)
			}
		}
		return cs
	}
	propagate := func(adj [][]int32) [][]int32 {
		closed := make([][]int32, n)
		for p := range closed {
			mark++
			cs := collect(nil, adj[p])
			for _, q := range superProp[p] {
				cs = collect(cs, adj[q])
			}
			for i := 0; i < len(cs); i++ {
				cs = collect(cs, superClass[cs[i]])
			}
			closed[p] = cs
		}
		return closed
	}
	domain, rng := propagate(out(edges[2])), propagate(out(edges[3]))
	invert := func(rel [][]int32) [][]int32 {
		inv := make([][]int32, n)
		for u, vs := range rel {
			for _, v := range vs {
				inv[v] = append(inv[v], int32(u))
			}
		}
		return inv
	}
	// freeze keys rel by dict.ID, each list sorted and carved from one
	// backing array with its capacity capped at its length.
	freeze := func(rel [][]int32) relation {
		total, keys := 0, 0
		for _, vs := range rel {
			if len(vs) > 0 {
				total, keys = total+len(vs), keys+1
			}
		}
		r := make(relation, keys)
		backing := make([]dict.ID, total)
		for u, vs := range rel {
			if len(vs) == 0 {
				continue
			}
			list := backing[:len(vs):len(vs)]
			backing = backing[len(vs):]
			for i, v := range vs {
				list[i] = ids[v]
			}
			slices.Sort(list)
			r[ids[u]] = list
		}
		return r
	}
	members := func(in []bool) []dict.ID {
		var out []dict.ID
		for i, ok := range in {
			if ok {
				out = append(out, ids[i])
			}
		}
		slices.Sort(out)
		return slices.Clip(out)
	}
	return &Schema{
		voc:      voc,
		subClass: freeze(superClass), superOf: freeze(invert(superClass)),
		subProp: freeze(superProp), subPropOf: freeze(invert(superProp)),
		domain: freeze(domain), domOf: freeze(invert(domain)),
		rng: freeze(rng), rngOf: freeze(invert(rng)),
		classes:    members(isClass),
		properties: members(isProp),
	}
}

// Vocab returns the vocabulary IDs the schema was built with.
func (s *Schema) Vocab() Vocab { return s.voc }

// SubClasses returns the strict subclasses of c, sorted.
func (s *Schema) SubClasses(c dict.ID) []dict.ID { return s.superOf[c] }

// SuperClasses returns the strict superclasses of c, sorted.
func (s *Schema) SuperClasses(c dict.ID) []dict.ID { return s.subClass[c] }

// SubProperties returns the strict subproperties of p, sorted.
func (s *Schema) SubProperties(p dict.ID) []dict.ID { return s.subPropOf[p] }

// SuperProperties returns the strict superproperties of p, sorted.
func (s *Schema) SuperProperties(p dict.ID) []dict.ID { return s.subProp[p] }

// Domains returns the (closed) domain classes of property p, sorted.
func (s *Schema) Domains(p dict.ID) []dict.ID { return s.domain[p] }

// Ranges returns the (closed) range classes of property p, sorted.
func (s *Schema) Ranges(p dict.ID) []dict.ID { return s.rng[p] }

// PropertiesWithDomain returns properties whose closed domain includes c.
func (s *Schema) PropertiesWithDomain(c dict.ID) []dict.ID { return s.domOf[c] }

// PropertiesWithRange returns properties whose closed range includes c.
func (s *Schema) PropertiesWithRange(c dict.ID) []dict.ID { return s.rngOf[c] }

// Minus returns the triples of s's closure that o's closure lacks, sorted
// by subject, property and object: what a schema update adds to the closed
// schema (s the new version) or removes from it (s the old one). It is the
// one schema diff; against the empty schema it is the whole closure.
func (s *Schema) Minus(o *Schema) []store.Triple {
	var out []store.Triple
	for _, r := range [...]struct {
		p    dict.ID
		a, b relation
	}{
		{s.voc.SubClassOf, s.subClass, o.subClass},
		{s.voc.SubPropertyOf, s.subProp, o.subProp},
		{s.voc.Domain, s.domain, o.domain},
		{s.voc.Range, s.rng, o.rng},
	} {
		for k, ids := range r.a {
			others := r.b[k]
			for _, x := range ids {
				if _, ok := slices.BinarySearch(others, x); !ok {
					out = append(out, store.Triple{S: k, P: r.p, O: x})
				}
			}
		}
	}
	slices.SortFunc(out, store.Compare)
	return out
}

// Classes returns every ID used as a class in some constraint, sorted.
func (s *Schema) Classes() []dict.ID { return s.classes }

// Properties returns every ID used as a property in some constraint, sorted.
func (s *Schema) Properties() []dict.ID { return s.properties }

// Size returns the number of (closed) constraint pairs, a measure of the
// ontology's size used in reports.
func (s *Schema) Size() int {
	return s.subClass.pairs() + s.subProp.pairs() + s.domain.pairs() + s.rng.pairs()
}

// ClosureTriples returns the closed schema as encoded triples (including the
// input constraints), sorted: the Minus of the empty schema. Saturation seeds
// the store with these so the saturated graph contains the schema closure,
// as the RDFS rules require.
func (s *Schema) ClosureTriples() []store.Triple { return s.Minus(&Schema{voc: s.voc}) }
