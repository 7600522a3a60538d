package reason

import (
	"fmt"
	"strings"

	"repro/internal/dict"
	"repro/internal/store"
)

// Derivation is a proof tree for an entailed triple: either a base fact
// (Rule == "", no premises) or the conclusion of a rule applied to two
// explained premises. OWLIM-style "justifications" (Section II-C) reduced
// to their essence.
type Derivation struct {
	Triple   store.Triple
	Rule     string
	Premises []*Derivation
}

// Explain returns a proof tree for t over the current saturation, or nil if
// t is not in the saturated store. Base triples explain themselves. A
// derived instance triple is one step from a base triple (see the package
// doc), so its proof is that base triple and the schema edge that carries
// it to t — rdfs7 for a super-property, rdfs9 for a superclass, rdfs2 and
// rdfs3 for a domain and a range — and the schema edge's own proof is the
// chain of asserted constraints it closes (rdfs5, rdfs11 and the ext-*
// rules).
func (m *Materialization) Explain(t store.Triple) *Derivation {
	if !m.st.Contains(t) {
		return nil
	}
	if m.IsBase(t) {
		return &Derivation{Triple: t}
	}
	voc, sch := m.sch.Vocab(), m.sch
	if voc.IsConstraintProperty(t.P) {
		return m.explainSchema(t)
	}
	step := func(rule string, edge, from store.Triple) *Derivation {
		return &Derivation{Triple: t, Rule: rule, Premises: []*Derivation{m.explainSchema(edge), {Triple: from}}}
	}
	if t.P != voc.Type {
		for _, q := range sch.SubProperties(t.P) {
			if from := (store.Triple{S: t.S, P: q, O: t.O}); m.IsBase(from) {
				return step("rdfs7", store.Triple{S: q, P: voc.SubPropertyOf, O: t.P}, from)
			}
		}
		return nil
	}
	for _, k := range sch.SubClasses(t.O) {
		if from := (store.Triple{S: t.S, P: voc.Type, O: k}); m.IsBase(from) {
			return step("rdfs9", store.Triple{S: k, P: voc.SubClassOf, O: t.O}, from)
		}
	}
	for _, p := range sch.PropertiesWithDomain(t.O) {
		if from, ok := m.baseMatch(store.Triple{S: t.S, P: p}); ok {
			return step("rdfs2", store.Triple{S: p, P: voc.Domain, O: t.O}, from)
		}
	}
	for _, p := range sch.PropertiesWithRange(t.O) {
		if from, ok := m.baseMatch(store.Triple{P: p, O: t.S}); ok {
			return step("rdfs3", store.Triple{S: p, P: voc.Range, O: t.O}, from)
		}
	}
	return nil
}

// baseMatch returns a base triple matching pat.
func (m *Materialization) baseMatch(pat store.Triple) (found store.Triple, ok bool) {
	m.st.ForEachMatch(pat, func(u store.Triple) bool {
		found, ok = u, m.IsBase(u)
		return !ok
	})
	return found, ok
}

// explainSchema proves t, a triple of the closed schema, from asserted
// constraints: a subClassOf or subPropertyOf edge by the shortest chain of
// asserted edges (rdfs11, rdfs5), a domain or range by an asserted one on a
// super-property (ext-*-sp) of a subclass (ext-*-sc).
func (m *Materialization) explainSchema(t store.Triple) *Derivation {
	if m.IsBase(t) {
		return &Derivation{Triple: t}
	}
	voc, sch := m.sch.Vocab(), m.sch
	switch t.P {
	case voc.SubClassOf:
		return m.explainChain(t, "rdfs11")
	case voc.SubPropertyOf:
		return m.explainChain(t, "rdfs5")
	}
	sp, sc := "ext-dom-sp", "ext-dom-sc"
	if t.P == voc.Range {
		sp, sc = "ext-rng-sp", "ext-rng-sc"
	}
	for _, p := range append([]dict.ID{t.S}, sch.SuperProperties(t.S)...) {
		for _, c := range sch.SubClasses(t.O) {
			if from := (store.Triple{S: p, P: t.P, O: c}); c != t.O && m.IsBase(from) {
				d := &Derivation{Triple: store.Triple{S: p, P: t.P, O: t.O}, Rule: sc, Premises: []*Derivation{
					{Triple: from}, m.explainSchema(store.Triple{S: c, P: voc.SubClassOf, O: t.O})}}
				return m.viaSuper(t, p, sp, d)
			}
		}
		if from := (store.Triple{S: p, P: t.P, O: t.O}); p != t.S && m.IsBase(from) {
			return m.viaSuper(t, p, sp, &Derivation{Triple: from})
		}
	}
	return nil
}

// viaSuper proves the domain or range t from d, the same constraint on p, a
// super-property of t's subject (or that subject itself).
func (m *Materialization) viaSuper(t store.Triple, p dict.ID, rule string, d *Derivation) *Derivation {
	if p == t.S {
		return d
	}
	edge := m.explainSchema(store.Triple{S: t.S, P: m.sch.Vocab().SubPropertyOf, O: p})
	return &Derivation{Triple: t, Rule: rule, Premises: []*Derivation{edge, d}}
}

// explainChain proves the transitive edge t = (a r b) by the shortest chain
// of asserted r-edges from a to b, one rule application per extra edge.
func (m *Materialization) explainChain(t store.Triple, rule string) *Derivation {
	prev := map[dict.ID]dict.ID{}
	queue := []dict.ID{t.S}
	for len(queue) > 0 && prev[t.O] == dict.None {
		n := queue[0]
		queue = queue[1:]
		m.st.ForEachMatch(store.Triple{S: n, P: t.P}, func(u store.Triple) bool {
			if _, seen := prev[u.O]; !seen && m.IsBase(u) {
				prev[u.O] = n
				queue = append(queue, u.O)
			}
			return true
		})
	}
	if prev[t.O] == dict.None {
		return nil
	}
	var path []dict.ID // b, …, a
	for n := t.O; ; n = prev[n] {
		path = append(path, n)
		if n == t.S && len(path) > 1 {
			break
		}
	}
	d := &Derivation{Triple: store.Triple{S: path[len(path)-1], P: t.P, O: path[len(path)-2]}}
	for i := len(path) - 3; i >= 0; i-- {
		next := store.Triple{S: path[i+1], P: t.P, O: path[i]}
		d = &Derivation{Triple: store.Triple{S: t.S, P: t.P, O: path[i]}, Rule: rule, Premises: []*Derivation{d, {Triple: next}}}
	}
	return d
}

// Format renders the proof tree indented, resolving IDs through d.
func (d *Derivation) Format(dic *dict.Dict) string {
	var b strings.Builder
	d.format(dic, &b, 0)
	return b.String()
}

func (d *Derivation) format(dic *dict.Dict, b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	s, _ := dic.Term(d.Triple.S)
	p, _ := dic.Term(d.Triple.P)
	o, _ := dic.Term(d.Triple.O)
	if d.Rule == "" {
		fmt.Fprintf(b, "%s%s %s %s   [asserted]\n", indent, s, p, o)
		return
	}
	fmt.Fprintf(b, "%s%s %s %s   [%s]\n", indent, s, p, o, d.Rule)
	for _, prem := range d.Premises {
		prem.format(dic, b, depth+1)
	}
}
