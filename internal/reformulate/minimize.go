package reformulate

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/rdf"
)

// Minimize shrinks the union without changing its answers, in two steps.
// First it reduces every branch to its core: an atom that holds a fresh
// variable goes when the branch maps homomorphically into the branch without
// it, fixing constants and the query's named variables, since the two then
// have the same answers (Chandra and Merlin). Then it prunes union members
// subsumed by another member: branch B is redundant if some other branch A
// maps homomorphically into B while fixing the query's named variables,
// because every answer B produces over any graph, A produces too. [12]
// stresses computing *minimal* reformulations for exactly this reason —
// redundant atoms and members cost evaluation time without adding answers.
// Both steps rely on the union's answers being a set, which they are: its
// evaluation deduplicates over the projection.
//
// Minimize interns the terms of the branches into the ID-level form the
// rewriter minimises in (variables named _f… are the fresh ones, free to
// map) and runs the same minimiser. It returns a new UCQ; the receiver is
// unchanged. A kept branch keeps its atoms in their order, and of a set of
// mutually equivalent branches, the earliest is kept. The new union knows
// no product its branches form, so Prepare gives each branch its own plan.
func (u *UCQ) Minimize() *UCQ {
	var f form // no dictionary: every constant goes to the per-run table
	var fresh []string
	elem := func(t rdf.Term) uint32 {
		if t.IsVar() && strings.HasPrefix(t.Value, "_f") {
			return varTag | freshTag | index(&fresh, t.Value)
		}
		return f.intern(t)
	}
	brs := make([]branch, len(u.Branches))
	for i, b := range u.Branches {
		br := branch{pats: make([]pattern, len(b.Patterns))}
		for k, p := range b.Patterns {
			br.pats[k] = pattern{elem(p.S), elem(p.P), elem(p.O)}
		}
		for v, t := range b.Fixed {
			br.fixed = append(br.fixed, binding{elem(rdf.NewVar(v)), elem(t)})
		}
		slices.SortFunc(br.fixed, func(a, b binding) int { return cmp.Compare(a.v, b.v) })
		brs[i] = br
	}
	out := &UCQ{Query: u.Query, VocabDependent: u.VocabDependent}
	for _, i := range minimize(brs, len(fresh)) {
		b, core := u.Branches[i], brs[i].pats
		if len(core) < len(b.Patterns) {
			// The core is a subsequence of the branch's atoms.
			pats := make([]rdf.Triple, 0, len(core))
			for _, p := range b.Patterns {
				if len(pats) < len(core) && (pattern{elem(p.S), elem(p.P), elem(p.O)}) == core[len(pats)] {
					pats = append(pats, p)
				}
			}
			b.Patterns = pats
		}
		out.Branches = append(out.Branches, b)
	}
	return out
}

// minimize reduces each branch of brs to its core, in place, and returns,
// ascending, the indexes of the branches no other branch subsumes (of
// mutually subsuming ones, the earliest); fresh bounds the number of every
// fresh variable in them. No element of brs is 0. minimize owns brs: it
// shortens the pattern slices of branches whose cores are smaller.
//
// Containment of conjunctive queries is NP-hard in general, but the pairs
// that reach the homomorphism search are few and small: a pair is rejected
// first unless the two branches fix the same bindings and the constants
// and named variables of the subsuming one (its signature, sorted, with a
// 64-bit summary of it checked first) are a subset of the other's, since a
// homomorphism maps each of them to itself. A core's search is per atom
// that holds a fresh variable, with that atom mapped first, so it fails at
// once unless some other atom of the branch can be its image.
func minimize(brs []branch, fresh int) []int {
	h := homomorphism{assign: make([]uint32, fresh)}
	sigs := make([]signature, len(brs))
	n := 0
	for i := range brs {
		brs[i].pats = h.core(brs[i].pats)
		n += 3 * len(brs[i].pats)
	}
	elems := make([]uint32, 0, n)
	for i := range brs {
		sigs[i], elems = newSignature(brs[i].pats, elems)
	}
	subsumes := func(a, b int) bool {
		return sigs[a].within(sigs[b]) && slices.Equal(brs[a].fixed, brs[b].fixed) && h.maps(brs[a].pats, brs[b].pats)
	}
	var keep []int
	for i := range brs {
		redundant := false
		for j := range brs {
			// j maps into i. If they are mutually subsuming (equivalent),
			// drop only the later one.
			if j != i && subsumes(j, i) && (j < i || !subsumes(i, j)) {
				redundant = true
				break
			}
		}
		if !redundant {
			keep = append(keep, i)
		}
	}
	return keep
}

// core drops, in order, each atom of pats that holds a fresh variable and
// that the rest of the branch implies: the branch maps into the branch
// without it. One pass suffices: an atom the branch cannot drop, no
// retract of the branch can drop either. The search runs in pats' own
// array, the atom tried moved to the front, so it allocates nothing, and
// the kept atoms stay in their order.
func (h *homomorphism) core(pats []pattern) []pattern {
	for i := 0; i < len(pats) && len(pats) > 1; {
		p := pats[i]
		if !isFresh(p[0]) && !isFresh(p[1]) && !isFresh(p[2]) {
			i++
			continue
		}
		copy(pats[1:i+1], pats[:i])
		pats[0] = p
		if h.maps(pats, pats[1:]) {
			pats = pats[1:]
			continue
		}
		copy(pats[:i], pats[1:i+1])
		pats[i] = p
		i++
	}
	return pats
}

// signature is the sorted set of the elements of a branch a homomorphism
// must map to themselves (constants and named variables), and a 64-bit
// summary of it: one bit per element, by hash.
type signature struct {
	elems []uint32
	bits  uint64
}

// newSignature returns the signature of pats, its elements appended to buf,
// and buf past them.
func newSignature(pats []pattern, buf []uint32) (signature, []uint32) {
	var s signature
	n := len(buf)
	for _, p := range pats {
		for _, e := range p {
			if !isFresh(e) {
				buf = append(buf, e)
				s.bits |= 1 << (e * 0x9E3779B1 >> 26)
			}
		}
	}
	slices.Sort(buf[n:])
	s.elems = slices.Compact(buf[n:])
	return s, buf[:n+len(s.elems)]
}

// within reports whether every element of s is in t.
func (s signature) within(t signature) bool {
	if s.bits&^t.bits != 0 {
		return false
	}
	b := t.elems
	for _, e := range s.elems {
		for len(b) > 0 && b[0] < e {
			b = b[1:]
		}
		if len(b) == 0 || b[0] != e {
			return false
		}
		b = b[1:]
	}
	return true
}

// homomorphism is the search state of a subsumption or core check: the
// image of each fresh variable of the mapped branch (0: none yet) and the
// undo stack of the variables assigned.
type homomorphism struct {
	assign []uint32
	undo   []uint32
}

// maps reports whether a homomorphism from a's patterns into b's patterns
// exists that is the identity on constants and on the query's named
// variables, with a's fresh variables free to map to any element of b.
// Identity on all named variables (not just projected ones) keeps the check
// sound for any downstream use of the bindings.
func (h *homomorphism) maps(a, b []pattern) bool {
	ok := h.match(a, b)
	for _, v := range h.undo {
		h.assign[v] = 0
	}
	h.undo = h.undo[:0]
	return ok
}

func (h *homomorphism) match(a, b []pattern) bool {
	if len(a) == 0 {
		return true
	}
	p := a[0]
	for _, c := range b {
		mark := len(h.undo)
		if h.bind(p[0], c[0]) && h.bind(p[1], c[1]) && h.bind(p[2], c[2]) && h.match(a[1:], b) {
			return true
		}
		for _, v := range h.undo[mark:] {
			h.assign[v] = 0
		}
		h.undo = h.undo[:mark]
	}
	return false
}

// bind maps element x of the subsuming branch to element y of the other.
func (h *homomorphism) bind(x, y uint32) bool {
	if !isFresh(x) {
		return x == y
	}
	v := x & numMask
	if bound := h.assign[v]; bound != 0 {
		return bound == y
	}
	h.assign[v] = y
	h.undo = append(h.undo, v)
	return true
}
