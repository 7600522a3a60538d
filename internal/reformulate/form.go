package reformulate

import (
	"cmp"
	"encoding/binary"
	"slices"
	"strconv"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// The ID-level form the rewriter and the minimiser work on. An element of a
// pattern is a uint32:
//
//   - a dictionary ID, below unknownTag;
//   - unknownTag|i, the i-th query constant the dictionary does not know (it
//     matches nothing, and expands to nothing, but stays in its branch);
//   - varTag|i, the i-th variable of the query, in first-occurrence order;
//   - varTag|freshTag|i, the i-th fresh variable the rewriting coined.
//
// So constants sort before variables and the query's variables before the
// fresh ones.
const (
	varTag     uint32 = 1 << 31
	freshTag   uint32 = 1 << 30 // with varTag
	unknownTag uint32 = 1 << 30 // without varTag
	numMask           = 1<<30 - 1

	// maxDictLen bounds the dictionary IDs the form can hold.
	maxDictLen = 1 << 30
)

// pattern is an ID-level triple pattern: subject, predicate, object.
type pattern [3]uint32

// binding fixes variable v (an element with varTag) to constant c.
type binding struct{ v, c uint32 }

// branch is one BGP of the union in the ID-level form; fixed is sorted by
// variable. The rewriter never changes either slice once the branch is in
// a union; minimize, which owns the finished union, shortens pats to its
// core.
type branch struct {
	pats  []pattern
	fixed []binding
}

func isVar(e uint32) bool { return e&varTag != 0 }

func isFresh(e uint32) bool { return e&(varTag|freshTag) == varTag|freshTag }

// form is the per-run table between terms and elements: the dictionary, the
// query's variable names and the constants the dictionary does not know.
type form struct {
	d       *dict.Dict
	names   []string
	unknown []rdf.Term
}

// intern returns the element of a query term. Without a dictionary, every
// constant goes to the per-run table.
func (f *form) intern(t rdf.Term) uint32 {
	if t.IsVar() {
		return varTag | index(&f.names, t.Value)
	}
	if f.d != nil {
		if id, ok := f.d.Lookup(t); ok {
			return uint32(id)
		}
	}
	return unknownTag | index(&f.unknown, t)
}

// index returns the position of x in *s, appending it when absent.
func index[T comparable](s *[]T, x T) uint32 {
	i := slices.Index(*s, x)
	if i < 0 {
		i = len(*s)
		*s = append(*s, x)
	}
	return uint32(i)
}

// term returns the term of an element; fresh variables are named _f1, _f2, …
func (f *form) term(e uint32) rdf.Term {
	switch {
	case isFresh(e):
		return rdf.NewVar("_f" + strconv.Itoa(int(e&numMask)+1))
	case isVar(e):
		return rdf.NewVar(f.names[e&numMask])
	case e&unknownTag != 0:
		return f.unknown[e&numMask]
	}
	return f.d.MustTerm(dict.ID(e))
}

// render builds the term-level Branch of br.
func (f *form) render(br branch) Branch {
	out := Branch{Patterns: make([]rdf.Triple, len(br.pats))}
	for i, p := range br.pats {
		out.Patterns[i] = rdf.T(f.term(p[0]), f.term(p[1]), f.term(p[2]))
	}
	if len(br.fixed) > 0 {
		out.Fixed = make(map[string]rdf.Term, len(br.fixed))
		for _, b := range br.fixed {
			out.Fixed[f.term(b.v).Value] = f.term(b.c)
		}
	}
	return out
}

// dedupe drops exact duplicate patterns, keeping first occurrences, in place.
func dedupe(ps []pattern) []pattern {
	out := ps[:0]
	for _, p := range ps {
		if !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

func comparePatterns(a, b pattern) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	if c := cmp.Compare(a[1], b[1]); c != 0 {
		return c
	}
	return cmp.Compare(a[2], b[2])
}

// appendKey appends the dedup key of a branch to key: its pattern count,
// its patterns sorted with the fresh variables renumbered in order of
// appearance, and its fixed bindings, so branches that differ only in the
// order of their patterns or the numbering of their fresh variables
// deduplicate. sorted is scratch, returned for reuse.
func appendKey(key []byte, sorted, pats []pattern, fixed []binding) ([]byte, []pattern) {
	sorted = append(sorted[:0], pats...)
	slices.SortFunc(sorted, comparePatterns)
	key = binary.LittleEndian.AppendUint32(key, uint32(len(sorted)))
	var buf [16]uint32
	renamed := buf[:0]
	for _, p := range sorted {
		for _, e := range p {
			if isFresh(e) {
				i := slices.Index(renamed, e)
				if i < 0 {
					i = len(renamed)
					renamed = append(renamed, e)
				}
				e = varTag | freshTag | uint32(i)
			}
			key = binary.LittleEndian.AppendUint32(key, e)
		}
	}
	for _, b := range fixed {
		key = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(key, b.v), b.c)
	}
	return key, sorted
}
