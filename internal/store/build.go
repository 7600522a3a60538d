package store

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/dict"
)

// The bulk builder: every whole-graph build — a load, a saturation, a
// decode — makes its indexes here in one pass each, bottom-up, instead of
// inserting triple by triple. Build sorts the triples once into each access
// order, cuts every leaf and side-table set of two or more IDs as an
// exact-size run from one ID arena, and builds each hash trie by
// partitioning its entries on their 6-bit hash chunks, which yields exactly
// the trie that inserting the same keys one by one yields (a chunk holds an
// entry when one key of the node's keys falls into it, a child when two or
// more do, whatever the insertion order). Nodes, child arrays and runs are
// carved from per-build arenas, and each node's entry array is a sub-slice
// of the one array of the trie's entries, capped at its length: nothing a
// later write grows can spill into a neighbour. A build's arenas are live
// as long as any of its structures is, which is at most one whole version
// per build, however many copy-on-write epochs follow.
//
// The three indexes are built at once, each on its own goroutine with its
// own arenas and trieBuilder, from its own sorted slice; mix64 is pure, so
// the builds share nothing they write. The SPO slice is sorted first; while
// one goroutine builds SPO from it, the caller rotates it into OSP order in
// the sorter's second buffer and OSP into POS order in a third: the first
// buffer holds the SPO slice, which its build is still reading. A second
// goroutine builds POS, the caller OSP, and the Store is assembled from the
// three results once all are done. With one processor the same goroutines
// run one after another.

// Build returns a store holding the triples of ts, duplicates counted once.
// It reorders ts, which the caller must not use afterwards. Like Add, it
// panics on a triple with a wildcard (dict.None) component. It builds the
// three indexes concurrently and returns when all three are done.
func Build(ts []Triple) *Store {
	var so sorter
	spo := so.sortSPO(ts)
	spoIx, posIx := make(chan index, 1), make(chan index, 1)
	go func() { spoIx <- buildIndex(spo) }()
	osp := so.rotate()
	so.next = make([]Triple, len(osp))
	pos := so.rotate()
	go func() { posIx <- buildIndex(pos) }()
	ospIx := buildIndex(osp)
	return &Store{tables: tables{size: len(spo), spo: <-spoIx, pos: <-posIx, osp: ospIx}}
}

// sorter puts triples into the three access orders with counting sorts. It
// holds each triple as (a,b,c) in the S, P, O fields: rotate moves every
// triple from an (a,b,c)-sorted slice to a (c,a,b)-sorted one, written
// rotated, with one stable counting pass on c. Three rotations of an
// unsorted slice are a least-significant-digit radix sort into SPO order,
// and from SPO two more give OSP, then POS.
type sorter struct {
	cur, next []Triple
	// counts is the counting array, one slot per ID; nil when the IDs are
	// too sparse for one, and rotate compares whole triples instead.
	counts []int
}

// sortSPO takes ownership of ts, sorts it into SPO order without duplicates
// and returns it.
func (so *sorter) sortSPO(ts []Triple) []Triple {
	maxID := dict.None
	for _, t := range ts {
		if t.S == dict.None || t.P == dict.None || t.O == dict.None {
			panic("store: Build of triple with wildcard (None) component")
		}
		maxID = max(maxID, t.S, t.P, t.O)
	}
	so.cur, so.next = ts, make([]Triple, len(ts))
	if uint64(maxID) <= 4*uint64(len(ts))+1024 {
		so.counts = make([]int, maxID+1)
		so.rotate()
		so.rotate()
		so.rotate()
	} else {
		slices.SortFunc(so.cur, Compare)
	}
	so.cur = slices.Compact(so.cur)
	so.next = so.next[:len(so.cur)]
	return so.cur
}

// rotate reorders the current slice from (a,b,c) order into (c,a,b) order
// and returns it.
func (so *sorter) rotate() []Triple {
	src, dst := so.cur, so.next
	if so.counts == nil {
		for i, t := range src {
			dst[i] = Triple{t.O, t.S, t.P}
		}
		slices.SortFunc(dst, Compare)
	} else {
		counts := so.counts
		clear(counts)
		for _, t := range src {
			counts[t.O]++
		}
		sum := 0
		for id, n := range counts {
			counts[id] = sum
			sum += n
		}
		for _, t := range src {
			dst[counts[t.O]] = Triple{t.O, t.S, t.P}
			counts[t.O]++
		}
	}
	so.cur, so.next = dst, src
	return dst
}

// Compare orders triples by S, then P, then O: the SPO index's order.
func Compare(x, y Triple) int {
	if c := cmp.Compare(x.S, y.S); c != 0 {
		return c
	}
	if c := cmp.Compare(x.P, y.P); c != 0 {
		return c
	}
	return cmp.Compare(x.O, y.O)
}

// runArena cuts exact-size postings runs from one ID array and their
// headers from one postings array, both sized up front by the caller.
type runArena struct {
	ids  []dict.ID
	runs []postings
}

func newRunArena(nIDs, nRuns int) runArena {
	return runArena{ids: make([]dict.ID, 0, nIDs), runs: make([]postings, 0, nRuns)}
}

// cut returns a run of the IDs appended to ar.ids since from.
func (ar *runArena) cut(from int) *postings {
	ar.runs = append(ar.runs, postings{ids: ar.ids[from:len(ar.ids):len(ar.ids)]})
	return &ar.runs[len(ar.runs)-1]
}

// buildIndex builds an index from triples sorted and deduplicated in its
// own (a,b,c) order, held in the S, P, O fields.
func buildIndex(tr []Triple) index {
	// First pass: the sizes of every array the second pass fills.
	nLeaves, nA, nIDs, nRuns := 0, 0, 0, 0
	for i := 0; i < len(tr); {
		a, nB := tr[i].S, 0
		for i < len(tr) && tr[i].S == a {
			j := leafEnd(tr, i)
			if j-i > 1 {
				nIDs += j - i
				nRuns++
			}
			nB++
			i = j
		}
		if nB > 1 {
			nIDs += nB
			nRuns++
		}
		nLeaves += nB
		nA++
	}
	ls := make([]hent[leaf], 0, nLeaves)
	as := make([]hent[aSub], 0, nA)
	ar := newRunArena(nIDs, nRuns)
	for i := 0; i < len(tr); {
		a, first := tr[i].S, len(ls)
		for i < len(tr) && tr[i].S == a {
			j := leafEnd(tr, i)
			l := leaf{one: tr[i].O}
			if j-i > 1 {
				from := len(ar.ids)
				for _, t := range tr[i:j] {
					ar.ids = append(ar.ids, t.O)
				}
				l = leaf{run: ar.cut(from)}
			}
			ls = append(ls, hent[leaf]{k: pack(a, tr[i].P), v: l})
			i = j
		}
		count := int32(0)
		for _, e := range ls[first:] {
			count += int32(e.v.size())
		}
		e := aSub{count: count, one: dict.ID(ls[first].k)}
		if len(ls)-first > 1 {
			from := len(ar.ids)
			for _, l := range ls[first:] {
				ar.ids = append(ar.ids, dict.ID(l.k))
			}
			e = aSub{count: count, sub: ar.cut(from)}
		}
		as = append(as, hent[aSub]{k: uint64(a), v: e})
	}
	return index{ls: buildTrie(ls), as: buildTrie(as)}
}

// leafEnd returns the end of the run of triples from i on that share its
// (a,b).
func leafEnd(tr []Triple, i int) int {
	j := i + 1
	for j < len(tr) && tr[j].S == tr[i].S && tr[j].P == tr[i].P {
		j++
	}
	return j
}

// trieBuilder carves the nodes and child arrays of one trie from chunked
// arenas. The entries need none: they are the entry array the trie is built
// from.
type trieBuilder[V any] struct {
	nodes []hnode[V]
	kids  []*hnode[V]
}

// node returns a fresh epoch-0 node.
func (b *trieBuilder[V]) node() *hnode[V] {
	if len(b.nodes) == cap(b.nodes) {
		b.nodes = make([]hnode[V], 0, min(1024, max(16, 2*cap(b.nodes))))
	}
	b.nodes = append(b.nodes, hnode[V]{})
	return &b.nodes[len(b.nodes)-1]
}

// kidSlots returns n child slots, capped at n.
func (b *trieBuilder[V]) kidSlots(n int) []*hnode[V] {
	if n == 0 {
		return nil
	}
	if len(b.kids)+n > cap(b.kids) {
		b.kids = make([]*hnode[V], 0, max(n, min(4096, max(64, 2*cap(b.kids)))))
	}
	off := len(b.kids)
	b.kids = b.kids[:off+n]
	return b.kids[off : off+n : off+n]
}

// buildTrie returns the map holding ents, whose keys must be distinct. It
// takes ownership of ents: the array is reordered in place and becomes the
// entries of the trie's nodes.
func buildTrie[V any](ents []hent[V]) hmap[V] {
	h := hmap[V]{n: int32(len(ents))}
	if len(ents) > 0 {
		var b trieBuilder[V]
		h.root = b.build(ents, 0)
	}
	return h
}

// chunkOf returns the hash chunk of key k at the trie level shift selects.
func chunkOf(k uint64, shift uint) uint32 {
	return uint32(mix64(k)>>shift) & (hWide - 1)
}

// build returns the node holding ents at the level shift selects: the keys
// alone in their chunk are its entries, and each chunk holding more becomes
// a child built from those keys one level down. ents is permuted in place —
// the entries first in chunk order, then each child's keys, children in
// chunk order — with an in-place bucket permutation.
//
//webreason:writer
func (b *trieBuilder[V]) build(ents []hent[V], shift uint) *hnode[V] {
	var seen, dup uint64
	for i := range ents {
		bit := uint64(1) << chunkOf(ents[i].k, shift)
		dup |= seen & bit
		seen |= bit
	}
	entBm, kidBm := seen&^dup, dup
	nEnts := int32(bits.OnesCount64(entBm))
	// Each chunk's target region [next, end): the entries' one slot each,
	// in chunk order, then the children's key ranges in chunk order.
	var next, end [hWide]int32
	for bm, i := entBm, int32(0); bm != 0; bm &= bm - 1 {
		c := bits.TrailingZeros64(bm)
		next[c], end[c] = i, i+1
		i++
	}
	if kidBm != 0 {
		for i := range ents {
			if c := chunkOf(ents[i].k, shift); kidBm&(uint64(1)<<c) != 0 {
				end[c]++
			}
		}
		for bm, off := kidBm, nEnts; bm != 0; bm &= bm - 1 {
			c := bits.TrailingZeros64(bm)
			next[c], end[c] = off, off+end[c]
			off = end[c]
		}
	}
	for bm := seen; bm != 0; bm &= bm - 1 {
		c := bits.TrailingZeros64(bm)
		for next[c] < end[c] {
			d := chunkOf(ents[next[c]].k, shift)
			if d != uint32(c) {
				ents[next[c]], ents[next[d]] = ents[next[d]], ents[next[c]]
			}
			next[d]++
		}
	}
	n := b.node()
	n.entBm, n.kidBm = entBm, kidBm
	if nEnts > 0 {
		n.ents = ents[:nEnts:nEnts]
	}
	n.kids = b.kidSlots(bits.OnesCount64(kidBm))
	for bm, i, off := kidBm, 0, nEnts; bm != 0; bm &= bm - 1 {
		c := bits.TrailingZeros64(bm)
		n.kids[i] = b.build(ents[off:end[c]], shift+hBits)
		i, off = i+1, end[c]
	}
	return n
}
