// Package store implements the in-memory, dictionary-encoded triple store
// that every reasoning and query-answering component of this repository runs
// against. It plays the role of the "RDF database" in the paper: saturation
// materialises entailed triples into it, reformulation evaluates rewritten
// queries against it untouched.
//
// Triples are (S,P,O) tuples of dict.IDs. Three persistent indexes (SPO,
// POS, OSP) cover all eight triple-pattern shapes. Each index maps the
// packed key (a<<32)|b straight to a leaf of third components through a
// persistent hash-array-mapped trie (see hmap) — one walk per probe, which
// is what the engine's merge joins hammer — and keeps a side table per first
// component a (in a second hmap) holding the set of b values under a and the
// per-a triple count. A leaf, and a side-table set, of one ID is stored by
// value in its trie slot; one of two or more IDs is one strictly ascending
// []dict.ID run (see leaf and postings): membership is a binary search,
// SortedIDs/Postings hand the run — or a one-element view of the slot — out
// as it is, and the binary codec writes and aliases the same bytes (the
// flat-layout idea of RDF-3X-style engines, reduced to the three orders
// pattern matching needs). Most leaves hold one ID, and inline they cost the
// collector nothing beyond the node that holds them.
// The per-a counters make every Count O(lookup) except the fully-unbound
// scan. Leaves enumerate ascending; the order in which an index visits its
// leaves is unspecified (hash order), and the canonical encoder sorts the
// group keys it collects.
//
// # Snapshots
//
// The store separates a single-writer mutation path from immutable read
// epochs: Store.Snapshot returns a point-in-time Snapshot in O(1) — a
// shallow copy of the three index root structs, sharing every trie node
// (inline leaves with it) and postings run. Nodes and runs are stamped with
// the mutation epoch that created them; taking a snapshot freezes the current epoch, and the writer
// path-copies frozen nodes on the way to its first mutation of each path per
// epoch (copy-on-write), mutating in place afterwards. The first write to a
// path in an epoch therefore costs O(depth) node copies plus, when the leaf
// it lands in is a run, one memmove of it (and of the side-table sub set
// when a leaf appears or disappears) — linear in that leaf, never in the
// index, no matter how many snapshots are live; later writes to the same
// leaf in the same epoch are in place. Copies are allocated one by one, so a
// version no snapshot holds any more is garbage. See snapshot.go.
//
// # Builds
//
// A whole store — a load, a saturation, a decoded checkpoint — is not
// inserted triple by triple: Build sorts its triples once into each access
// order and makes every index bottom-up at epoch 0, its nodes, slot arrays
// and runs carved from per-build arenas (see build.go). The three indexes
// are built at once, one goroutine each, every build reading its own sorted
// slice and writing only its own arenas: the SPO build reads the slice the
// sort leaves, while the caller rotates that slice into OSP order in a
// second buffer and OSP into POS order in a third, so that no slice is
// written while a build reads it. A copy is not built
// at all: Clone and CloneSet share the source's current snapshot, and the
// copy-on-write above keeps the two versions apart, so a process holds each
// node once however many writable versions share it.
package store

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/dict"
)

// Triple is a dictionary-encoded RDF triple. In pattern position, dict.None
// (zero) acts as the "any" wildcard.
type Triple struct {
	S, P, O dict.ID
}

// String renders the encoded triple; mainly for debugging and test failure
// messages (IDs, not terms).
func (t Triple) String() string { return fmt.Sprintf("(%d %d %d)", t.S, t.P, t.O) }

// pack builds the packed index key for (a, b).
func pack(a, b dict.ID) uint64 { return uint64(a)<<32 | uint64(b) }

// aSub is the side-table record for one first-component value a within an
// index: the set of second components b under a — held like a leaf, inline
// in one when it is a single ID and as a postings run sub otherwise (see
// leaf) — and the number of triples under a, which makes the single-constant
// Count shapes a single lookup. Records are stored by value in the a-level
// trie, so node ownership covers the record itself; count and one share a
// word, keeping the record at 16 bytes. The sub run follows the usual
// per-structure epoch copy-on-write protocol.
type aSub struct {
	count int32
	one   dict.ID
	sub   *postings
}

// bs returns the b set ascending; like leaf.ids, e must point into the trie
// node.
func (e *aSub) bs() []dict.ID {
	if e.sub != nil {
		return e.sub.ids
	}
	return unsafe.Slice(&e.one, 1)
}

// index is one access order of the store: a persistent hash trie from the
// packed (a,b) key to the leaf of third components, plus the per-a side
// table that drives sorted enumeration and constant-time counts.
type index struct {
	ls hmap[leaf]
	as hmap[aSub]
}

// add is the one insert path. It probes before it writes, so a duplicate
// insert never copies anything, and it walks the leaf trie a second time
// (upsert, which path-copies) only when the slot itself changes or its run
// is frozen; a writer-owned run grows in place. Whole-graph builds do not
// come here: see Build.
func (ix *index) add(a, b, c dict.ID, m *mctx) bool {
	k := pack(a, b)
	switch l := ix.ls.ref(k); {
	case l == nil:
		*ix.ls.upsert(k, m) = leaf{one: c}
		e := ix.as.upsert(uint64(a), m)
		setAdd(&e.one, &e.sub, b, m)
		e.count++
		return true
	case l.contains(c):
		return false
	case l.run != nil && l.run.epoch == m.epoch:
		l.run.add(c)
	default:
		l = ix.ls.upsert(k, m)
		setAdd(&l.one, &l.run, c, m)
	}
	ix.as.upsert(uint64(a), m).count++
	return true
}

// remove deletes (a,b,c), path-copying like add: the leaf trie is written
// only when the slot changes (the leaf goes, re-inlines or leaves its run)
// or the run is frozen, and a record whose last triple goes is deleted
// without being copied first.
func (ix *index) remove(a, b, c dict.ID, m *mctx) bool {
	k := pack(a, b)
	l := ix.ls.ref(k)
	if l == nil || !l.contains(c) {
		return false
	}
	gone := l.run == nil
	switch {
	case gone:
		ix.ls.del(k, m)
	case len(l.run.ids) > 2 && l.run.epoch == m.epoch:
		l.run.remove(c)
	default:
		l = ix.ls.upsert(k, m)
		setRemove(&l.one, &l.run, c, m)
	}
	if ix.as.ref(uint64(a)).count == 1 {
		ix.as.del(uint64(a), m)
		return true
	}
	e := ix.as.upsert(uint64(a), m)
	e.count--
	if gone {
		setRemove(&e.one, &e.sub, b, m)
	}
	return true
}

// leaf returns the slot of the leaf for (a,b), or nil.
func (ix *index) leaf(a, b dict.ID) *leaf { return ix.ls.ref(pack(a, b)) }

// leaves returns the number of leaves in the index.
func (ix *index) leaves() int { return ix.ls.len() }

// forEachTriple enumerates the index by walking the leaf trie directly —
// no per-leaf lookups, no locks. The order is the trie's hash order:
// deterministic for a given index value, but not sorted (the canonical
// encoder drives its own sorted enumeration off the side tables instead).
func (ix *index) forEachTriple(fn func(a, b, c dict.ID) bool) bool {
	return ix.ls.forEach(func(k uint64, l *leaf) bool {
		a, b := dict.ID(k>>32), dict.ID(k)
		for _, c := range l.ids() {
			if !fn(a, b, c) {
				return false
			}
		}
		return true
	})
}

// countUnder returns the number of triples under first component a.
func (ix *index) countUnder(a dict.ID) int {
	if e := ix.as.ref(uint64(a)); e != nil {
		return int(e.count)
	}
	return 0
}

// forEachUnder calls fn(b, c) for every triple under first component a, b
// ascending and c ascending within each b; it stops early if fn returns
// false.
func (ix *index) forEachUnder(a dict.ID, fn func(b, c dict.ID) bool) {
	e := ix.as.ref(uint64(a))
	if e == nil {
		return
	}
	for _, b := range e.bs() {
		for _, c := range ix.leaf(a, b).ids() {
			if !fn(b, c) {
				return
			}
		}
	}
}

// tables is the read side of the store: the three indexes plus the triple
// count. Store embeds it mutably; Snapshot embeds an immutable copy whose
// trie roots are never touched again. All read-only methods are defined here
// so live store and snapshots share one implementation.
type tables struct {
	spo index // (s,p) -> {o}
	pos index // (p,o) -> {s}
	osp index // (o,s) -> {p}

	size int
}

// Store is an in-memory triple store with a single-writer, multi-reader
// concurrency model: mutation methods must be serialized by the caller, and
// concurrent readers must either be quiescent during mutation or read
// through a Snapshot, which is immutable and safe to use while the store
// moves on. Concurrent read-only use of the live store is safe.
type Store struct {
	tables

	// epoch is the current mutation epoch. Trie nodes, entries and leaves
	// stamped with an older epoch are shared with at least one snapshot or
	// clone and must be copied before mutation; structures stamped with the
	// current epoch were made by this store's writer, are private to it and
	// are mutable in place (a clone may stamp its own with the same number).
	epoch uint64
	// shared is set while the tables' trie roots are referenced by the most
	// recent snapshot; the first mutation afterwards advances the epoch and
	// clears it, freezing everything the snapshot can reach.
	shared bool
	// snap caches the snapshot of the current state, so repeated
	// Snapshot() calls between mutations are free.
	snap *Snapshot
	// copied counts copy-on-write node/entry/leaf copies over the store's
	// lifetime; see CopiedNodes.
	copied uint64
}

// New returns an empty store.
func New() *Store { return &Store{} }

// CopiedNodes returns the cumulative number of copy-on-write copies (trie
// nodes, index entries, postings leaves) the store's mutations have paid.
// Each mutation after a snapshot copies at most one path per index — O(trie
// depth) structures, one of them a leaf — never the whole index; the
// structural-sharing property test pins that bound through this counter.
func (s *Store) CopiedNodes() uint64 { return s.copied }

// mut readies the store for mutation: it drops the cached snapshot and, when
// the current state is shared with a live snapshot, advances the epoch so
// every reachable structure is recognised as frozen and copied on first
// touch. O(1).
func (s *Store) mut() {
	s.snap = nil
	if s.shared {
		s.shared = false
		s.epoch++
	}
}

// Add inserts the triple and reports whether it was new.
func (s *Store) Add(t Triple) bool {
	if t.S == dict.None || t.P == dict.None || t.O == dict.None {
		panic("store: Add of triple with wildcard (None) component")
	}
	if s.snap != nil && s.Contains(t) {
		// No-op mutation: the cached snapshot stays exact, skip the epoch roll.
		return false
	}
	s.mut()
	m := mctx{epoch: s.epoch}
	if !s.spo.add(t.S, t.P, t.O, &m) {
		s.copied += m.copied
		return false
	}
	s.pos.add(t.P, t.O, t.S, &m)
	s.osp.add(t.O, t.S, t.P, &m)
	s.size++
	s.copied += m.copied
	return true
}

// Remove deletes the triple and reports whether it was present.
func (s *Store) Remove(t Triple) bool {
	if s.snap != nil && !s.Contains(t) {
		// No-op mutation: the cached snapshot stays exact, skip the epoch roll.
		return false
	}
	s.mut()
	m := mctx{epoch: s.epoch}
	if !s.spo.remove(t.S, t.P, t.O, &m) {
		s.copied += m.copied
		return false
	}
	s.pos.remove(t.P, t.O, t.S, &m)
	s.osp.remove(t.O, t.S, t.P, &m)
	s.size--
	s.copied += m.copied
	return true
}

// Contains reports whether the (fully concrete) triple is in the store.
func (t *tables) Contains(tr Triple) bool {
	l := t.spo.leaf(tr.S, tr.P)
	return l != nil && l.contains(tr.O)
}

// Len returns the number of triples in the store.
func (t *tables) Len() int { return t.size }

// ForEachMatch calls fn for every triple matching the pattern (None
// components are wildcards); iteration stops early if fn returns false.
// The store must not be mutated from inside fn. Iteration order is
// unspecified; full scans are deterministic for a given store state (the
// leaf trie's structural order), which bulk copies and content hashing
// rely on. Ordered access goes through SortedIDs/Postings.
func (t *tables) ForEachMatch(pat Triple, fn func(Triple) bool) {
	bs, bp, bo := pat.S != dict.None, pat.P != dict.None, pat.O != dict.None
	switch {
	case bs && bp && bo:
		if t.Contains(pat) {
			fn(pat)
		}
	case bs && bp: // (s,p,?) via SPO
		if l := t.spo.leaf(pat.S, pat.P); l != nil {
			for _, o := range l.ids() {
				if !fn(Triple{pat.S, pat.P, o}) {
					return
				}
			}
		}
	case bp && bo: // (?,p,o) via POS
		if l := t.pos.leaf(pat.P, pat.O); l != nil {
			for _, sub := range l.ids() {
				if !fn(Triple{sub, pat.P, pat.O}) {
					return
				}
			}
		}
	case bs && bo: // (s,?,o) via OSP
		if l := t.osp.leaf(pat.O, pat.S); l != nil {
			for _, p := range l.ids() {
				if !fn(Triple{pat.S, p, pat.O}) {
					return
				}
			}
		}
	case bs: // (s,?,?) via SPO
		t.spo.forEachUnder(pat.S, func(p, o dict.ID) bool { return fn(Triple{pat.S, p, o}) })
	case bp: // (?,p,?) via POS
		t.pos.forEachUnder(pat.P, func(o, subj dict.ID) bool { return fn(Triple{subj, pat.P, o}) })
	case bo: // (?,?,o) via OSP
		t.osp.forEachUnder(pat.O, func(subj, p dict.ID) bool { return fn(Triple{subj, p, pat.O}) })
	default: // full scan via SPO
		t.spo.forEachTriple(func(s, p, o dict.ID) bool {
			return fn(Triple{s, p, o})
		})
	}
}

// SortedIDs returns, in ascending order, the IDs occupying the single
// wildcard position of pat, which must have exactly two bound positions (the
// leaf shapes: (s,p,?), (?,p,o), (s,?,o)). ok is false when no triple
// matches. The returned slice aliases store internals and must be treated as
// read-only; it stays valid until the store is mutated (slices obtained from
// a Snapshot stay valid for the snapshot's lifetime). The slice is the leaf's
// own run, or a one-element view of an inline leaf's trie slot — no lock, no
// copy, no allocation — which is what the engine's merge-intersection joins
// build on.
func (t *tables) SortedIDs(pat Triple) ([]dict.ID, bool) {
	bs, bp, bo := pat.S != dict.None, pat.P != dict.None, pat.O != dict.None
	var l *leaf
	switch {
	case bs && bp && !bo:
		l = t.spo.leaf(pat.S, pat.P)
	case bp && bo && !bs:
		l = t.pos.leaf(pat.P, pat.O)
	case bs && bo && !bp:
		l = t.osp.leaf(pat.O, pat.S)
	default:
		panic("store: SortedIDs pattern must have exactly one wildcard position")
	}
	if l == nil {
		return nil, false
	}
	return l.ids(), true
}

// Cursor is a positioned iterator over one ascending run of IDs: a
// postings leaf, obtained from Postings, or any sorted slice, from
// NewCursor. The zero Cursor is an exhausted cursor.
type Cursor struct {
	ids []dict.ID
	pos int
}

// NewCursor returns a cursor at the start of ids, which must be ascending.
// It reads ids in place.
func NewCursor(ids []dict.ID) Cursor { return Cursor{ids: ids} }

// Postings returns a sorted cursor over the IDs matching the single
// wildcard position of pat (same shape contract as SortedIDs). A pattern
// with no matches yields an exhausted cursor.
func (t *tables) Postings(pat Triple) Cursor {
	ids, _ := t.SortedIDs(pat)
	return Cursor{ids: ids}
}

// Len returns the number of IDs remaining at or after the cursor position.
func (c *Cursor) Len() int { return len(c.ids) - c.pos }

// Valid reports whether the cursor is positioned on an ID.
func (c *Cursor) Valid() bool { return c.pos < len(c.ids) }

// ID returns the current ID; the cursor must be Valid.
func (c *Cursor) ID() dict.ID { return c.ids[c.pos] }

// Next advances to the following ID.
func (c *Cursor) Next() { c.pos++ }

// Pos returns the index of the current ID in the cursor's run.
func (c *Cursor) Pos() int { return c.pos }

// SeekGE advances the cursor to the first ID ≥ id (possibly the current
// one). It gallops: doubling probes from the current position, then a binary
// search within the bracketed window, so k-way intersections over skewed
// leaves cost O(small · log big) rather than a full scan.
func (c *Cursor) SeekGE(id dict.ID) {
	if !c.Valid() || c.ids[c.pos] >= id {
		return
	}
	// Gallop to bracket id in (pos+lo/2, pos+lo].
	lo, hi := 1, len(c.ids)-c.pos
	for lo < hi && c.ids[c.pos+lo] < id {
		lo *= 2
	}
	if lo > hi {
		lo = hi
	}
	// Binary search in (pos + lo/2, pos + lo].
	i, j := c.pos+lo/2+1, c.pos+lo
	for i < j {
		m := int(uint(i+j) >> 1)
		if c.ids[m] < id {
			i = m + 1
		} else {
			j = m
		}
	}
	c.pos = i
}

// IntersectSorted appends the intersection of the ascending slices a and b
// to dst and returns it — the merge step of the engine's sorted-leaf joins.
// Similar-length inputs use a linear two-pointer merge; wildly skewed ones
// walk the shorter slice and gallop through the longer with a cursor
// (SeekGE), for O(small · log big).
func IntersectSorted(dst, a, b []dict.ID) []dict.ID {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= 16*len(a) {
		c := NewCursor(b)
		for _, x := range a {
			c.SeekGE(x)
			if !c.Valid() {
				break
			}
			if c.ID() == x {
				dst = append(dst, x)
				c.Next()
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return dst
}

// Match returns all triples matching the pattern as a slice (convenience
// wrapper over ForEachMatch; order is unspecified).
func (t *tables) Match(pat Triple) []Triple {
	var out []Triple
	t.ForEachMatch(pat, func(tr Triple) bool {
		out = append(out, tr)
		return true
	})
	return out
}

// Count returns the exact number of triples matching the pattern. Every
// shape except the fully-unbound one costs at most one index lookup: the
// two-constant shapes read a leaf size, the single-constant shapes read the
// per-entry triple counters. The optimizer leans on this for selectivity
// estimation.
func (t *tables) Count(pat Triple) int {
	bs, bp, bo := pat.S != dict.None, pat.P != dict.None, pat.O != dict.None
	switch {
	case bs && bp && bo:
		if t.Contains(pat) {
			return 1
		}
		return 0
	case bs && bp:
		if l := t.spo.leaf(pat.S, pat.P); l != nil {
			return l.size()
		}
		return 0
	case bp && bo:
		if l := t.pos.leaf(pat.P, pat.O); l != nil {
			return l.size()
		}
		return 0
	case bs && bo:
		if l := t.osp.leaf(pat.O, pat.S); l != nil {
			return l.size()
		}
		return 0
	case bs:
		return t.spo.countUnder(pat.S)
	case bp:
		return t.pos.countUnder(pat.P)
	case bo:
		return t.osp.countUnder(pat.O)
	default:
		return t.size
	}
}

// Predicates returns the distinct predicate IDs currently used by at least
// one triple, in ascending order. The reformulation candidate-enumeration
// step relies on this being the complete property vocabulary of the graph.
func (t *tables) Predicates() []dict.ID {
	out := make([]dict.ID, 0, t.pos.as.len())
	t.pos.as.forEach(func(k uint64, _ *aSub) bool {
		out = append(out, dict.ID(k))
		return true
	})
	slices.Sort(out)
	return out
}

// Objects returns the distinct objects of triples with predicate p (e.g.
// the classes used in rdf:type triples when p is rdf:type), in ascending
// order.
func (t *tables) Objects(p dict.ID) []dict.ID {
	e := t.pos.as.ref(uint64(p))
	if e == nil {
		return nil
	}
	return slices.Clone(e.bs())
}

// Clone returns a second writable store holding the receiver's triples, in
// O(1): a version over the receiver's current Snapshot, one epoch past it.
// The two stores share every trie node and run, and each copies on write
// what it touches first, exactly as a writer does after a Snapshot; a
// version neither side holds any more is garbage. Cloning a store whose
// snapshot is current writes nothing to it, so any number of goroutines may
// clone one quiescent store at once; otherwise Clone must be serialized with
// the receiver's mutations, like Snapshot. Prefer Snapshot for read
// isolation; Clone is for a second independently mutable store, such as the
// asserted triples a reformulation or backward-chaining strategy keeps
// beside the knowledge base's.
func (s *Store) Clone() *Store {
	sn := s.Snapshot()
	return &Store{tables: sn.tables, epoch: sn.epoch + 1}
}
