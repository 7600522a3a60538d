package store

import (
	"math/bits"
	"slices"
)

// hmap is the persistent (copy-on-write) hash-array-mapped trie behind the
// store's packed-key leaf indexes: a map from the packed uint64 (a,b) key to
// V with the probe cost of a hash map and the O(path) snapshot cost of a
// trie. Keys are hashed through a bijective 64-bit mixer, so two distinct
// keys always differ somewhere in their hash chunks — the trie needs no
// collision buckets, depth is bounded by hMaxDepth, and the expected probe
// walks ceil(log64(n)) nodes (3 for anything up to 256K leaves). This is
// the single-walk replacement for probing two key-bit tries in sequence,
// which is where the engine's merge joins spend their per-probe time.
//
// Each node consumes 6 hash bits: a one-word entry bitmap for keys that
// terminate here and a disjoint one-word child bitmap for slots that
// continue below, with entries and children packed densely in chunk order.
// An entry stays as high as its hash prefix is unique, so small maps are a
// root node of inline entries and one pointer chase resolves most probes.
// The 64-wide radix keeps rank a single popcount and bounds the memmove an
// insert pays in a dense node to 64 slots.
//
// Whole maps are not built through the insert path: buildTrie (build.go)
// makes the trie bottom-up, in the shape inserting the same keys gives,
// with its nodes and slot arrays carved from per-build arenas. A node or
// slot array an insert or a copy-on-write creates afterwards is an
// allocation of its own, so a version no snapshot holds any more is garbage.
//
// Persistence: nodes carry the mutation epoch that created them, and a
// mutation under a newer epoch copies the node before writing (path copying,
// tallied in mctx.copied). Iteration order is hash order — deterministic for
// a given map value but not sorted; callers that need sorted enumeration
// sort the keys they collect (see the canonical encoder).
type hmap[V any] struct {
	root *hnode[V]
	n    int32
}

// insertAt inserts e at position i of a node slot slice, growing it into a
// doubled-capacity array (minimum 4 slots, at most a node's fan-out) instead
// of an exact fit, so a node that keeps growing in place — one a writer owns
// across many inserts of one epoch — reallocates only now and then.
func insertAt[E any](s []E, i int, e E) []E {
	if len(s) == cap(s) {
		ns := make([]E, len(s)+1, min(hWide, max(4, 2*cap(s))))
		copy(ns, s[:i])
		copy(ns[i+1:], s[i:])
		ns[i] = e
		return ns
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

const (
	// hBits is the trie radix: each node consumes 6 hash bits.
	hBits = 6
	// hWide is the fan-out of one trie node.
	hWide = 1 << hBits
	// hMaxDepth bounds a root-to-leaf path: ceil(64 hash bits / 6 per
	// level); the last level sees only the 4 leftover bits.
	hMaxDepth = (64 + hBits - 1) / hBits
)

// mctx carries one mutation's context through the trie walk: the epoch that
// owns the mutation (nodes stamped with an older epoch are frozen by a
// snapshot and must be copied before writing) and a tally of nodes copied,
// which the structural-sharing tests bound.
type mctx struct {
	epoch  uint64
	copied uint64
}

// mix64 is the splitmix64 finalizer — a bijection on uint64, so distinct
// keys get distinct hashes and the trie can terminate every probe with a
// single key comparison instead of a collision list.
func mix64(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// hent is one resident entry: the full packed key (the hash is never
// stored — it re-derives from the key on the rare push-down) and the value,
// kept together so a probe's key compare and value load share a cache line.
type hent[V any] struct {
	k uint64
	v V
}

// hnode is one trie node. entBm marks chunks occupied by an entry (ents
// holds them densely in chunk order); kidBm marks chunks that continue into
// a child node (kids, same packing). The two bitmaps are disjoint.
//
// Nodes at an epoch below the map's current one are shared with snapshots or
// clones: they are frozen, and only the copy-on-write writers may touch their
// fields.
//
//webreason:frozen
type hnode[V any] struct {
	epoch uint64
	entBm uint64
	kidBm uint64
	ents  []hent[V]
	kids  []*hnode[V]
}

// bmRank returns the dense index for chunk c within bm and whether c is set.
func bmRank(bm uint64, c uint32) (int, bool) {
	bit := uint64(1) << c
	return bits.OnesCount64(bm & (bit - 1)), bm&bit != 0
}

// cloneNode copies n into the current epoch, with room for extra more
// entries; the copy is private to the writer and safe to mutate.
//
//webreason:writer
func (h *hmap[V]) cloneNode(n *hnode[V], extra int, m *mctx) *hnode[V] {
	m.copied++
	c := &hnode[V]{epoch: m.epoch, entBm: n.entBm, kidBm: n.kidBm}
	c.ents = append(make([]hent[V], 0, len(n.ents)+extra), n.ents...)
	c.kids = slices.Clone(n.kids)
	return c
}

// len returns the number of entries.
func (h *hmap[V]) len() int { return int(h.n) }

// ref returns a pointer to the value slot under k, or nil when k is absent.
// It is read-only: the slot may sit in a node a snapshot shares. The pointer
// stays valid for as long as the map value it was taken from is not mutated
// (for a snapshot's map, for the snapshot's lifetime).
func (h *hmap[V]) ref(k uint64) *V {
	n := h.root
	if n == nil {
		return nil
	}
	hh := mix64(k)
	for {
		c := uint32(hh) & (hWide - 1)
		if i, ok := bmRank(n.entBm, c); ok {
			if e := &n.ents[i]; e.k == k {
				return &e.v
			}
			return nil
		}
		i, ok := bmRank(n.kidBm, c)
		if !ok {
			return nil
		}
		n = n.kids[i]
		hh >>= hBits
	}
}

// clonePath copies the frozen node n for upsert, which is about to look up
// the chunk at the bottom of hh in it: when that chunk is free the walk ends
// by inserting an entry there, so the copy gets room for it, sparing a
// second, doubled copy of the entry array.
//
//webreason:writer
func (h *hmap[V]) clonePath(n *hnode[V], hh uint64, m *mctx) *hnode[V] {
	extra := 0
	if bit := uint64(1) << (uint32(hh) & (hWide - 1)); (n.entBm|n.kidBm)&bit == 0 {
		extra = 1
	}
	return h.cloneNode(n, extra, m)
}

// upsert returns a pointer to the value slot for k, inserting a zero slot
// when the key is absent, after making every node on the path writer-owned
// for m's epoch. The pointer is valid until the hmap's next structural
// change; the single-writer callers write through it immediately.
//
//webreason:writer
func (h *hmap[V]) upsert(k uint64, m *mctx) *V {
	hh := mix64(k)
	if h.root == nil {
		h.root = &hnode[V]{epoch: m.epoch}
	} else if h.root.epoch != m.epoch {
		h.root = h.clonePath(h.root, hh, m)
	}
	n := h.root
	depth := 0
	for {
		c := uint32(hh) & (hWide - 1)
		if i, ok := bmRank(n.entBm, c); ok {
			if n.ents[i].k == k {
				return &n.ents[i].v
			}
			// Chunk conflict with a resident entry: push it down a chain of
			// fresh nodes until its next hash chunk diverges from k's. The
			// bijective mix guarantees divergence before the hash runs out.
			ent := n.ents[i]
			eh := mix64(ent.k) >> ((depth + 1) * hBits)
			n.ents = slices.Delete(n.ents, i, i+1)
			n.entBm &^= uint64(1) << c
			child := &hnode[V]{epoch: m.epoch}
			j, _ := bmRank(n.kidBm, c)
			n.kids = insertAt(n.kids, j, child)
			n.kidBm |= uint64(1) << c
			n = child
			hh >>= hBits
			for uint32(hh)&(hWide-1) == uint32(eh)&(hWide-1) {
				grand := &hnode[V]{epoch: m.epoch}
				n.kids = []*hnode[V]{grand}
				n.kidBm |= uint64(1) << (uint32(hh) & (hWide - 1))
				n = grand
				hh >>= hBits
				eh >>= hBits
			}
			ec := uint32(eh) & (hWide - 1)
			ei, _ := bmRank(n.entBm, ec)
			n.ents = insertAt(n.ents, ei, ent)
			n.entBm |= uint64(1) << ec
			kc := uint32(hh) & (hWide - 1)
			ki, _ := bmRank(n.entBm, kc)
			n.ents = insertAt(n.ents, ki, hent[V]{k: k})
			n.entBm |= uint64(1) << kc
			h.n++
			return &n.ents[ki].v
		}
		if i, ok := bmRank(n.kidBm, c); ok {
			hh >>= hBits
			child := n.kids[i]
			if child.epoch != m.epoch {
				child = h.clonePath(child, hh, m)
				n.kids[i] = child
			}
			n = child
			depth++
			continue
		}
		// Free slot: the entry terminates here.
		i, _ := bmRank(n.entBm, c)
		n.ents = insertAt(n.ents, i, hent[V]{k: k})
		n.entBm |= uint64(1) << c
		h.n++
		return &n.ents[i].v
	}
}

// del removes k (no-op when absent), path-copying exactly like upsert and
// pruning emptied nodes so the trie never accumulates dead branches. (A
// surviving single entry is not lifted back up; gets still find it one
// level deeper, and the canonical on-disk form never depends on trie shape.)
//
//webreason:writer
func (h *hmap[V]) del(k uint64, m *mctx) {
	// Probe first: a miss must not copy anything.
	if h.ref(k) == nil {
		return
	}
	var (
		path    [hMaxDepth]*hnode[V] // parents of the current node
		chunkAt [hMaxDepth]uint32    // chunk selecting the child within each parent
		depth   int
	)
	n := h.root
	if n.epoch != m.epoch {
		n = h.cloneNode(n, 0, m)
		h.root = n
	}
	hh := mix64(k)
	for {
		c := uint32(hh) & (hWide - 1)
		if i, ok := bmRank(n.entBm, c); ok {
			n.ents = slices.Delete(n.ents, i, i+1)
			n.entBm &^= uint64(1) << c
			h.n--
			break
		}
		i, _ := bmRank(n.kidBm, c)
		child := n.kids[i]
		if child.epoch != m.epoch {
			child = h.cloneNode(child, 0, m)
			n.kids[i] = child
		}
		path[depth] = n
		chunkAt[depth] = c
		depth++
		n = child
		hh >>= hBits
	}
	for depth > 0 && len(n.ents) == 0 && len(n.kids) == 0 {
		depth--
		parent := path[depth]
		pc := chunkAt[depth]
		j, _ := bmRank(parent.kidBm, pc)
		parent.kids = slices.Delete(parent.kids, j, j+1)
		parent.kidBm &^= uint64(1) << pc
		n = parent
	}
	if len(h.root.ents) == 0 && len(h.root.kids) == 0 {
		h.root = nil
	}
}

// forEach calls fn for every entry in hash (trie) order — deterministic for
// a given map value, not key-sorted; it returns false iff fn stopped the
// iteration early. The value pointer is read-only, like ref's.
func (h *hmap[V]) forEach(fn func(uint64, *V) bool) bool {
	if h.root == nil {
		return true
	}
	return eachHNode(h.root, fn)
}

func eachHNode[V any](n *hnode[V], fn func(uint64, *V) bool) bool {
	for i := range n.ents {
		if !fn(n.ents[i].k, &n.ents[i].v) {
			return false
		}
	}
	for _, kid := range n.kids {
		if !eachHNode(kid, fn) {
			return false
		}
	}
	return true
}
