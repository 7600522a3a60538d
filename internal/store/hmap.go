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
// insert pays in a dense node to 64 slots — the insert path (saturation
// bulk-builds) is as hot as the probe path here.
//
// Persistence: nodes carry the mutation epoch that created them, and a
// mutation under a newer epoch copies the node before writing (path copying,
// tallied in mctx.copied). Iteration order is hash order — deterministic for
// a given map value but not sorted; callers that need sorted enumeration
// sort the keys they collect (see the canonical encoder).
type hmap[V any] struct {
	root *hnode[V]
	n    int32

	// gen counts structural changes — inserts, deletes and copy-on-write
	// node clones. Anything that could move or freeze an entry bumps it, so
	// a caller holding a pointer from upsert can keep writing through it for
	// exactly as long as gen is unchanged (see index's side-table hint).
	gen uint64

	// The slabs are tail chunks that nodes and their slot arrays are carved
	// from: trie growth allocates one node or one slot at a time, and
	// batching the backing memory into chunks replaces a heap allocation per
	// grow with one per chunk. Only the current chunk is pinned by these
	// headers; a full chunk stays alive for as long as any live node or slot
	// array points into it. For a map that only grows that bounds the waste
	// at one chunk each of unused slots plus the backings growth abandoned.
	// For a persistent trie under copy-on-write it bounds nothing: a chunk is
	// one allocation, so the collector keeps — and scans — all of it while
	// one node in it is live, the dead ones included, and a dead node is
	// typically a superseded copy of a root or inner node whose kids still
	// point at the old version of everything below it. One long-lived node
	// therefore retains every old trie version that was ever copied into its
	// chunk, leaves and all, until the chunk's last live node is itself
	// copied away; under a sustained write stream the live heap grows by
	// whole old versions (ROADMAP.md item 1 has the measured series and why
	// plain per-node allocation is not yet a drop-in fix).
	// Snapshots copy the struct but never mutate, so the writer appending to
	// spare slab capacity is invisible to them.
	slab    []hnode[V]
	entSlab []hent[V]
	kidSlab []*hnode[V]
}

// carve returns a zero-length slice with capacity c cut from the slab's tail
// chunk, opening a new chunk (doubling, capped) when the current one is full.
func carve[E any](slab *[]E, c int) []E {
	if len(*slab)+c > cap(*slab) {
		*slab = make([]E, 0, max(c, min(1024, max(16, 2*cap(*slab)))))
	}
	off := len(*slab)
	*slab = (*slab)[:off+c]
	return (*slab)[off : off : off+c]
}

// insSlot inserts e at position i of a node slot slice, growing into a
// doubled-capacity carve from the slab (minimum 4 slots) instead of an exact
// heap fit: nodes grow one slot at a time during bulk builds, and amortising
// the growth removes almost all of the insert path's allocation and
// write-barrier traffic.
func insSlot[E any](slab *[]E, s []E, i int, e E) []E {
	if len(s) == cap(s) {
		ns := carve(slab, max(4, 2*cap(s)))[:len(s)+1]
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

// newNode returns a fresh node owned by epoch. Chunk sizes double from 8 up
// to 128 nodes so small maps don't pay a large slab up front.
func (h *hmap[V]) newNode(epoch uint64) *hnode[V] {
	if len(h.slab) == cap(h.slab) {
		h.slab = make([]hnode[V], 0, min(128, max(8, 2*cap(h.slab))))
	}
	h.slab = append(h.slab, hnode[V]{epoch: epoch})
	return &h.slab[len(h.slab)-1]
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
// Nodes at an epoch below the map's current one are shared with snapshots:
// they are frozen, and only the copy-on-write writers may touch their fields.
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

// cloneNode copies n into the current epoch; the copy is private to the
// writer and safe to mutate.
//
//webreason:writer
func (h *hmap[V]) cloneNode(n *hnode[V], m *mctx) *hnode[V] {
	m.copied++
	h.gen++
	c := h.newNode(m.epoch)
	c.entBm, c.kidBm = n.entBm, n.kidBm
	c.ents = append(carve(&h.entSlab, len(n.ents)), n.ents...)
	c.kids = append(carve(&h.kidSlab, len(n.kids)), n.kids...)
	return c
}

// len returns the number of entries.
func (h *hmap[V]) len() int { return int(h.n) }

// get returns the value under k.
func (h *hmap[V]) get(k uint64) (V, bool) {
	var zero V
	n := h.root
	if n == nil {
		return zero, false
	}
	hh := mix64(k)
	for {
		c := uint32(hh) & (hWide - 1)
		if i, ok := bmRank(n.entBm, c); ok {
			if e := &n.ents[i]; e.k == k {
				return e.v, true
			}
			return zero, false
		}
		i, ok := bmRank(n.kidBm, c)
		if !ok {
			return zero, false
		}
		n = n.kids[i]
		hh >>= hBits
	}
}

// upsert returns a pointer to the value slot for k, inserting a zero slot
// when the key is absent, after making every node on the path writer-owned
// for m's epoch. The pointer is valid until the hmap's next structural
// change; the single-writer callers write through it immediately.
//
//webreason:writer
func (h *hmap[V]) upsert(k uint64, m *mctx) *V {
	if h.root == nil {
		h.root = h.newNode(m.epoch)
	} else if h.root.epoch != m.epoch {
		h.root = h.cloneNode(h.root, m)
	}
	n := h.root
	hh := mix64(k)
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
			child := h.newNode(m.epoch)
			j, _ := bmRank(n.kidBm, c)
			n.kids = insSlot(&h.kidSlab, n.kids, j, child)
			n.kidBm |= uint64(1) << c
			n = child
			hh >>= hBits
			for uint32(hh)&(hWide-1) == uint32(eh)&(hWide-1) {
				grand := h.newNode(m.epoch)
				n.kids = append(carve(&h.kidSlab, 1), grand)
				n.kidBm |= uint64(1) << (uint32(hh) & (hWide - 1))
				n = grand
				hh >>= hBits
				eh >>= hBits
			}
			ec := uint32(eh) & (hWide - 1)
			ei, _ := bmRank(n.entBm, ec)
			n.ents = insSlot(&h.entSlab, n.ents, ei, ent)
			n.entBm |= uint64(1) << ec
			kc := uint32(hh) & (hWide - 1)
			ki, _ := bmRank(n.entBm, kc)
			n.ents = insSlot(&h.entSlab, n.ents, ki, hent[V]{k: k})
			n.entBm |= uint64(1) << kc
			h.n++
			h.gen++
			return &n.ents[ki].v
		}
		if i, ok := bmRank(n.kidBm, c); ok {
			child := n.kids[i]
			if child.epoch != m.epoch {
				child = h.cloneNode(child, m)
				n.kids[i] = child
			}
			n = child
			hh >>= hBits
			depth++
			continue
		}
		// Free slot: the entry terminates here.
		i, _ := bmRank(n.entBm, c)
		n.ents = insSlot(&h.entSlab, n.ents, i, hent[V]{k: k})
		n.entBm |= uint64(1) << c
		h.n++
		h.gen++
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
	if _, ok := h.get(k); !ok {
		return
	}
	var (
		path    [hMaxDepth]*hnode[V] // parents of the current node
		chunkAt [hMaxDepth]uint32    // chunk selecting the child within each parent
		depth   int
	)
	n := h.root
	if n.epoch != m.epoch {
		n = h.cloneNode(n, m)
		h.root = n
	}
	hh := mix64(k)
	for {
		c := uint32(hh) & (hWide - 1)
		if i, ok := bmRank(n.entBm, c); ok {
			n.ents = slices.Delete(n.ents, i, i+1)
			n.entBm &^= uint64(1) << c
			h.n--
			h.gen++
			break
		}
		i, _ := bmRank(n.kidBm, c)
		child := n.kids[i]
		if child.epoch != m.epoch {
			child = h.cloneNode(child, m)
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
// iteration early.
func (h *hmap[V]) forEach(fn func(uint64, V) bool) bool {
	if h.root == nil {
		return true
	}
	return eachHNode(h.root, fn)
}

func eachHNode[V any](n *hnode[V], fn func(uint64, V) bool) bool {
	for _, e := range n.ents {
		if !fn(e.k, e.v) {
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
