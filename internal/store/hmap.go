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

	// The slabs are tail chunks that epoch-0 nodes and their slot arrays are
	// carved from: a bulk build (load, Materialize, decode, Clone) grows the
	// trie one node or one slot at a time, and batching the backing memory
	// into chunks replaces a heap allocation per grow with one per chunk.
	// A chunk is one allocation, so the collector keeps — and scans — all of
	// it while one node in it is live. That is harmless at epoch 0, where
	// nothing is ever copied away: a chunk's dead slots are only the slot
	// arrays growth abandoned, no trie version. It is not harmless under
	// copy-on-write, where a dead node is typically a superseded copy of a
	// root or inner node whose kids still point at the old version of
	// everything below it: one long-lived node would retain every version
	// ever copied into its chunk, and under a sustained write stream the live
	// heap would grow by whole old versions. So the slabs serve epoch 0 only;
	// a node or slot array made at epoch ≥ 1 is its own allocation and is
	// collected as soon as no version reaches it. The epoch-0 chunks can
	// still pin the dead epoch-0 nodes beside their live neighbours, and
	// through them the epoch-0 version — once, however many epochs follow.
	// (Allocating epoch-0 nodes one by one as well was measured on the
	// sat.read benchmark, LUBM 4×15 on a 2-vCPU VM: 15% fewer queries a
	// second, lost to collector work on the extra objects.)
	// Snapshots copy the struct but never mutate, and a snapshotted map is
	// past epoch 0, so no writer appends to a chunk a snapshot can see.
	slab    []hnode[V]
	entSlab slab[hent[V]]
	kidSlab slab[*hnode[V]]
}

// slab is the backing store for one kind of node slot array (see the
// slabs' doc on hmap): the tail chunk arrays are cut from, and the arrays
// that epoch-0 growth abandoned, by power-of-two capacity, for the next
// grow into that capacity to reuse. Reuse is safe at epoch 0 only, where no
// snapshot shares a node and an abandoned array is referenced by nothing.
type slab[E any] struct {
	tail []E
	free [hBits + 1][][]E // free[j]: abandoned arrays of capacity 1<<j
}

// freeClass returns the free-list class of capacity c, log2(c), and whether
// c is a power of two that has one.
func freeClass(c int) (int, bool) {
	return bits.TrailingZeros(uint(c)), c > 0 && c&(c-1) == 0 && c <= hWide
}

// carve returns a zero-length slice with capacity c: at epoch 0 a reused
// abandoned array or a cut from the tail chunk, opening a new chunk
// (doubling, capped) when the current one is full, and at any later epoch
// an allocation of its own.
func (sl *slab[E]) carve(c int, epoch uint64) []E {
	if epoch != 0 {
		return make([]E, 0, c)
	}
	if j, ok := freeClass(c); ok {
		if f := sl.free[j]; len(f) > 0 {
			sl.free[j] = f[:len(f)-1]
			return f[len(f)-1]
		}
	}
	if len(sl.tail)+c > cap(sl.tail) {
		sl.tail = make([]E, 0, max(c, min(1024, max(16, 2*cap(sl.tail)))))
	}
	off := len(sl.tail)
	sl.tail = sl.tail[:off+c]
	return sl.tail[off : off : off+c]
}

// insert inserts e at position i of a node slot slice, growing into a
// doubled-capacity carve (minimum 4 slots, at most a node's fan-out) instead
// of an exact fit: nodes grow one slot at a time during bulk builds, and
// amortising the growth removes almost all of the insert path's allocation
// and write-barrier traffic. At epoch 0 the array it grows out of is
// cleared and kept for reuse, so the slabs do not fill up with the smaller
// arrays every node passed through.
func (sl *slab[E]) insert(s []E, i int, e E, epoch uint64) []E {
	if len(s) == cap(s) {
		ns := sl.carve(min(hWide, max(4, 2*cap(s))), epoch)[:len(s)+1]
		copy(ns, s[:i])
		copy(ns[i+1:], s[i:])
		ns[i] = e
		if j, ok := freeClass(cap(s)); ok && epoch == 0 {
			clear(s)
			sl.free[j] = append(sl.free[j], s[:0])
		}
		return ns
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

// newNode returns a fresh node owned by epoch: at epoch 0 carved from the
// node slab, whose chunk sizes double from 8 up to 128 nodes so small maps
// don't pay a large slab up front, and at any later epoch allocated alone.
func (h *hmap[V]) newNode(epoch uint64) *hnode[V] {
	if epoch != 0 {
		return &hnode[V]{epoch: epoch}
	}
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

// cloneNode copies n into the current epoch, with room for extra more
// entries; the copy is private to the writer and safe to mutate.
//
//webreason:writer
func (h *hmap[V]) cloneNode(n *hnode[V], extra int, m *mctx) *hnode[V] {
	m.copied++
	h.gen++
	c := h.newNode(m.epoch)
	c.entBm, c.kidBm = n.entBm, n.kidBm
	c.ents = append(h.entSlab.carve(len(n.ents)+extra, m.epoch), n.ents...)
	c.kids = append(h.kidSlab.carve(len(n.kids), m.epoch), n.kids...)
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
		h.root = h.newNode(m.epoch)
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
			child := h.newNode(m.epoch)
			j, _ := bmRank(n.kidBm, c)
			n.kids = h.kidSlab.insert(n.kids, j, child, m.epoch)
			n.kidBm |= uint64(1) << c
			n = child
			hh >>= hBits
			for uint32(hh)&(hWide-1) == uint32(eh)&(hWide-1) {
				grand := h.newNode(m.epoch)
				n.kids = append(h.kidSlab.carve(1, m.epoch), grand)
				n.kidBm |= uint64(1) << (uint32(hh) & (hWide - 1))
				n = grand
				hh >>= hBits
				eh >>= hBits
			}
			ec := uint32(eh) & (hWide - 1)
			ei, _ := bmRank(n.entBm, ec)
			n.ents = h.entSlab.insert(n.ents, ei, ent, m.epoch)
			n.entBm |= uint64(1) << ec
			kc := uint32(hh) & (hWide - 1)
			ki, _ := bmRank(n.entBm, kc)
			n.ents = h.entSlab.insert(n.ents, ki, hent[V]{k: k}, m.epoch)
			n.entBm |= uint64(1) << kc
			h.n++
			h.gen++
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
		n.ents = h.entSlab.insert(n.ents, i, hent[V]{k: k}, m.epoch)
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
			h.gen++
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
