package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"unsafe"

	"repro/internal/dict"
)

// Binary export/import of the store's index layout, the basis of the
// persistence layer's "near-memcpy" snapshot loading. The format groups
// each index section by first component: a header with the distinct-a
// and leaf counts, then for every a (ascending) its b values (ascending),
// each with the leaf's ascending ID run:
//
//	u32 nA       distinct first components
//	u32 nLeaves  total (a,b) leaves
//	per a ascending:
//	  u32 a
//	  u32 nB     leaves under a (≥ 1)
//	  per b ascending:
//	    u32 b
//	    u32 len  (≥ 1)
//	    len × u32 ids, strictly ascending
//
// Every field is 4 bytes, so ID runs stay 4-byte aligned whenever the buffer
// is — which is what lets the decoder alias them in place. Import rebuilds
// each index in one linear pass: each leaf becomes one hash-trie insert,
// and per-a groups become side-table records directly — their ascending b
// runs carved out of a shared arena as ready-made sorted sub sets, their
// triple counts summed during the same pass. Grouping by a also drops the
// old format's repeated high key halves, and the side table's ordered
// iteration replaces the explicit key sort the map-backed writer needed.
// Serialising all three orders trades a 3× larger file for skipping the
// entire Add path on load; snapshots are written by a background
// checkpointer and read on process start, exactly the asymmetry that trade
// wants.
//
// The encoding is canonical: one store state has exactly one serialisation
// (groups and leaf IDs sorted), so snapshot bytes are reproducible and can
// be pinned as golden files. Decoding validates structure strictly — ordered
// groups, ordered in-range IDs, counts agreeing with the header — and never
// panics on malformed input; whole-file integrity (bit rot, torn writes) is
// the caller's job via CRC framing (internal/persist).

// ErrStoreCorrupt is wrapped by every store-decoding error.
var ErrStoreCorrupt = errors.New("store: corrupt binary store")

// hostLittleEndian reports whether this machine's byte order matches the
// file format's, which is what lets the decoder alias ID runs in place.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{0x01, 0x02}) == 0x0201

// BinaryView is the read surface the binary exporter needs; *Store and
// *Snapshot both implement it, so checkpoints serialise O(1) COW snapshots
// while the live store keeps mutating.
type BinaryView interface {
	WriteBinary(w io.Writer) error
	Len() int
}

var (
	_ BinaryView = (*Store)(nil)
	_ BinaryView = (*Snapshot)(nil)
)

// WriteBinary writes the canonical binary encoding of the view to w. It is a
// read-only operation, safe under the store's concurrent read contract.
func (t *tables) WriteBinary(w io.Writer) error {
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.size))
	var err error
	for _, ix := range []*index{&t.spo, &t.pos, &t.osp} {
		if buf, err = appendIndexBinary(w, buf, ix); err != nil {
			return err
		}
	}
	_, err = w.Write(buf)
	return err
}

// appendIndexBinary encodes one index section into buf, flushing full chunks
// to w, and returns the remaining buffered tail for the caller to continue
// with (or flush).
func appendIndexBinary(w io.Writer, buf []byte, ix *index) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.as.len()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ix.leaves()))
	// The side tables iterate in hash order; the canonical encoding wants
	// ascending a, so collect and sort the group keys first (one sort of the
	// a vocabulary; the b keys and leaf runs below are already ascending).
	groups := make([]dict.ID, 0, ix.as.len())
	ix.as.forEach(func(k uint64, _ *aSub) bool {
		groups = append(groups, dict.ID(k))
		return true
	})
	slices.Sort(groups)
	for _, a := range groups {
		bs := ix.as.ref(uint64(a)).bs()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(a))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(bs)))
		for _, b := range bs {
			ids := ix.leaf(a, b).ids()
			buf = binary.LittleEndian.AppendUint32(buf, uint32(b))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
			for _, id := range ids {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
			}
			if len(buf) >= 1<<16 {
				if _, err := w.Write(buf); err != nil {
					return nil, err
				}
				buf = buf[:0]
			}
		}
	}
	return buf, nil
}

// ReadBinary reconstructs a store from the encoding produced by WriteBinary.
// The returned store is freshly owned by the caller (epoch 0, no snapshots).
func ReadBinary(b []byte) (*Store, error) {
	return ReadBinaryChecked(b, ^dict.ID(0))
}

// ReadBinaryChecked is ReadBinary with an ID bound: decoding fails if any
// triple component exceeds maxID. Callers loading a store alongside the
// dictionary it was encoded against pass the dictionary length, which makes
// "every stored ID resolves to a term" a free by-product of the decode pass
// instead of a separate full scan.
//
// Zero-copy: on a little-endian machine with b 4-byte aligned (persist's
// section framing guarantees alignment), the returned store's leaves alias
// b's ID runs in place — the "near-memcpy" load path — so the caller must
// not modify b afterwards. The store itself may: each leaf's region belongs
// to that leaf alone (in-place removal shifts only its own bytes, insertion
// reallocates because the slices are at capacity), and the buffer stays
// alive while any leaf references it. On other hosts the IDs are copied into
// per-index arenas instead.
func ReadBinaryChecked(b []byte, maxID dict.ID) (*Store, error) {
	if maxID == dict.None {
		maxID = ^dict.ID(0) // an all-wildcard bound means "no bound"
	}
	if len(b) < 8 {
		return nil, fmt.Errorf("%w: truncated header", ErrStoreCorrupt)
	}
	size := binary.LittleEndian.Uint64(b)
	b = b[8:]
	// Every triple occupies ≥ 4 bytes in each of the three index sections, so
	// a header claiming more than the buffer can hold is corrupt — checked
	// before pre-sizing anything, so a bad count cannot force allocation.
	if size > uint64(len(b))/12 {
		return nil, fmt.Errorf("%w: size %d exceeds buffer", ErrStoreCorrupt, size)
	}
	s := &Store{tables: tables{size: int(size)}}
	for i, ix := range []*index{&s.spo, &s.pos, &s.osp} {
		rest, err := readIndex(ix, b, int(size), maxID)
		if err != nil {
			return nil, fmt.Errorf("%w: index %d: %w", ErrStoreCorrupt, i, err)
		}
		b = rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrStoreCorrupt, len(b))
	}
	return s, nil
}

// readIndex decodes one index section into ix, requiring its triple total to
// equal size and every ID (group keys and leaf entries) to be ≤ maxID, and
// returns the unconsumed remainder of b.
func readIndex(ix *index, b []byte, size int, maxID dict.ID) ([]byte, error) {
	if len(b) < 8 {
		return nil, errors.New("truncated index header")
	}
	// Counts are validated in uint64 space before conversion: on 32-bit
	// hosts a raw uint32 would wrap negative in int and slip past the bound
	// checks straight into a make() panic, breaking the never-panic contract.
	nA64 := uint64(binary.LittleEndian.Uint32(b))
	nLeaves64 := uint64(binary.LittleEndian.Uint32(b[4:]))
	b = b[8:]
	if nLeaves64 > uint64(size) {
		return nil, fmt.Errorf("leaf count %d exceeds size %d", nLeaves64, size)
	}
	if nA64 > nLeaves64 || (nLeaves64 > 0 && nA64 == 0) {
		return nil, fmt.Errorf("group count %d inconsistent with %d leaves", nA64, nLeaves64)
	}
	nA, nLeaves := int(nA64), int(nLeaves64) // ≤ size, which fits int
	// A one-ID run becomes an inline slot (see leaf) and needs nothing
	// else. Longer runs get a postings struct, carved out of chunked arenas
	// — one allocation per chunk instead of one per run; a full chunk is
	// left as it is and a new one opened, so pointers into it stay valid —
	// and the per-group b key runs are carved out of one arena sized by the
	// leaf count the header declares (the checks below keep appends within
	// its capacity). Leaf IDs alias the input in place when the host
	// representation matches (see ReadBinaryChecked), falling back to one
	// more arena otherwise. A validated run is a finished leaf — the
	// in-memory and on-disk forms are the same bytes — which is what makes
	// loading "near-memcpy".
	alias := hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%4 == 0
	var leafArena []dict.ID
	if !alias {
		leafArena = make([]dict.ID, 0, size)
	}
	var runArena []postings
	newRun := func(ids []dict.ID) *postings {
		if len(runArena) == cap(runArena) {
			runArena = make([]postings, 0, min(1024, max(16, 2*cap(runArena))))
		}
		runArena = append(runArena, postings{ids: ids})
		return &runArena[len(runArena)-1]
	}
	ksArena := make([]dict.ID, 0, nLeaves) // per-group b keys
	m := &mctx{}                           // epoch-0 build: every structure is freshly owned
	var (
		total      int
		leavesSeen int
		prevA      dict.ID
	)
	for ai := 0; ai < nA; ai++ {
		if len(b) < 8 {
			return nil, errors.New("truncated group header")
		}
		a := dict.ID(binary.LittleEndian.Uint32(b))
		nB64 := uint64(binary.LittleEndian.Uint32(b[4:]))
		b = b[8:]
		if a <= prevA {
			return nil, fmt.Errorf("group %d not above predecessor %d", a, prevA)
		}
		prevA = a
		if a > maxID {
			return nil, fmt.Errorf("group %d beyond max ID %d", a, maxID)
		}
		if nB64 == 0 {
			return nil, fmt.Errorf("empty group %d", a)
		}
		// Checked before any leaf of the group is appended: exceeding the
		// declared leaf count would grow ksArena past its capacity and
		// invalidate every run already carved from it.
		if nB64 > uint64(nLeaves-leavesSeen) {
			return nil, fmt.Errorf("group %d leaf count %d exceeds remaining %d", a, nB64, nLeaves-leavesSeen)
		}
		nB := int(nB64)
		leavesSeen += nB
		count := 0
		ksStart := len(ksArena)
		var prevB dict.ID
		for bi := 0; bi < nB; bi++ {
			if len(b) < 8 {
				return nil, errors.New("truncated leaf header")
			}
			bb := dict.ID(binary.LittleEndian.Uint32(b))
			n64 := uint64(binary.LittleEndian.Uint32(b[4:]))
			b = b[8:]
			if bb <= prevB {
				return nil, fmt.Errorf("leaf (%d,%d) not above predecessor %d", a, bb, prevB)
			}
			prevB = bb
			if bb == dict.None || bb > maxID {
				return nil, fmt.Errorf("leaf key %d beyond max ID %d", bb, maxID)
			}
			if n64 == 0 {
				return nil, fmt.Errorf("empty leaf (%d,%d)", a, bb)
			}
			if n64 > uint64(len(b)/4) {
				return nil, fmt.Errorf("leaf (%d,%d) length %d exceeds buffer", a, bb, n64)
			}
			n := int(n64) // ≤ len(b)/4, which fits int
			total += n
			if total > size {
				return nil, fmt.Errorf("index total exceeds declared size %d", size)
			}
			// Validate the ascending ID run, then either alias it in place
			// or copy it into the arena.
			var ids []dict.ID
			if alias {
				ids = unsafe.Slice((*dict.ID)(unsafe.Pointer(unsafe.SliceData(b))), n)
				prev := dict.ID(0)
				for _, id := range ids {
					if id <= prev {
						return nil, fmt.Errorf("leaf (%d,%d) IDs not strictly ascending", a, bb)
					}
					prev = id
				}
				if ids[n-1] > maxID {
					return nil, fmt.Errorf("leaf (%d,%d) holds ID %d beyond max ID %d", a, bb, ids[n-1], maxID)
				}
			} else {
				start := len(leafArena)
				prev := dict.ID(0)
				for j := 0; j < n; j++ {
					id := dict.ID(binary.LittleEndian.Uint32(b[4*j:]))
					if id <= prev {
						return nil, fmt.Errorf("leaf (%d,%d) IDs not strictly ascending", a, bb)
					}
					prev = id
					leafArena = append(leafArena, id)
				}
				if prev > maxID {
					return nil, fmt.Errorf("leaf (%d,%d) holds ID %d beyond max ID %d", a, bb, prev, maxID)
				}
				ids = leafArena[start:len(leafArena):len(leafArena)]
			}
			b = b[4*n:]
			l := leaf{one: ids[0]}
			if n > 1 {
				l = leaf{run: newRun(ids)}
			}
			*ix.ls.upsert(pack(a, bb), m) = l
			ksArena = append(ksArena, bb)
			count += n
		}
		e := aSub{count: int32(count), one: prevB}
		if nB > 1 {
			e = aSub{count: int32(count), sub: newRun(ksArena[ksStart:len(ksArena):len(ksArena)])}
		}
		*ix.as.upsert(uint64(a), m) = e
	}
	if leavesSeen != nLeaves {
		return nil, fmt.Errorf("index holds %d leaves, header says %d", leavesSeen, nLeaves)
	}
	if total != size {
		return nil, fmt.Errorf("index holds %d triples, header says %d", total, size)
	}
	return b, nil
}
