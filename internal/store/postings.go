package store

import (
	"slices"
	"unsafe"

	"repro/internal/dict"
)

// leaf is the value of a packed-key index entry: the set of third components
// c for one (a,b) key pair, stored in its trie slot. A set of one ID — 86%
// of the leaves the sat.read benchmark holds at LUBM 4×15 — is held inline
// in one, with run nil; a set of two or more is a postings run, with one
// dict.None. The form is canonical:
// a removal that leaves one ID re-inlines it, and an empty set is no entry
// at all. An inline leaf is therefore no heap object of its own — it lives
// and is copied with the trie node that holds it, which is what keeps the
// collector's object and pointer counts proportional to the multi-ID sets.
type leaf struct {
	one dict.ID
	run *postings
}

// ids returns the set ascending, as the run itself or as a one-element slice
// over the inline slot. l must point into the trie node (see hmap.ref), not
// at a copy: the slice aliases it, and stays valid exactly as long as the
// slot does.
func (l *leaf) ids() []dict.ID {
	if l.run != nil {
		return l.run.ids
	}
	return unsafe.Slice(&l.one, 1)
}

// contains reports membership of c.
func (l *leaf) contains(c dict.ID) bool {
	if l.run != nil {
		return l.run.contains(c)
	}
	return l.one == c
}

// size returns the number of IDs.
func (l *leaf) size() int {
	if l.run != nil {
		return len(l.run.ids)
	}
	return 1
}

// setAdd inserts c into the ID set held in a writer-owned slot as an inline
// ID one and a run, keeping the canonical form (an empty slot is one ==
// dict.None and run == nil), and reports whether c was new. A frozen run is
// probed before it is copied, so a duplicate never pays a copy.
//
//webreason:writer
func setAdd(one *dict.ID, run **postings, c dict.ID, m *mctx) bool {
	switch r := *run; {
	case r != nil:
		if r.epoch != m.epoch {
			if r.contains(c) {
				return false
			}
			r = r.cloneAt(m.epoch)
			m.copied++
			*run = r
		}
		return r.add(c)
	case *one == dict.None:
		*one = c
		return true
	case *one == c:
		return false
	default:
		ids := make([]dict.ID, 2)
		ids[0], ids[1] = min(*one, c), max(*one, c)
		*one, *run = dict.None, &postings{ids: ids, epoch: m.epoch}
		return true
	}
}

// setRemove deletes c from the ID set held in a writer-owned slot (see
// setAdd) and reports whether it was present. A run that drops to one ID
// gives way to the inline form; one that drops to none leaves the slot
// empty for the caller to delete.
//
//webreason:writer
func setRemove(one *dict.ID, run **postings, c dict.ID, m *mctx) bool {
	r := *run
	if r == nil {
		if *one != c {
			return false
		}
		*one = dict.None
		return true
	}
	i, ok := slices.BinarySearch(r.ids, c)
	if !ok {
		return false
	}
	if len(r.ids) == 2 {
		*one, *run = r.ids[1-i], nil
		return true
	}
	if r.epoch != m.epoch {
		r = r.cloneAt(m.epoch)
		m.copied++
		*run = r
	}
	r.ids = slices.Delete(r.ids, i, i+1)
	return true
}

// postings is a leaf or side-table set of two or more IDs, held as one
// strictly ascending run. Membership is a binary search, ordered iteration
// and the sorted view the merge joins consume are the run itself, and the
// run is byte for byte what the binary codec writes — a loaded run aliases
// the file image.
//
// Insertion and removal shift the tail of the run, so an out-of-order insert
// into a run of n IDs is an O(n) memmove; dictionary IDs arrive ascending in
// every load and saturation path, which makes the common insert an append.
//
// A run whose epoch predates the store's current epoch is shared with at
// least one snapshot or clone: it is frozen, nothing writes it again, and the writer
// copies it (cloneAt) before its first mutation in the new epoch. A run at
// the current epoch is private to the writer.
//
//webreason:frozen
type postings struct {
	ids   []dict.ID // strictly ascending, at least two
	epoch uint64    // store mutation epoch that created or copied this run
}

// add inserts c and reports whether it was new. The caller guarantees p is
// at the current epoch (cloneAt first when shared).
//
//webreason:writer
func (p *postings) add(c dict.ID) bool {
	i, ok := slices.BinarySearch(p.ids, c)
	if ok {
		return false
	}
	p.ids = slices.Insert(p.ids, i, c)
	return true
}

// remove deletes c and reports whether it was present. The caller
// guarantees p is at the current epoch (cloneAt first when shared) and
// holds more than two IDs (two fall back to the inline form; see setRemove).
//
//webreason:writer
func (p *postings) remove(c dict.ID) bool {
	i, ok := slices.BinarySearch(p.ids, c)
	if !ok {
		return false
	}
	p.ids = slices.Delete(p.ids, i, i+1)
	return true
}

// contains reports membership of c.
func (p *postings) contains(c dict.ID) bool {
	_, ok := slices.BinarySearch(p.ids, c)
	return ok
}

// cloneAt is the copy-on-write step: an independent copy stamped with the
// given epoch, made with one allocation and one memmove. The copy has room
// for a sixteenth more IDs, so the inserts that follow in the same epoch —
// a drain's appends, a schema update's new consequences — land in
// it without a second copy. The room is deliberately smaller than append's
// amortised quarter: every epoch that writes a hot run copies it once, so
// the slack is paid on every copy and, under a sustained write stream, it
// is collector work too.
//
//webreason:writer
func (p *postings) cloneAt(epoch uint64) *postings {
	n := len(p.ids)
	ids := make([]dict.ID, n, n+n/16+1)
	copy(ids, p.ids)
	return &postings{ids: ids, epoch: epoch}
}
