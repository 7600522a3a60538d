package store

import (
	"slices"

	"repro/internal/dict"
)

// postings is the leaf of a packed-key index: the set of third components c
// for one (a,b) key pair, held as one strictly ascending run of IDs at every
// size. Membership is a binary search, ordered iteration and the sorted view
// the merge joins consume are the run itself, and the run is byte for byte
// what the binary codec writes — a loaded leaf aliases the file image.
//
// Insertion and removal shift the tail of the run, so an out-of-order insert
// into a leaf of n IDs is an O(n) memmove; dictionary IDs arrive ascending in
// every load and saturation path, which makes the common insert an append.
//
// A leaf whose epoch predates the store's current epoch is shared with at
// least one snapshot: it is frozen, nothing writes it again, and the writer
// copies it (cloneAt) before its first mutation in the new epoch. A leaf at
// the current epoch is private to the writer.
//
//webreason:frozen
type postings struct {
	ids   []dict.ID // strictly ascending
	epoch uint64    // store mutation epoch that created or copied this leaf
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
// guarantees p is at the current epoch (cloneAt first when shared).
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

// size returns the number of elements.
func (p *postings) size() int { return len(p.ids) }

// forEach calls fn for every element in ascending order; it returns false
// iff fn stopped the iteration early.
func (p *postings) forEach(fn func(dict.ID) bool) bool {
	for _, c := range p.ids {
		if !fn(c) {
			return false
		}
	}
	return true
}

// clone returns an independent copy cut to fit, owned by a fresh store
// (epoch 0).
func (p *postings) clone() *postings { return &postings{ids: slices.Clone(p.ids)} }

// cloneAt is the copy-on-write step: an independent copy stamped with the
// given epoch, made with one allocation and one memmove. The copy is grown
// by append's amortised rule rather than cut to fit, so an insert that
// follows lands in it without a second allocation. A removal leaves that
// slack unused; an exact-fit, single-pass copy for the remove path was
// measured twice on sat.update and made no resolvable difference.
//
//webreason:writer
func (p *postings) cloneAt(epoch uint64) *postings {
	n := len(p.ids)
	return &postings{ids: slices.Grow(p.ids[:n:n], 1), epoch: epoch}
}
