package persist

// Chain recovery: the one walk that Open and OpenMirror recover a directory
// by, each applying its own policy to what it finds (see the package doc).

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
)

// chain is what one walk finds in a data directory.
type chain struct {
	snaps, wals []uint64     // generations present, ascending
	loaded      *LoadedState // the newest loadable snapshot, nil when none loads
	snapErrs    []error      // why each snapshot above loaded did not load
	term        uint64       // the highest term along the snapshot and the run
	run         []walFile    // the verified run, contiguous from start()
	tail        []Mutation   // the run's records, in order
	bytes       int64        // the length of the run's verified prefixes
	// stop is the first point above the snapshot that is not a verified
	// prefix; nil when the walk reached the newest WAL. When the stop lies
	// inside a WAL past its header, the records before it are in run and
	// tail.
	stop error
}

// walFile is one WAL of the run: the length of its verified prefix (header
// included), its length on disk, and the number of records in the prefix.
type walFile struct {
	gen         uint64
	valid, size int64
	recs        int
}

// errTornRotation stops the walk at the newest WAL when it is shorter than
// its header: a crash between creating the next generation's file and
// completing its header. Such a file never held a record.
var errTornRotation = errors.New("persist: torn rotation")

// walkChain recovers the verified prefix of dir's chain. It fails only when
// the directory or a file cannot be read; damage is reported in stop.
func walkChain(fsys FS, dir string) (*chain, error) {
	// Snapshot temporaries are orphaned by a crash mid-checkpoint: the atomic
	// rename means they never were durable state, and nothing else deletes
	// them.
	if entries, err := fsys.ReadDir(dir); err == nil {
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".snap.tmp") {
				fsys.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	snaps, wals, err := scanDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	c := &chain{snaps: snaps, wals: wals}
	// Fall back past unreadable snapshots: a crash cannot leave a
	// half-renamed one, but bit rot can leave one unreadable, and an older
	// snapshot plus the WALs above it covers the same history.
	for i := len(snaps) - 1; i >= 0 && c.loaded == nil; i-- {
		b, err := fsys.ReadFile(snapshotPath(dir, snaps[i]))
		var ls *LoadedState
		if err == nil {
			ls, err = decodeSnapshot(b, snaps[i])
		}
		if err != nil {
			c.snapErrs = append(c.snapErrs, fmt.Errorf("snap %d: %w", snaps[i], err))
			continue
		}
		c.loaded, c.term = ls, ls.Term
	}
	if c.loaded == nil && len(snaps) > 0 {
		return c, nil // no state to walk from
	}
	next := c.start()
	for _, g := range wals {
		if g < c.start() {
			continue // superseded by the snapshot
		}
		if g != next {
			c.stop = fmt.Errorf("%w: generation gap, wal %d where %d was expected", ErrWALCorrupt, g, next)
			return c, nil
		}
		path := walPath(dir, g)
		b, err := fsys.ReadFile(path)
		if err != nil {
			return nil, err
		}
		newest := g == wals[len(wals)-1]
		if len(b) < walHeaderLen && newest {
			c.stop = errTornRotation
			return c, nil
		}
		recs, hdr, valid, err := decodeWAL(b, g)
		if err != nil {
			err = fmt.Errorf("persist: %s: %w", path, err)
		}
		joins := valid > 0 // the header is sound
		if joins && hdr.term < c.term {
			// Ownership only moves forward (promotion bumps the term), so a
			// term regression means files from two histories were mixed.
			joins = false
			if err == nil {
				err = fmt.Errorf("%w: %s carries term %d below the chain's term %d", ErrWALCorrupt, path, hdr.term, c.term)
			}
		}
		if prev, ok := c.tip(); joins && ok && hdr.prev != prev.valid {
			// The previous WAL lost records at a record boundary, or this
			// header is damaged: either way the run ends with the previous
			// WAL.
			joins = false
			if err == nil {
				err = fmt.Errorf("%w: %s begins after %d bytes of wal %d, which holds %d", ErrWALCorrupt, path, hdr.prev, prev.gen, prev.valid)
			}
		}
		if !joins {
			c.stop = err
			return c, nil
		}
		c.term = hdr.term
		c.run = append(c.run, walFile{gen: g, valid: valid, size: int64(len(b)), recs: len(recs)})
		c.bytes += valid
		c.tail = append(c.tail, recs...)
		// A torn final record is the signature of a crash mid-append, which
		// only the newest WAL can show: rotation syncs a WAL before the next
		// one is created.
		if err == nil && valid < int64(len(b)) && !newest {
			err = fmt.Errorf("%w: %s has a torn record but is not the newest log", ErrWALCorrupt, path)
		}
		if err != nil {
			c.stop = err
			return c, nil
		}
		next = g + 1
	}
	return c, nil
}

// start returns the generation the run begins at: the loaded snapshot's, or
// the bootstrap generation 1, whose starting state is empty.
func (c *chain) start() uint64 {
	if c.loaded != nil {
		return c.loaded.Generation
	}
	return 1
}

// tip returns the run's last WAL; ok is false when the run is empty.
func (c *chain) tip() (f walFile, ok bool) {
	if len(c.run) == 0 {
		return walFile{}, false
	}
	return c.run[len(c.run)-1], true
}

// trimTip cuts the run's last WAL back to its verified prefix.
func (c *chain) trimTip(fsys FS, dir string) error {
	if tip, ok := c.tip(); ok && tip.valid < tip.size {
		return fsys.Truncate(walPath(dir, tip.gen), tip.valid)
	}
	return nil
}

// removeBelow deletes the snapshots and WALs of generations older than gen
// and returns how many removals failed. A failure is not fatal: the file is
// superseded, recovery ignores it while the chain above stays valid, and the
// next pass, which rescans the directory, tries again.
func removeBelow(fsys FS, dir string, gen uint64) (failed int64) {
	snaps, wals, err := scanDir(fsys, dir)
	if err != nil {
		return 1
	}
	remove := func(path string) {
		if err := fsys.Remove(path); err != nil && !isNotExist(err) {
			failed++ // ENOENT is not a failure: a concurrent pass already won
		}
	}
	for _, g := range snaps {
		if g < gen {
			remove(snapshotPath(dir, g))
		}
	}
	for _, g := range wals {
		if g < gen {
			remove(walPath(dir, g))
		}
	}
	return failed
}

// scanDir lists the snapshot and WAL generations present in dir, ascending.
func scanDir(fsys FS, dir string) (snaps, wals []uint64, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		var g uint64
		switch {
		case matchGen(name, "snap-", ".snap", &g):
			snaps = append(snaps, g)
		case matchGen(name, "wal-", ".wal", &g):
			wals = append(wals, g)
		}
	}
	slices.Sort(snaps)
	slices.Sort(wals)
	return snaps, wals, nil
}

// matchGen parses names of the form prefix + 16 hex digits + suffix.
func matchGen(name, prefix, suffix string, g *uint64) bool {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	hex := name[len(prefix) : len(prefix)+16]
	var v uint64
	for i := 0; i < 16; i++ {
		c := hex[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return false
		}
	}
	*g = v
	return true
}
