package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/dict"
	"repro/internal/store"
)

// Snapshot files. A snapshot is the durable form of one serving state at a
// mutation-batch boundary: the term dictionary, the asserted triples (G) as
// a single-index set image — one shape, whichever strategy wrote it — and,
// when the strategy materialises, the saturated store (G∞), so a restart
// skips re-saturation entirely. Layout:
//
//	magic   "WRSNAP"            6 bytes
//	version uint16 LE           format version; mismatch is rejected
//	gen     uint64 LE           generation the snapshot begins
//	term    uint64 LE           fencing term of the primary that wrote it
//	flags   uint32 LE           bit 0: saturated section present; bit 1
//	                            (version 3's set-image marker) is retired
//	section dict                framed (see below)
//	section base set            framed
//	section saturated store     framed, only when flagged
//
// Each section is [length uint64 LE][payload][crc32c uint32 LE]; the CRC is
// verified before the payload is handed to the dict/store decoders, so bit
// rot and torn writes surface as ErrSnapshotCorrupt, never as a decoder
// panic or a silently wrong store. Files are written to a temporary name,
// fsynced, and atomically renamed into place; a crash mid-write therefore
// never leaves a file the loader would consider.
//
// The encoding is canonical — same state, same bytes — because the store and
// dict codecs are, and the header holds no timestamps. Golden-file tests
// pin the bytes so any codec change must bump FormatVersion.

// FormatVersion is the current snapshot and WAL format version. Bump it on
// any change to the file layouts or the dict/store/term codecs.
// Version 2 added the fencing term to both headers (replication failover).
// Version 3 regrouped store index sections by first component for the
// persistent-trie (HAMT) index layout (see internal/store/codec.go).
// Version 4 writes G in one shape, the set image, which version 3 wrote only
// for saturation (flag bit 1) beside full store images, and links each WAL
// header to the previous WAL's length; version 3 files are refused, not
// converted.
const FormatVersion = 4

const (
	snapMagic   = "WRSNAP"
	flagHasGInf = 1 << 0
)

// sectionPad returns the zero-padding after an n-byte section payload that
// keeps the next section 4-byte aligned in the file (the 28-byte header,
// 8-byte length prefixes and 4-byte CRCs preserve the invariant).
func sectionPad(n int) int { return (4 - n%4) % 4 }

var (
	// ErrSnapshotCorrupt marks an unreadable snapshot file (bad magic,
	// failed CRC, truncation, or an inner codec error).
	ErrSnapshotCorrupt = errors.New("persist: corrupt snapshot")
	// ErrVersionMismatch marks a snapshot or WAL written by a different
	// format version; recovery refuses it rather than guessing.
	ErrVersionMismatch = errors.New("persist: format version mismatch")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// State is the writer-side view of one checkpointable serving state. BaseSet
// and Saturated are typically O(1) copy-on-write snapshots, and DictLen a
// dictionary length recorded at the same mutation-batch boundary — the
// append-only dictionary makes that prefix immutable, so a background
// checkpoint can serialise the whole State while the server keeps writing.
type State struct {
	// Dict is the live dictionary; DictLen the number of terms to persist.
	Dict    *dict.Dict
	DictLen int
	// BaseSet holds the asserted triples (G) as a single-index set image: a
	// third of a full store image's bytes and load work.
	BaseSet store.BinaryView
	// Saturated holds G∞ when the strategy materialises it; nil otherwise.
	Saturated store.BinaryView
}

// LoadedState is the result of reading a snapshot: freshly built, mutable
// structures owned by the caller.
type LoadedState struct {
	Dict *dict.Dict
	// BaseSet holds the asserted triples (G).
	BaseSet *store.TripleSet
	// Saturated is G∞, nil when the snapshot carries no saturation.
	Saturated  *store.Store
	Generation uint64
	// Term is the fencing term of the primary that wrote the snapshot; a
	// follower refuses to adopt state from a term below one it has already
	// seen (see ErrFenced).
	Term uint64
}

func snapshotPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", gen))
}

// writeSnapshotFile serialises st as generation gen under fencing term term
// into dir, atomically, through the given FS, and returns the image's length.
// sizeHint is the expected length (the previous image's, 0 when unknown): the
// image is built in one buffer, and reaching tens of megabytes by doubling
// from empty allocates over twice the image and re-copies all of it.
func writeSnapshotFile(fsys FS, dir string, gen, term uint64, st State, sizeHint int) (int, error) {
	var body bytes.Buffer
	body.Grow(sizeHint)
	header := make([]byte, 0, 28)
	header = append(header, snapMagic...)
	header = binary.LittleEndian.AppendUint16(header, FormatVersion)
	header = binary.LittleEndian.AppendUint64(header, gen)
	header = binary.LittleEndian.AppendUint64(header, term)
	flags := uint32(0)
	if st.Saturated != nil {
		flags |= flagHasGInf
	}
	header = binary.LittleEndian.AppendUint32(header, flags)
	body.Write(header)

	// Sections are serialised straight into the single body buffer — the
	// length prefix is backpatched after the payload is written, so peak
	// memory is one copy of the image, not two.
	writeSection := func(fill func(*bytes.Buffer) error) error {
		frameAt := body.Len()
		body.Write(make([]byte, 8)) // length placeholder
		start := body.Len()
		if err := fill(&body); err != nil {
			return err
		}
		n := body.Len() - start
		binary.LittleEndian.PutUint64(body.Bytes()[frameAt:], uint64(n))
		// Pad the payload to a 4-byte boundary so every section starts
		// 4-aligned within the file: the store decoder's zero-copy path
		// reinterprets aligned ID runs in place.
		for pad := sectionPad(n); pad > 0; pad-- {
			body.WriteByte(0)
		}
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(body.Bytes()[start:start+n], crcTable))
		body.Write(crc[:])
		return nil
	}
	if err := writeSection(func(w *bytes.Buffer) error { return st.Dict.WriteBinary(w, st.DictLen) }); err != nil {
		return 0, fmt.Errorf("persist: snapshot dict section: %w", err)
	}
	if err := writeSection(func(w *bytes.Buffer) error { return st.BaseSet.WriteBinary(w) }); err != nil {
		return 0, fmt.Errorf("persist: snapshot base section: %w", err)
	}
	if st.Saturated != nil {
		if err := writeSection(func(w *bytes.Buffer) error { return st.Saturated.WriteBinary(w) }); err != nil {
			return 0, fmt.Errorf("persist: snapshot saturated section: %w", err)
		}
	}

	return body.Len(), installSnapshot(fsys, dir, gen, body.Bytes())
}

// installSnapshot durably installs image b as generation gen's snapshot: it
// is written to a temporary name, fsynced and renamed into place, so a crash
// never leaves a file the loader would consider.
func installSnapshot(fsys FS, dir string, gen uint64, b []byte) error {
	final := snapshotPath(dir, gen)
	if err := writeFileSync(fsys, final+".tmp", b); err != nil {
		return err
	}
	if err := fsys.Rename(final+".tmp", final); err != nil {
		return err
	}
	return syncDir(fsys, dir)
}

// decodeSnapshot decodes a whole snapshot image of generation wantGen.
func decodeSnapshot(b []byte, wantGen uint64) (*LoadedState, error) {
	if len(b) < len(snapMagic)+2 {
		return nil, fmt.Errorf("%w: truncated header", ErrSnapshotCorrupt)
	}
	if string(b[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	b = b[len(snapMagic):]
	version := binary.LittleEndian.Uint16(b)
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrVersionMismatch, version, FormatVersion)
	}
	b = b[2:]
	if len(b) < 20 {
		return nil, fmt.Errorf("%w: truncated header", ErrSnapshotCorrupt)
	}
	gen := binary.LittleEndian.Uint64(b)
	term := binary.LittleEndian.Uint64(b[8:])
	flags := binary.LittleEndian.Uint32(b[16:])
	b = b[20:]
	if gen != wantGen {
		return nil, fmt.Errorf("%w: header generation %d, want %d", ErrSnapshotCorrupt, gen, wantGen)
	}
	if flags&^uint32(flagHasGInf) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrSnapshotCorrupt, flags)
	}

	section := func(name string) ([]byte, error) {
		if len(b) < 8 {
			return nil, fmt.Errorf("%w: truncated %s section header", ErrSnapshotCorrupt, name)
		}
		n := binary.LittleEndian.Uint64(b)
		b = b[8:]
		if n > uint64(len(b)) || uint64(len(b))-n < uint64(sectionPad(int(n)))+4 {
			return nil, fmt.Errorf("%w: %s section length %d exceeds file", ErrSnapshotCorrupt, name, n)
		}
		payload := b[:n]
		b = b[n+uint64(sectionPad(int(n))):]
		crc := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if crc32.Checksum(payload, crcTable) != crc {
			return nil, fmt.Errorf("%w: %s section CRC mismatch", ErrSnapshotCorrupt, name)
		}
		return payload, nil
	}

	dictPayload, err := section("dict")
	if err != nil {
		return nil, err
	}
	d, err := dict.ReadBinary(dictPayload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSnapshotCorrupt, err)
	}
	// Store sections are decoded with the dictionary length as ID bound, so
	// "every stored ID resolves to a term" — the one cross-section invariant
	// the per-section decoders cannot see alone — is enforced during the
	// decode pass itself.
	maxID := dict.ID(d.Len())
	basePayload, err := section("base")
	if err != nil {
		return nil, err
	}
	ls := &LoadedState{Dict: d, Generation: gen, Term: term}
	if ls.BaseSet, err = store.ReadSetBinary(basePayload, maxID); err != nil {
		return nil, fmt.Errorf("%w: base set: %w", ErrSnapshotCorrupt, err)
	}
	if flags&flagHasGInf != 0 {
		satPayload, err := section("saturated")
		if err != nil {
			return nil, err
		}
		if ls.Saturated, err = store.ReadBinaryChecked(satPayload, maxID); err != nil {
			return nil, fmt.Errorf("%w: saturated: %w", ErrSnapshotCorrupt, err)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(b))
	}
	return ls, nil
}

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(fsys FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(fsys FS, dir string) error {
	f, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
