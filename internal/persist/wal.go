package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"repro/internal/rdf"
)

// WAL files. Each generation g has one append-only log wal-g holding the
// mutation batches applied after the state captured by snap-g (or after the
// empty bootstrap state when g is the first generation and no snapshot
// exists). Layout:
//
//	magic   "WRWAL"     5 bytes
//	version uint16 LE
//	gen     uint64 LE
//	term    uint64 LE   fencing term of the primary that owns the generation
//	prev    uint64 LE   length of wal-(gen-1) when it ended and this
//	                    generation began, 0 when there was none
//	records…
//
// One record per applied mutation run, length-prefixed and CRC-checked:
//
//	length  uint32 LE   payload bytes
//	crc32c  uint32 LE   of the payload
//	payload = op byte (0 insert, 1 delete) + uvarint triple count
//	          + count term-level triples (rdf binary codec)
//
// Records are term-level, not dictionary-encoded, so they replay through the
// normal Insert/Delete path of any strategy and never depend on how the
// dictionary evolved after the snapshot.
//
// Crash anatomy on read: a record that runs past the end of the file — or
// whose full extent is present but CRC-invalid with nothing after it — is a
// torn final append and is truncated away; a CRC-invalid or undecodable
// record with more data behind it cannot be explained by a crashed append
// and is reported as ErrWALCorrupt instead of silently dropping applied
// history. A WAL that lost whole records at its end is told from a complete
// one only by the next generation's prev, which links the chain: recovery
// ends the run where a link does not match.

const (
	walMagic     = "WRWAL"
	walHeaderLen = len(walMagic) + 2 + 8 + 8 + 8
	walRecHdrLen = 8
	maxWALRecord = 1 << 28 // sanity bound on one record's length claim
	opInsert     = 0
	opDelete     = 1
)

// ErrWALCorrupt marks a WAL whose damage cannot be explained by a torn
// final append (mid-log CRC failure, undecodable payload, bad header).
var ErrWALCorrupt = errors.New("persist: corrupt WAL")

// ErrWALBound marks an append refused because the live WAL chain — every
// generation not yet superseded by a durable snapshot — would exceed
// Options.MaxWALBytes. It only arises when checkpoints keep failing (GC
// cannot run); the caller should degrade to read-only serving and surface
// the condition rather than keep writing toward a full disk.
var ErrWALBound = errors.New("persist: WAL chain exceeds configured byte bound")

// Mutation is one replayable WAL record: a run of inserts or deletes.
type Mutation struct {
	Del     bool
	Triples []rdf.Triple
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.wal", gen))
}

// encodeWALHeader builds a WAL file header for generation gen owned by the
// primary whose fencing term is term, begun after a previous WAL of prev
// bytes (0 when none).
func encodeWALHeader(gen, term uint64, prev int64) []byte {
	b := make([]byte, 0, walHeaderLen)
	b = append(b, walMagic...)
	b = binary.LittleEndian.AppendUint16(b, FormatVersion)
	b = binary.LittleEndian.AppendUint64(b, gen)
	b = binary.LittleEndian.AppendUint64(b, term)
	b = binary.LittleEndian.AppendUint64(b, uint64(prev))
	return b
}

// walHeader is a decoded WAL file header.
type walHeader struct {
	gen, term uint64
	prev      int64
}

// WALHeaderLen is the byte length of a WAL file header — the offset of the
// first record. Replication streams a WAL verbatim, so the follower needs the
// boundary to know where a fresh generation's records begin.
const WALHeaderLen = walHeaderLen

// parseWALHeader decodes the first WALHeaderLen bytes of a WAL file. It
// rejects short buffers, a bad magic and a foreign format version; it is the
// validation a mirror runs on the header bytes it is about to adopt
// verbatim.
func parseWALHeader(b []byte) (walHeader, error) {
	if len(b) < walHeaderLen {
		return walHeader{}, fmt.Errorf("%w: truncated header", ErrWALCorrupt)
	}
	if string(b[:len(walMagic)]) != walMagic {
		return walHeader{}, fmt.Errorf("%w: bad magic", ErrWALCorrupt)
	}
	version := binary.LittleEndian.Uint16(b[len(walMagic):])
	if version != FormatVersion {
		return walHeader{}, fmt.Errorf("%w: WAL version %d, this build reads %d", ErrVersionMismatch, version, FormatVersion)
	}
	b = b[len(walMagic)+2:]
	return walHeader{
		gen:  binary.LittleEndian.Uint64(b),
		term: binary.LittleEndian.Uint64(b[8:]),
		prev: int64(binary.LittleEndian.Uint64(b[16:])),
	}, nil
}

// errRecordTooLarge is returned by Append for a batch whose encoding
// exceeds maxWALRecord: writing it would succeed but the decoder would
// refuse the file on the next boot, turning acknowledged data into an
// unrecoverable directory.
var errRecordTooLarge = fmt.Errorf("persist: mutation batch exceeds the %d-byte WAL record limit", maxWALRecord)

// appendWALRecord appends one framed record to buf and returns it.
//
//webreason:hotpath
func appendWALRecord(buf []byte, del bool, ts []rdf.Triple) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame placeholder
	op := byte(opInsert)
	if del {
		op = opDelete
	}
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, uint64(len(ts)))
	for _, t := range ts {
		buf = rdf.AppendTriple(buf, t)
	}
	payload := buf[start+walRecHdrLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// decodeWALPayload decodes one record payload.
func decodeWALPayload(b []byte) (Mutation, error) {
	if len(b) == 0 {
		return Mutation{}, fmt.Errorf("%w: empty record", ErrWALCorrupt)
	}
	op := b[0]
	if op != opInsert && op != opDelete {
		return Mutation{}, fmt.Errorf("%w: unknown op %d", ErrWALCorrupt, op)
	}
	b = b[1:]
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return Mutation{}, fmt.Errorf("%w: bad triple count", ErrWALCorrupt)
	}
	b = b[k:]
	// ≥ 6 bytes per triple (three one-byte tags + three empty strings), so a
	// count the buffer cannot hold fails before allocating. The division
	// keeps the comparison overflow-safe for adversarial counts near 2^64:
	// n > len(b)/6 ⟺ 6n > len(b) in the integers.
	if n > uint64(len(b))/6 {
		return Mutation{}, fmt.Errorf("%w: triple count %d exceeds record", ErrWALCorrupt, n)
	}
	m := Mutation{Del: op == opDelete, Triples: make([]rdf.Triple, 0, n)}
	for i := uint64(0); i < n; i++ {
		t, used, err := rdf.DecodeTriple(b)
		if err != nil {
			return Mutation{}, fmt.Errorf("%w: triple %d: %w", ErrWALCorrupt, i, err)
		}
		if err := t.WellFormed(); err != nil {
			return Mutation{}, fmt.Errorf("%w: triple %d: %w", ErrWALCorrupt, i, err)
		}
		b = b[used:]
		m.Triples = append(m.Triples, t)
	}
	if len(b) != 0 {
		return Mutation{}, fmt.Errorf("%w: %d trailing bytes in record", ErrWALCorrupt, len(b))
	}
	return m, nil
}

// DecodeWALRecords parses complete records from a buffer that begins at a
// record boundary (anywhere after the file header) and ends at the file's
// current end. It returns the decoded records and the number of bytes they
// span; consumed < len(b) means the buffer ends in an incomplete or
// CRC-invalid final frame — either a torn crash append or an append still in
// flight on a live file — which the caller retries (a streaming follower) or
// truncates away (recovery). Damage that a racing or torn final append cannot
// explain — an oversized length claim, or an invalid record with more data
// behind it — returns ErrWALCorrupt, with recs and consumed still describing
// the verified records before it. Offsets in errors are relative to b.
func DecodeWALRecords(b []byte) (recs []Mutation, consumed int64, err error) {
	off := int64(0)
	rest := b
	for len(rest) > 0 {
		if len(rest) < walRecHdrLen {
			return recs, off, nil // torn: partial frame header
		}
		length := binary.LittleEndian.Uint32(rest)
		crc := binary.LittleEndian.Uint32(rest[4:])
		if length > maxWALRecord {
			// Append never writes a record this large (errRecordTooLarge),
			// and a torn append leaves a genuine length field behind (the
			// frame header is written before the payload), so an oversized
			// claim is a corrupt frame header — checked BEFORE the
			// runs-past-EOF test, which would otherwise misread it as a torn
			// tail and silently truncate every record behind it.
			return recs, off, fmt.Errorf("%w: record length %d at offset %d exceeds limit", ErrWALCorrupt, length, off)
		}
		if uint64(len(rest)-walRecHdrLen) < uint64(length) {
			return recs, off, nil // torn: payload runs past EOF
		}
		payload := rest[walRecHdrLen : walRecHdrLen+int(length)]
		tail := rest[walRecHdrLen+int(length):]
		if crc32.Checksum(payload, crcTable) != crc {
			if len(tail) == 0 {
				return recs, off, nil // torn: garbage final record
			}
			return recs, off, fmt.Errorf("%w: CRC mismatch at offset %d with %d bytes following", ErrWALCorrupt, off, len(tail))
		}
		m, err := decodeWALPayload(payload)
		if err != nil {
			return recs, off, fmt.Errorf("%w at offset %d: %w", ErrWALCorrupt, off, err)
		}
		recs = append(recs, m)
		off += int64(walRecHdrLen) + int64(length)
		rest = tail
	}
	return recs, off, nil
}

// decodeWAL parses a whole WAL image for the expected generation. It returns
// the decoded records, the header, and the number of bytes of
// b that form a valid prefix; validLen < len(b) means a torn final append
// that the caller should truncate away. Damage that a torn append cannot
// explain returns ErrWALCorrupt (or ErrVersionMismatch for a foreign
// version); past a valid header, recs and validLen then still describe the
// verified prefix before the damage, and validLen is 0 otherwise.
func decodeWAL(b []byte, wantGen uint64) (recs []Mutation, h walHeader, validLen int64, err error) {
	h, err = parseWALHeader(b)
	if err != nil {
		return nil, walHeader{}, 0, err
	}
	if h.gen != wantGen {
		return nil, walHeader{}, 0, fmt.Errorf("%w: header generation %d, want %d", ErrWALCorrupt, h.gen, wantGen)
	}
	recs, n, err := DecodeWALRecords(b[walHeaderLen:])
	return recs, h, int64(walHeaderLen) + n, err
}
