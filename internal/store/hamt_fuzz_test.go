package store

import (
	"bytes"
	"testing"

	"repro/internal/dict"
)

// FuzzHAMTNodeDecode drives the store index codec — the grouped two-level
// encoding the persistent-trie indexes are rebuilt from — with arbitrary
// bytes. Contract: ReadBinary/ReadBinaryChecked/ReadSetBinary must accept or
// reject cleanly, never panic (they reconstruct trie nodes and carve arena
// slices from attacker-controlled counts), and anything accepted must be a
// well-formed, mutable store whose re-encoding reproduces the input byte for
// byte (the encoding is canonical: trie iteration order is the only order).
func FuzzHAMTNodeDecode(f *testing.F) {
	seed := func(build func(*Store)) {
		s := New()
		build(s)
		var buf bytes.Buffer
		if err := s.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(func(s *Store) {}) // empty
	seed(func(s *Store) {   // a few small leaves
		s.Add(Triple{1, 2, 3})
		s.Add(Triple{1, 2, 4})
		s.Add(Triple{2, 3, 4})
	})
	seed(func(s *Store) { // long postings leaf + long side-table b-set
		for o := dict.ID(1); o <= 48; o++ {
			s.Add(Triple{1, 2, o})
			s.Add(Triple{1, o, 9})
		}
	})
	seed(func(s *Store) { // keys past one trie level (deep a-level nodes)
		for i := dict.ID(1); i <= 40; i++ {
			s.Add(Triple{i * 97, i * 131, i * 211})
		}
	})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}) // size=1, truncated sections
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadBinary(data)
		// The checked variant and the single-index set decoder must be
		// exactly as panic-free on the same input.
		sc, errC := ReadBinaryChecked(data, 1<<20)
		ReadSetBinary(data, 1<<20)
		if err != nil {
			return
		}
		// The checked variant may additionally reject out-of-bound IDs; when
		// it accepts, it must have decoded the same store.
		if errC == nil && sc.Len() != s.Len() {
			t.Fatalf("ReadBinaryChecked Len=%d, ReadBinary Len=%d", sc.Len(), s.Len())
		}
		// Accepted: canonical re-encode.
		var buf bytes.Buffer
		if err := s.WriteBinary(&buf); err != nil {
			t.Fatalf("re-encoding accepted store: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("re-encode differs from accepted input: %d vs %d bytes", buf.Len(), len(data))
		}
		// Structural invariants: the three indexes agree on size, and the
		// decoded store is mutable (decode may alias input bytes; mutation
		// must copy, not write through).
		n := s.Len()
		count := 0
		s.ForEachMatch(Triple{}, func(tr Triple) bool {
			count++
			if !s.Contains(tr) {
				t.Fatalf("enumerated triple %v not Contains-visible", tr)
			}
			return true
		})
		if count != n {
			t.Fatalf("enumeration yielded %d triples, Len says %d", count, n)
		}
		probe := Triple{1, 1, 1}
		had := s.Contains(probe)
		if had {
			s.Remove(probe)
			s.Add(probe)
		} else {
			s.Add(probe)
			s.Remove(probe)
		}
		if s.Contains(probe) != had || s.Len() != n {
			t.Fatalf("mutation round trip changed state: Len=%d want %d", s.Len(), n)
		}
	})
}
