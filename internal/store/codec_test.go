package store

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dict"
)

// saveLoad round-trips a view through the binary codec.
func saveLoad(t *testing.T, v BinaryView) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := v.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	return got
}

// TestCodecRoundTripProperty drives random mutation sequences (the PR 1
// naive-reference generator pattern) and requires load(save(store)) to be
// observationally equivalent to the original on every pattern shape —
// including states with long leaves, emptied leaves and interleaved
// removes, and including serialising from a COW snapshot while the live
// store has moved on.
func TestCodecRoundTripProperty(t *testing.T) {
	const (
		rounds = 40
		steps  = 300
		maxID  = dict.ID(6)
	)
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < rounds; round++ {
		s := New()
		ref := newRefStore()
		randID := func() dict.ID { return dict.ID(rng.Intn(int(maxID)) + 1) }
		for step := 0; step < steps; step++ {
			x := Triple{randID(), randID(), randID()}
			if rng.Intn(3) < 2 {
				s.Add(x)
				ref.Add(x)
			} else {
				s.Remove(x)
				ref.Remove(x)
			}
		}
		got := saveLoad(t, s)
		checkEquivalent(t, round, got, ref, maxID)

		// Serialise from a snapshot, mutate the live store, then decode: the
		// snapshot bytes must reflect the frozen state, not the mutations.
		snap := s.Snapshot()
		var buf bytes.Buffer
		if err := snap.WriteBinary(&buf); err != nil {
			t.Fatalf("snapshot WriteBinary: %v", err)
		}
		for i := 0; i < 20; i++ {
			s.Add(Triple{randID(), randID(), randID()})
		}
		fromSnap, err := ReadBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("snapshot ReadBinary: %v", err)
		}
		checkEquivalent(t, round, fromSnap, ref, maxID)
	}
}

// TestCodecDeterministic pins canonical encoding: the same logical content
// serialises to identical bytes regardless of insertion order or mutation
// history (golden snapshot files rely on this).
func TestCodecDeterministic(t *testing.T) {
	a := New()
	b := New()
	var triples []Triple
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		triples = append(triples, Triple{dict.ID(rng.Intn(9) + 1), dict.ID(rng.Intn(9) + 1), dict.ID(rng.Intn(40) + 1)})
	}
	for _, tr := range triples {
		a.Add(tr)
	}
	for i := len(triples) - 1; i >= 0; i-- {
		b.Add(triples[i])
		b.Add(Triple{1, 1, 1})
		b.Remove(Triple{1, 1, 1})
	}
	b.Add(Triple{1, 1, 1})
	a.Add(Triple{1, 1, 1})
	var ab, bb bytes.Buffer
	if err := a.WriteBinary(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteBinary(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("same content serialised to different bytes")
	}
}

func TestCodecEmptyStore(t *testing.T) {
	got := saveLoad(t, New())
	if got.Len() != 0 {
		t.Fatalf("Len = %d", got.Len())
	}
	if !got.Add(Triple{1, 2, 3}) {
		t.Fatal("empty loaded store rejects Add")
	}
}

// TestReadBinaryRejectsCorrupt feeds structurally broken encodings and
// requires a clean error (no panic, no silently wrong store).
func TestReadBinaryRejectsCorrupt(t *testing.T) {
	s := New()
	s.Add(Triple{1, 2, 3})
	s.Add(Triple{1, 2, 4})
	s.Add(Triple{2, 3, 4})
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := func(off int, val byte) []byte {
		c := append([]byte{}, valid...)
		c[off] = val
		return c
	}
	cases := map[string][]byte{
		"empty":             {},
		"short header":      valid[:4],
		"truncated mid":     valid[:len(valid)-3],
		"trailing bytes":    append(append([]byte{}, valid...), 1, 2, 3),
		"size too large":    mutate(0, 200),
		"size mismatch":     mutate(0, 2),
		"zero key half":     nil, // built below
		"unsorted leaf ids": nil,
	}
	// Hand-build an encoding whose first SPO group key is zero — the decoder
	// must reject it before reading anything else.
	cases["zero key half"] = []byte{
		1, 0, 0, 0, 0, 0, 0, 0, // size=1
		1, 0, 0, 0, // spo: 1 group
		1, 0, 0, 0, // spo: 1 leaf
		0, 0, 0, 0, // a=0 (zero group key)
		1, 0, 0, 0, // nB=1
		2, 0, 0, 0, // b=2
		1, 0, 0, 0, // len=1
		3, 0, 0, 0, // id=3
	}
	cases["unsorted leaf ids"] = func() []byte {
		s2 := New()
		s2.Add(Triple{1, 2, 3})
		s2.Add(Triple{1, 2, 4})
		var b2 bytes.Buffer
		s2.WriteBinary(&b2)
		c := b2.Bytes()
		// SPO leaf ids start after 8(size)+8(nA,nLeaves)+8(a,nB)+8(b,len):
		// swap the two ids so the run descends.
		c[32], c[36] = c[36], c[32]
		return c
	}()

	for name, b := range cases {
		if b == nil {
			continue
		}
		if _, err := ReadBinary(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
