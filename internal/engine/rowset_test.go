package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dict"
)

// TestRowSetMatchesMap checks the dedup set against a map of formatted rows.
// One set serves every execution, as one pooled scratch does: widths one to
// five in turn, hints from none to more than the rows, populations that
// double the table several times past its hint, IDs that grow the bitset
// and rows with dict.None columns. A width-one execution that follows
// another must see none of its rows, so the release between executions is
// part of what is checked.
func TestRowSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s rowSet
	for exec := 0; exec < 200; exec++ {
		w := 1 + rng.Intn(5)
		n := rng.Intn(600)
		hint := []int{0, n / 8, n, 2 * n}[rng.Intn(4)]
		// IDs from a small range repeat rows often; now and then the range
		// reaches far, to grow the bitset mid-execution.
		span := 1 + rng.Intn(12)
		if rng.Intn(8) == 0 {
			span = 1 << 16
		}
		var admitted [][]dict.ID
		ref := map[string]bool{}
		s.start(w, hint)
		for i := 0; i < n; i++ {
			row := make([]dict.ID, w)
			for j := range row {
				row[j] = dict.ID(rng.Intn(span)) // 0 is dict.None
			}
			k := fmt.Sprint(row)
			if got, want := s.add(row, admitted), !ref[k]; got != want {
				t.Fatalf("exec %d (width %d, hint %d): add(%v) after %d rows = %v, want %v", exec, w, hint, row, len(admitted), got, want)
			}
			if !ref[k] {
				ref[k] = true
				admitted = append(admitted, row)
			}
		}
		for _, row := range admitted {
			if s.add(slices.Clone(row), admitted) {
				t.Fatalf("exec %d (width %d): admitted row %v added again", exec, w, row)
			}
		}
		if w > 1 && 4*len(admitted) > 3*len(s.slots) {
			t.Fatalf("exec %d: %d rows in %d slots, past ¾ load", exec, len(admitted), len(s.slots))
		}
		s.release(admitted)
	}
}
