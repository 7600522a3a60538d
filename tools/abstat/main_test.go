package main

import "testing"

func TestCompareVerdicts(t *testing.T) {
	higher := metricSpec{Name: "work_s", Better: "higher", Bound: 0.25}
	lower := metricSpec{Name: "primary_us", Better: "lower", Bound: 0.25}
	ten := func(v ...float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = v[i%len(v)]
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		m          metricSpec
		base, head []float64
		want       string
		wins       int
	}{
		{"clear gain", higher, ten(38, 40, 39, 41), ten(72, 75, 73, 74), "gain", 10},
		{"gain on a lower-is-better metric", lower, ten(11000, 11500), ten(6200, 6300), "gain", 10},
		{"nine wins of ten is enough", higher, []float64{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, []float64{60, 60, 60, 60, 60, 60, 60, 60, 60, 39}, "gain", 9},
		{"eight wins is not", higher, []float64{40, 40, 40, 40, 40, 40, 40, 40, 40, 40}, []float64{60, 60, 60, 60, 60, 60, 60, 60, 39, 39}, "no regression", 8},
		{"wins inside the parent's own spread are not a gain", higher, []float64{25, 33, 40, 47, 55, 25, 33, 40, 47, 55}, []float64{26, 34, 41, 48, 56, 26, 34, 41, 48, 56}, "unresolved", 10},
		{"worse by more than the bound", lower, ten(100, 102), ten(140, 141), "REGRESSION", 0},
		{"worse inside the bound", lower, ten(100, 102), ten(110, 111), "no regression", 0},
		{"spread wider than the bound", lower, ten(264, 451, 300, 380), ten(280, 304, 400, 350), "unresolved", 0},
		{"ties count for neither side", higher, ten(5), ten(5), "no regression", 0},
	} {
		r := compare(tc.m, tc.base, tc.head)
		if r.verdict != tc.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", tc.name, r.verdict, tc.want, r)
		}
		if tc.wins != 0 && r.wins != tc.wins {
			t.Errorf("%s: %d wins, want %d", tc.name, r.wins, tc.wins)
		}
	}
	if q1, med, q3 := quartiles([]float64{4, 1, 3, 2, 5}); q1 != 2 || med != 3 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 2 3 4", q1, med, q3)
	}
}
