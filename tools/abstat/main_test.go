package main

import (
	"strings"
	"testing"
)

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

func TestPeakLiveMB(t *testing.T) {
	log := strings.Join([]string{
		// The go build inside benchmark/run.sh traces too: its processes
		// number from gc 1, and one holds more live heap than the benchmark's
		// first cycles.
		"gc 1 @0.004s 2%: 0.011+0.52+0.002 ms clock, 0.022+0.10/0.40/0.21+0.004 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P",
		"gc 2 @0.031s 3%: 0.019+1.1+0.003 ms clock, 0.038+0.31/0.88/0.45+0.006 ms cpu, 190->191->180 MB, 8 MB goal, 0 MB stacks, 0 MB globals, 2 P",
		"gc 1 @0.002s 1%: 0.010+0.27+0.003 ms clock, 0.020+0.10/0.19/0.11+0.007 ms cpu, 3->3->0 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P",
		"benchmark: sat.update seed 7",
		"gc 2 @0.50s 4%: 0.03+12+0.01 ms clock, 0.06+3.1/11/2.0+0.02 ms cpu, 96->101->58 MB, 110 MB goal, 0 MB stacks, 0 MB globals, 2 P",
		"gc 3 @1.21s 5%: 0.03+40+0.01 ms clock, 0.06+9.5/38/1.0+0.02 ms cpu, 120->149->149 MB, 130 MB goal, 0 MB stacks, 0 MB globals, 2 P",
		`{"attempted": 10, "failed": 0, "metrics": {}}`,
		// A collection can land after the driver line.
		"gc 4 @16.3s 5%: 0.04+55+0.01 ms clock, 0.08+11/50/2+0.02 ms cpu, 300->310->120 MB, 298 MB goal, 0 MB stacks, 0 MB globals, 2 P (forced)",
	}, "\n")
	peak, cycles, err := peakLiveMB(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if peak != 149 || cycles != 4 {
		t.Errorf("peakLiveMB = %v MB over %d cycles, want 149 over 4 (the benchmark process only)", peak, cycles)
	}
	if peak, cycles, _ := peakLiveMB(strings.NewReader(`{"attempted": 1}`)); peak != 0 || cycles != 0 {
		t.Errorf("untraced log: %v MB over %d cycles, want 0 and 0", peak, cycles)
	}
}
