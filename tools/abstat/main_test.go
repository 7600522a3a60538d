package main

import (
	"fmt"
	"os"
	"path/filepath"
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
	tr, err := readTrace(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if tr != (gcTrace{peakMB: 149, cycles: 4, cpuPct: 5}) {
		t.Errorf("readTrace = %+v, want 149 MB peak over 4 cycles at 5%% GC CPU (the benchmark process only)", tr)
	}
	if tr, _ := readTrace(strings.NewReader(`{"attempted": 1}`)); tr != (gcTrace{}) {
		t.Errorf("untraced log: %+v, want nothing", tr)
	}
}

// TestKilledRuns feeds abstat a run that tools/ab.sh recorded as killed (an
// OOM kill ends a traced log mid-trace, at a far larger live heap) and
// checks that the pair leaves every median, the trace rows included, that
// the kill and its last line are reported, and that a head side with a
// killed run is granted no gain however clear the remaining pairs are.
func TestKilledRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := write("BENCHMARK.json", `{"end_to_end": [{"name": "work_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}`)
	line := func(work float64) string {
		return fmt.Sprintf(`{"attempted": 100, "failed": 0, "metrics": {"work_s": {"value": %v}}}`, work)
	}
	const killed = `{"killed": true, "exit": 137, "last": "gc 90 @12.8s 24%: 1+2+3 ms clock, 4->5->5231 MB"}`
	gc := func(pct, live int) string {
		return fmt.Sprintf("gc 1 @0.1s 1%%: 0.01+0.5+0.002 ms clock, 0.02+0.1/0.4/0.2+0.004 ms cpu, 4->4->1 MB, 4 MB goal, 2 P\n"+
			"gc 2 @9.9s %d%%: 0.01+0.5+0.002 ms clock, 0.02+0.1/0.4/0.2+0.004 ms cpu, 90->95->%d MB, 100 MB goal, 2 P\n", pct, live)
	}
	// Seeds 9 and 10 order numerically, not as strings.
	for i, seed := range []int{8, 9, 10} {
		write(fmt.Sprintf("head.%d.txt", seed), gc(10, 60)+line(80)+"\n")
		if i == 2 {
			write(fmt.Sprintf("base.%d.txt", seed), gc(24, 5231))
		} else {
			write(fmt.Sprintf("base.%d.txt", seed), gc(20+i, 100+i)+line(40)+"\n")
		}
	}
	base := write("base.jsonl", line(40)+"\n"+line(41)+"\n"+killed+"\n")
	head := write("head.jsonl", line(80)+"\n"+line(81)+"\n"+line(82)+"\n")

	var out strings.Builder
	if err := run(&out, bench, base, head, dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"killed: base 1/3, head 0/3; 2 complete pairs compared",
		"pair 3: base exited 137; last line: gc 90 @12.8s",
		"pair 3: base's trace ends at 5231 MB peak live heap",
		"peak_live_mb  100.5 [100.2–100.8] MB",
		"gc_cpu_pct    20.5 [20.25–20.75] %",
		"gain (",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}

	// The same pairs with the sides swapped: head now has the killed run.
	out.Reset()
	if err := run(&out, bench, head, base, ""); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); strings.Contains(s, "gain (") || !strings.Contains(s, "head has killed runs: no gain counts") {
		t.Errorf("a killed head run must rule out gain:\n%s", s)
	}

	// Every pair broken: a report of the kills, no table.
	out.Reset()
	all := write("killed.jsonl", killed+"\n")
	one := write("one.jsonl", line(1)+"\n")
	if err := run(&out, bench, all, one, ""); err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "no complete pair") || strings.Contains(s, "work_s") {
		t.Errorf("no complete pair: want the kills reported and no table:\n%s", s)
	}
}

// TestThresholdRows reads the fig3.threshold_gmean lines fig3.batch runs
// close with and checks that each of the five becomes a reported-only row of
// medians and quartiles per side, in the order the runs printed them, while
// logs of another workload add no such row.
func TestThresholdRows(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := write("BENCHMARK.json", `{"end_to_end": [{"name": "work_s", "unit": "1/s", "better": "higher", "bound": 0.25}]}`)
	line := func(work float64) string {
		return fmt.Sprintf(`{"attempted": 100, "failed": 0, "metrics": {"work_s": {"value": %v}}}`, work)
	}
	const gc = "gc 1 @0.1s 1%: 0.01+0.5+0.002 ms clock, 0.02+0.1/0.4/0.2+0.004 ms cpu, 4->4->1 MB, 4 MB goal, 2 P\n"
	names := []string{"saturation threshold", "threshold for an instance insertion", "threshold for an instance deletion",
		"threshold for a schema insertion", "threshold for a schema deletion"}
	closing := func(scale float64) string {
		var b strings.Builder
		b.WriteString("  fig3.threshold Q1   saturation threshold=12 threshold for a schema deletion=3\n")
		for i, n := range names {
			fmt.Fprintf(&b, "  fig3.threshold_gmean %s=%.1f executions (over 14 of 14 queries with a finite threshold)\n", n, scale*float64(i+1))
		}
		return b.String()
	}
	for i, seed := range []int{1, 2, 3} {
		write(fmt.Sprintf("base.%d.txt", seed), gc+line(40)+"\n"+closing(100+float64(i)))
		write(fmt.Sprintf("head.%d.txt", seed), gc+line(80)+"\n"+closing(50+float64(i)))
	}
	base := write("base.jsonl", line(40)+"\n"+line(41)+"\n"+line(42)+"\n")
	head := write("head.jsonl", line(80)+"\n"+line(81)+"\n"+line(82)+"\n")
	var out strings.Builder
	if err := run(&out, bench, base, head, dir); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	at := -1
	for i, n := range names {
		row := fmt.Sprintf("fig3 %s %s [%s–%s] executions", n, num(101*float64(i+1)), num(100.5*float64(i+1)), num(101.5*float64(i+1)))
		j := strings.Index(s, row)
		if j < at {
			t.Fatalf("row %q missing or out of order:\n%s", row, s)
		}
		at = j
		if head := fmt.Sprintf("%s [%s–%s] executions", num(51*float64(i+1)), num(50.5*float64(i+1)), num(51.5*float64(i+1))); !strings.Contains(s[j:], head) {
			t.Errorf("row %q lacks head's %q:\n%s", n, head, s)
		}
	}
	if !strings.Contains(s, "reported only (-49.5%; fig3.threshold_gmean)") {
		t.Errorf("threshold rows are not marked reported only:\n%s", s)
	}

	// Another workload's logs: no threshold rows.
	for _, seed := range []int{1, 2, 3} {
		write(fmt.Sprintf("base.%d.txt", seed), gc+line(40)+"\n")
		write(fmt.Sprintf("head.%d.txt", seed), gc+line(80)+"\n")
	}
	out.Reset()
	if err := run(&out, bench, base, head, dir); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "fig3 ") {
		t.Errorf("threshold rows without threshold lines:\n%s", out.String())
	}
}
