// Command abstat turns the paired runs tools/ab.sh collected into the table
// and verdicts a performance claim is judged by. It reads BENCHMARK.json for
// the end-to-end metrics (direction and bound) and two files of driver lines
// — the JSON line benchmark/run.sh prints last — whose i-th lines are the two
// sides of pair i. With -gctrace DIR it also reads every run's full output,
// DIR/base.*.txt and DIR/head.*.txt, taken under GODEBUG=gctrace=1, and adds
// a reported-only row: per side, the median [q1–q3] of each run's peak live
// heap.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share by which the median may worsen
}

// driverLine is the result of one run, as the benchmark prints it.
type driverLine struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// quartiles returns q1, the median and q3 of xs by linear interpolation.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		h := p * float64(len(s)-1)
		i := int(h)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (h-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// result is one metric's comparison over all pairs.
type result struct {
	baseQ1, baseMed, baseQ3 float64
	headQ1, headMed, headQ3 float64
	wins, losses            int // pairs head won / lost; ties count for neither
	verdict                 string
}

// compare applies the rules of the choosing-metrics guide to one metric.
// gain: head wins at least nine tenths of all pairs and the medians differ, in
// the better direction, by more than the distance between base's quartiles.
// REGRESSION: head's median is worse than base's by more than the bound.
// unresolved: neither, but base's own quartiles are further apart than the
// bound allows the median to move, so these runs could not have shown a
// regression of that size. no regression: otherwise.
func compare(m metricSpec, base, head []float64) result {
	var r result
	r.baseQ1, r.baseMed, r.baseQ3 = quartiles(base)
	r.headQ1, r.headMed, r.headQ3 = quartiles(head)
	sign := 1.0 // makes "larger is better" of every metric
	if m.Better == "lower" {
		sign = -1
	}
	for i := range base {
		switch d := sign * (head[i] - base[i]); {
		case d > 0:
			r.wins++
		case d < 0:
			r.losses++
		}
	}
	improvement := sign * (r.headMed - r.baseMed)
	iqr := r.baseQ3 - r.baseQ1
	allowed := m.Bound * math.Abs(r.baseMed)
	switch {
	case 10*r.wins >= 9*len(base) && improvement > iqr:
		r.verdict = "gain"
	case -improvement > allowed:
		r.verdict = "REGRESSION"
	case iqr > allowed:
		r.verdict = "unresolved"
	default:
		r.verdict = "no regression"
	}
	return r
}

// num prints four significant digits, and every digit of a larger integer
// part: 0.6077, 54.81, 283.6, 11280.
func num(x float64) string {
	if math.Abs(x) >= 1000 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.4g", x)
}

func readLines(path string) ([]driverLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []driverLine
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var l driverLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s line %d: not a driver line: %w", path, len(out)+1, err)
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// gcHeap matches a GODEBUG=gctrace=1 line, "gc 7 @… 4->5->2 MB, …" (heap at
// the start of the cycle, at its end, and live after it), capturing the live
// heap.
var gcHeap = regexp.MustCompile(`^gc \d+ @.* \d+->\d+->(\d+) MB`)

// peakLiveMB returns the largest live heap after a collection (the c of
// a->b->c MB) that the trace in r reports for its last Go process, and the
// number of collections that process ran. Every process numbers its
// collections from "gc 1", and benchmark/run.sh execs the benchmark only after
// its `go build` (whose processes inherit GODEBUG and trace too) has exited,
// so the benchmark's trace is the one that starts at the last "gc 1 @".
// Lines that are not trace lines, the driver's JSON line among them, are
// skipped wherever they fall.
func peakLiveMB(r io.Reader) (peak float64, cycles int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := gcHeap.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if strings.HasPrefix(line, "gc 1 @") {
			peak, cycles = 0, 0
		}
		live, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return 0, 0, err
		}
		peak, cycles = math.Max(peak, live), cycles+1
	}
	return peak, cycles, sc.Err()
}

// peaks returns the peak live heap of every run log of one side.
func peaks(dir, side string) ([]float64, error) {
	logs, err := filepath.Glob(filepath.Join(dir, side+".*.txt"))
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, path := range logs {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		peak, cycles, err := peakLiveMB(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if cycles == 0 {
			return nil, fmt.Errorf("%s: no gctrace lines (was the run made under GODEBUG=gctrace=1?)", path)
		}
		out = append(out, peak)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %s run logs in %s", side, dir)
	}
	return out, nil
}

func run(benchPath, basePath, headPath, traceDir string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bench struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := readLines(basePath)
	if err != nil {
		return err
	}
	head, err := readLines(headPath)
	if err != nil {
		return err
	}
	if len(base) != len(head) || len(base) == 0 {
		return fmt.Errorf("%d base runs and %d head runs: want the same number, at least one", len(base), len(head))
	}
	fmt.Printf("%-13s %-38s %-38s %-7s %s\n", "metric", "base median [q1–q3]", "head median [q1–q3]", "wins", "verdict")
	for _, m := range bench.EndToEnd {
		var b, h []float64
		for i := range base {
			bv, ok1 := base[i].Metrics[m.Name]
			hv, ok2 := head[i].Metrics[m.Name]
			if !ok1 || !ok2 {
				return fmt.Errorf("pair %d: metric %s missing from a driver line", i+1, m.Name)
			}
			b, h = append(b, bv.Value), append(h, hv.Value)
		}
		r := compare(m, b, h)
		fmt.Printf("%-13s %-38s %-38s %-7s %s (%+.1f%%, bound %.0f%%, better %s)\n", m.Name,
			fmt.Sprintf("%s [%s–%s] %s", num(r.baseMed), num(r.baseQ1), num(r.baseQ3), m.Unit),
			fmt.Sprintf("%s [%s–%s] %s", num(r.headMed), num(r.headQ1), num(r.headQ3), m.Unit),
			fmt.Sprintf("%d/%d", r.wins, len(b)), r.verdict,
			100*(r.headMed-r.baseMed)/r.baseMed, 100*m.Bound, m.Better)
	}
	share := func(ls []driverLine) (failed, attempted int) {
		for _, l := range ls {
			failed, attempted = failed+l.Failed, attempted+l.Attempted
		}
		return
	}
	if traceDir != "" {
		b, err := peaks(traceDir, "base")
		if err != nil {
			return err
		}
		h, err := peaks(traceDir, "head")
		if err != nil {
			return err
		}
		bq1, bmed, bq3 := quartiles(b)
		hq1, hmed, hq3 := quartiles(h)
		fmt.Printf("%-13s %-38s %-38s %-7s %s\n", "peak_live_mb",
			fmt.Sprintf("%s [%s–%s] MB", num(bmed), num(bq1), num(bq3)),
			fmt.Sprintf("%s [%s–%s] MB", num(hmed), num(hq1), num(hq3)),
			"-", fmt.Sprintf("reported only (%+.1f%%; max live heap after a GC, gctrace)", 100*(hmed-bmed)/bmed))
	}
	bf, ba := share(base)
	hf, ha := share(head)
	fmt.Printf("failed operations: base %d of %d, head %d of %d\n", bf, ba, hf, ha)
	if float64(hf)*float64(ba) > float64(bf)*float64(ha) {
		fmt.Println("head fails a larger share of operations than base: no gain counts")
	}
	return nil
}

func main() {
	bench := flag.String("bench", "BENCHMARK.json", "the benchmark declaration to take metrics, directions and bounds from")
	gctrace := flag.String("gctrace", "", "directory of run logs (base.*.txt, head.*.txt) taken under GODEBUG=gctrace=1; adds a peak live heap row")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: abstat [-bench BENCHMARK.json] [-gctrace LOGDIR] base.jsonl head.jsonl")
		os.Exit(2)
	}
	if err := run(*bench, flag.Arg(0), flag.Arg(1), *gctrace); err != nil {
		fmt.Fprintln(os.Stderr, "abstat:", err)
		os.Exit(1)
	}
}
