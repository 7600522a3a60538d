// Command abstat turns the paired runs tools/ab.sh collected into the table
// and verdicts a performance claim is judged by. It reads BENCHMARK.json for
// the end-to-end metrics (direction and bound) and two files of driver lines
// — the JSON line benchmark/run.sh prints last — whose i-th lines are the two
// sides of pair i. A run that failed or was killed is a line of its own,
// {"killed": true, "exit": N, "last": "..."}, written by tools/ab.sh: abstat
// counts such runs per side, leaves their pairs out of every median, and
// grants no gain to a head side with a killed run. With -gctrace DIR it also
// reads every run's full output, DIR/base.SEED.txt and DIR/head.SEED.txt,
// taken under GODEBUG=gctrace=1 (pair i is each side's i-th seed), and adds
// reported-only rows: per side, the median [q1–q3] of each run's peak live
// heap, number of collections and GC CPU share; and, when the runs are of
// fig3.batch, of each of the five fig3.threshold_gmean lines a run closes
// with (Figure 3's thresholds, as geometric means over the queries).
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

// driverLine is the result of one run, as the benchmark prints it, or the
// record tools/ab.sh writes in its place for a run that exited non-zero:
// Killed set, with the exit status and the last line of its output.
type driverLine struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	Killed bool   `json:"killed"`
	Exit   int    `json:"exit"`
	Last   string `json:"last"`
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

// gcLine matches a GODEBUG=gctrace=1 line, "gc 7 @2.1s 5%: … 4->5->2 MB, …",
// capturing the GC CPU share since the process started (5) and the live heap
// after the cycle (2 — of the heap at its start, at its end, and live).
var gcLine = regexp.MustCompile(`^gc \d+ @[0-9.]+s (\d+)%: .* \d+->\d+->(\d+) MB`)

// gcTrace is what one run's trace says about its benchmark process.
type gcTrace struct {
	peakMB float64 // largest live heap after a collection
	cycles int     // collections
	cpuPct float64 // GC CPU share of the process so far, at its last cycle
}

// readTrace reads the trace in r of its last Go process. Every process
// numbers its collections from "gc 1", and benchmark/run.sh execs the
// benchmark only after its `go build` (whose processes inherit GODEBUG and
// trace too) has exited, so the benchmark's trace is the one that starts at
// the last "gc 1 @". Lines that are not trace lines, the driver's JSON line
// among them, are skipped wherever they fall.
func readTrace(r io.Reader) (gcTrace, error) {
	var tr gcTrace
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := gcLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if strings.HasPrefix(line, "gc 1 @") {
			tr = gcTrace{}
		}
		pct, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return gcTrace{}, err
		}
		live, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return gcTrace{}, err
		}
		tr = gcTrace{peakMB: math.Max(tr.peakMB, live), cycles: tr.cycles + 1, cpuPct: pct}
	}
	return tr, sc.Err()
}

// gmeanLine matches one of the lines a fig3.batch run closes with,
// "  fig3.threshold_gmean saturation threshold=658.0 executions (over …)",
// capturing the threshold's name and its geometric mean over the queries.
var gmeanLine = regexp.MustCompile(`^\s*fig3\.threshold_gmean (.+)=([0-9.]+) executions`)

// readThresholds returns the fig3.threshold_gmean values in r, by name, and
// the names in the order the run printed them; none for other workloads.
func readThresholds(r io.Reader) (map[string]float64, []string, error) {
	values := map[string]float64{}
	var names []string
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		m := gmeanLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, nil, err
		}
		if _, seen := values[m[1]]; !seen {
			names = append(names, m[1])
		}
		values[m[1]] = v
	}
	return values, names, sc.Err()
}

// runLog is what abstat reads from one run's full output.
type runLog struct {
	gc         gcTrace
	thresholds map[string]float64
	names      []string // of thresholds, in printed order
}

// runLogs reads the log of every run of one side, in pair order: the logs
// are named SIDE.SEED.txt and pair i ran at the i-th seed.
func runLogs(dir, side string) ([]runLog, error) {
	logs, err := filepath.Glob(filepath.Join(dir, side+".*.txt"))
	if err != nil {
		return nil, err
	}
	seed := func(path string) int64 {
		n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), side+"."), ".txt"), 10, 64)
		return n
	}
	sort.Slice(logs, func(i, j int) bool { return seed(logs[i]) < seed(logs[j]) })
	var out []runLog
	for _, path := range logs {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var l runLog
		if l.gc, err = readTrace(strings.NewReader(string(raw))); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if l.gc.cycles == 0 {
			return nil, fmt.Errorf("%s: no gctrace lines (was the run made under GODEBUG=gctrace=1?)", path)
		}
		if l.thresholds, l.names, err = readThresholds(strings.NewReader(string(raw))); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, l)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %s run logs in %s", side, dir)
	}
	return out, nil
}

// complete returns the indexes of the pairs in which neither side was
// killed, and each side's count of killed runs.
func complete(base, head []driverLine) (pairs []int, baseKilled, headKilled int) {
	for i := range base {
		if base[i].Killed {
			baseKilled++
		}
		if head[i].Killed {
			headKilled++
		}
		if !base[i].Killed && !head[i].Killed {
			pairs = append(pairs, i)
		}
	}
	return pairs, baseKilled, headKilled
}

func run(w io.Writer, benchPath, basePath, headPath, traceDir string) error {
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
	var bt, ht []runLog
	if traceDir != "" {
		if bt, err = runLogs(traceDir, "base"); err != nil {
			return err
		}
		if ht, err = runLogs(traceDir, "head"); err != nil {
			return err
		}
		if len(bt) != len(base) || len(ht) != len(head) {
			return fmt.Errorf("%d base and %d head run logs for %d pairs", len(bt), len(ht), len(base))
		}
	}
	pairs, bk, hk := complete(base, head)
	fmt.Fprintf(w, "killed: base %d/%d, head %d/%d; %d complete pairs compared\n", bk, len(base), hk, len(head), len(pairs))
	for i := range base {
		for _, side := range []struct {
			name   string
			l      driverLine
			traces []runLog
		}{{"base", base[i], bt}, {"head", head[i], ht}} {
			if !side.l.Killed {
				continue
			}
			fmt.Fprintf(w, "  pair %d: %s exited %d; last line: %s\n", i+1, side.name, side.l.Exit, side.l.Last)
			if side.traces != nil {
				tr := side.traces[i].gc
				fmt.Fprintf(w, "  pair %d: %s's trace ends at %s MB peak live heap after %d collections, GC CPU %s%%\n",
					i+1, side.name, num(tr.peakMB), tr.cycles, num(tr.cpuPct))
			}
		}
	}
	if len(pairs) == 0 {
		fmt.Fprintln(w, "no complete pair: nothing to compare")
		return nil
	}
	fmt.Fprintf(w, "%-13s %-38s %-38s %-7s %s\n", "metric", "base median [q1–q3]", "head median [q1–q3]", "wins", "verdict")
	for _, m := range bench.EndToEnd {
		var b, h []float64
		for _, i := range pairs {
			bv, ok1 := base[i].Metrics[m.Name]
			hv, ok2 := head[i].Metrics[m.Name]
			if !ok1 || !ok2 {
				return fmt.Errorf("pair %d: metric %s missing from a driver line", i+1, m.Name)
			}
			b, h = append(b, bv.Value), append(h, hv.Value)
		}
		r := compare(m, b, h)
		if r.verdict == "gain" && hk > 0 {
			r.verdict = "no regression" // a side that was killed gains nothing
		}
		fmt.Fprintf(w, "%-13s %-38s %-38s %-7s %s (%+.1f%%, bound %.0f%%, better %s)\n", m.Name,
			fmt.Sprintf("%s [%s–%s] %s", num(r.baseMed), num(r.baseQ1), num(r.baseQ3), m.Unit),
			fmt.Sprintf("%s [%s–%s] %s", num(r.headMed), num(r.headQ1), num(r.headQ3), m.Unit),
			fmt.Sprintf("%d/%d", r.wins, len(b)), r.verdict,
			100*(r.headMed-r.baseMed)/r.baseMed, 100*m.Bound, m.Better)
	}
	if traceDir != "" {
		for _, row := range []struct {
			name, unit, note string
			of               func(gcTrace) float64
		}{
			{"peak_live_mb", "MB", "max live heap after a GC", func(tr gcTrace) float64 { return tr.peakMB }},
			{"gc_cycles", "", "collections in the run", func(tr gcTrace) float64 { return float64(tr.cycles) }},
			{"gc_cpu_pct", "%", "GC CPU share at the last cycle", func(tr gcTrace) float64 { return tr.cpuPct }},
		} {
			var b, h []float64
			for _, i := range pairs {
				b, h = append(b, row.of(bt[i].gc)), append(h, row.of(ht[i].gc))
			}
			reportedRow(w, row.name, row.unit, fmt.Sprintf("%s, gctrace", row.note), b, h)
		}
		// Figure 3's thresholds, when both sides printed them in every pair.
		if len(pairs) > 0 {
			for _, name := range bt[pairs[0]].names {
				var b, h []float64
				for _, i := range pairs {
					bv, ok1 := bt[i].thresholds[name]
					hv, ok2 := ht[i].thresholds[name]
					if ok1 && ok2 {
						b, h = append(b, bv), append(h, hv)
					}
				}
				if len(b) == len(pairs) {
					reportedRow(w, "fig3 "+name, "executions", "fig3.threshold_gmean", b, h)
				}
			}
		}
	}
	share := func(ls []driverLine) (failed, attempted int) {
		for _, i := range pairs {
			failed, attempted = failed+ls[i].Failed, attempted+ls[i].Attempted
		}
		return
	}
	bf, ba := share(base)
	hf, ha := share(head)
	fmt.Fprintf(w, "failed operations: base %d of %d, head %d of %d\n", bf, ba, hf, ha)
	if float64(hf)*float64(ba) > float64(bf)*float64(ha) {
		fmt.Fprintln(w, "head fails a larger share of operations than base: no gain counts")
	}
	if hk > 0 {
		fmt.Fprintln(w, "head has killed runs: no gain counts")
	}
	return nil
}

// reportedRow prints one reported-only row: each side's median [q1–q3] of
// its per-pair values and the change of the medians.
func reportedRow(w io.Writer, name, unit, note string, b, h []float64) {
	bq1, bmed, bq3 := quartiles(b)
	hq1, hmed, hq3 := quartiles(h)
	fmt.Fprintf(w, "%-13s %-38s %-38s %-7s %s\n", name,
		strings.TrimSpace(fmt.Sprintf("%s [%s–%s] %s", num(bmed), num(bq1), num(bq3), unit)),
		strings.TrimSpace(fmt.Sprintf("%s [%s–%s] %s", num(hmed), num(hq1), num(hq3), unit)),
		"-", fmt.Sprintf("reported only (%+.1f%%; %s)", 100*(hmed-bmed)/bmed, note))
}

func main() {
	bench := flag.String("bench", "BENCHMARK.json", "the benchmark declaration to take metrics, directions and bounds from")
	gctrace := flag.String("gctrace", "", "directory of run logs (base.SEED.txt, head.SEED.txt) taken under GODEBUG=gctrace=1; adds peak live heap, GC count and GC CPU rows, and fig3.batch's five threshold_gmean rows")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: abstat [-bench BENCHMARK.json] [-gctrace LOGDIR] base.jsonl head.jsonl")
		os.Exit(2)
	}
	if err := run(os.Stdout, *bench, flag.Arg(0), flag.Arg(1), *gctrace); err != nil {
		fmt.Fprintln(os.Stderr, "abstat:", err)
		os.Exit(1)
	}
}
