// Command benchmark is the repository's one benchmark: four named workloads
// (sat.read, ref.read, sat.update, fig3.batch) with seeded load generation,
// correctness checks built into every run, named end-to-end metrics and a
// traced run that gives the per-layer numbers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// outDir receives trace files and the sat.update data directory; it is
// relative to the working directory, which run.sh makes this directory.
const outDir = "out"

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	failures  []string
	// metrics are the workload's named end-to-end metrics (untraced run);
	// layers are the per-layer metrics (traced run).
	metrics []metric
	layers  []metric
	notes   []string
}

func (r *report) count(st *opStats) {
	r.attempted += st.attempted
	r.failed += st.failed
	r.failures = append(r.failures, st.failures...)
}

// failCheck records a failed post-window check as one failed operation.
func (r *report) failCheck(format string, args ...any) {
	r.attempted++
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) get(name string) (metric, bool) {
	for _, ms := range [][]metric{r.metrics, r.layers} {
		for _, m := range ms {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// print writes the human-readable report: every metric by name with its
// unit, sample count and statistic.
func (r *report) print() {
	clients := clientGoroutines
	if r.workload == "fig3.batch" {
		clients = 1
	}
	fmt.Printf("== %s seed=%d GOMAXPROCS=%d clients=%d\n", r.workload, r.seed, runtime.GOMAXPROCS(0), clients)
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Println(metric{Name: "failed_share", Unit: "ratio", Value: share, N: r.attempted, Stat: "failed/attempted"})
	for _, m := range r.metrics {
		fmt.Println(m)
	}
	for _, m := range r.layers {
		fmt.Println(m)
	}
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for i, f := range r.failures {
		if i == 10 {
			fmt.Printf("  ... and %d more failures\n", len(r.failures)-i)
			break
		}
		fmt.Println("  FAILED: " + f)
	}
}

// clientGoroutines is the number of load-generating goroutines of every
// serving workload (this machine's nproc); fig3.batch uses one.
const clientGoroutines = 2

// workloads maps each workload name to its runner, in reporting order.
var workloads = []struct {
	name string
	run  func(seed int64, sc scale, trace bool) (*report, error)
}{
	{"sat.read", func(seed int64, sc scale, trace bool) (*report, error) {
		return runReads("sat.read", "saturation", seed, sc, trace)
	}},
	{"ref.read", func(seed int64, sc scale, trace bool) (*report, error) {
		return runReads("ref.read", "reformulation", seed, sc, trace)
	}},
	{"sat.update", runUpdate},
	{"fig3.batch", runFig3},
}

func runWorkload(name string, seed int64, sc scale, trace bool) (*report, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.run(seed, sc, trace)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// driverLine is the last line of standard output: the result in the shape
// the benchmark driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: sat.read, ref.read, sat.update or fig3.batch (default: all four)")
	seed := flag.Int64("seed", 1, "seed of the data generator and of the load")
	seconds := flag.Int("seconds", 15, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	agree := flag.Bool("agree", false, "run the suite twice and compare every end-to-end metric against its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	sc := benchScale(*seconds)
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if *agree {
		if !agreement(names, *seed, sc) {
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, name := range names {
		rep, err := runWorkload(name, *seed, sc, *trace == 1)
		if err != nil {
			fatal(err)
		}
		rep.print()
		ok = ok && rep.failed == 0
		if len(names) == 1 {
			printDriverLine(rep, *trace == 1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func printDriverLine(rep *report, trace bool) {
	line := driverLine{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]driverValue{}}
	declared := driverPerLayer
	if !trace {
		declared = driverEndToEnd
	}
	for _, m := range declared(rep) {
		line.Metrics[m.Name] = driverValue{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// dataDir names a fresh data directory for sat.update under outDir.
func dataDir(workload string) string {
	return filepath.Join(outDir, fmt.Sprintf("data-%s-%d", workload, os.Getpid()))
}
