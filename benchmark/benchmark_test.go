package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lubm"
)

// smokeScale is one department with 200 ms windows: every workload's whole
// code path, traced and untraced, in well under a second each.
func smokeScale() scale {
	return scale{universities: 1, depts: 1, warmup: 20 * time.Millisecond, window: 200 * time.Millisecond, setups: 1}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := w.run(1, smokeScale(), false)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("failed %d of %d operations: %v", rep.failed, rep.attempted, rep.failures)
			}
			for _, d := range named[w.name] {
				m, ok := rep.get(d.name)
				if !ok {
					t.Errorf("declared metric %s not emitted", d.name)
					continue
				}
				if m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s = %v %q, want a positive value in %s", d.name, m.Value, m.Unit, d.unit)
				}
			}
			driver := driverEndToEnd(rep)
			if len(driver) != 5 {
				t.Errorf("driver line has %d end-to-end metrics, want 5", len(driver))
			}
			for _, m := range driver {
				if !(m.Value > 0) {
					t.Errorf("driver metric %s = %v, must never be 0", m.Name, m.Value)
				}
			}
		})
		t.Run(w.name+"/trace", func(t *testing.T) {
			rep, err := w.run(1, smokeScale(), true)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Fatalf("failed %d of %d operations: %v", rep.failed, rep.attempted, rep.failures)
			}
			if got := driverPerLayer(rep); len(got) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(got), len(perLayer))
			}
			for _, m := range rep.layers {
				declared := false
				for _, d := range perLayer {
					declared = declared || (d.name == m.Name && d.unit == m.Unit)
				}
				if !declared {
					t.Errorf("layer metric %s (%s) is not declared in perLayer", m.Name, m.Unit)
				}
			}
			checkTrace(t, w.name)
		})
	}
}

// checkTrace reads the trace file a traced run wrote and checks the
// separations the workloads were chosen for.
func checkTrace(t *testing.T, workload string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(outDir, workload+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{} // module prefixes seen in any span
	for _, spans := range f.Spans {
		for _, s := range spans {
			if s.End < s.Start {
				t.Fatalf("span %s ends before it starts", s.Name)
			}
			layers[strings.SplitN(s.Name, ".", 2)[0]] = true
		}
	}
	want := map[string][]string{
		"sat.read":   {"webreason", "sparql", "engine", "store", "dict"},
		"ref.read":   {"webreason", "sparql", "reformulate", "engine", "store", "dict"},
		"sat.update": {"webreason", "engine", "store", "dict", "reason", "persist"},
		"fig3.batch": {"fig3", "core", "reason", "reformulate"},
	}[workload]
	for _, l := range want {
		if !layers[l] {
			t.Errorf("%s: no span of layer %s", workload, l)
		}
	}
	absent := map[string][]string{
		"sat.read": {"reformulate", "reason", "persist"},
		"ref.read": {"reason", "persist"},
	}[workload]
	for _, l := range absent {
		if layers[l] {
			t.Errorf("%s: unexpected span of layer %s", workload, l)
		}
	}
	if workload == "ref.read" {
		if f.Tables["adhoc"].SelfUs["reformulate.rewrite"] <= 0 {
			t.Error("ref.read: adhoc rounds carry no reformulate.rewrite time")
		}
		if _, ok := f.Tables["prepared"].SelfUs["reformulate.rewrite"]; ok {
			t.Error("ref.read: prepared rounds pay reformulate.rewrite")
		}
	}
	for kind, kt := range f.Tables {
		if kt.Ops == 0 || kt.ParentUs <= 0 {
			t.Errorf("%s: table %s is empty", workload, kind)
		}
	}
}

// describe renders one update batch.
func (s *updateStream) describe(u update) string {
	var b strings.Builder
	fmt.Fprintf(&b, "del=%v generated=%v id=%d durable=%v", u.del, u.generated, u.id, u.durable)
	for _, t := range s.triples(u) {
		b.WriteString("\n  ")
		b.WriteString(t.String())
	}
	return b.String()
}

// describeLoad renders the first n operations a seed generates: the read
// rounds' bindings and query texts, and the update batches.
func describeLoad(t *testing.T, seed int64, sc scale, n int) (string, *oracle) {
	t.Helper()
	graph := lubm.GenerateWithOntology(dataConfig(sc))
	kb := core.NewKB()
	if _, err := kb.LoadGraph(graph); err != nil {
		t.Fatal(err)
	}
	or, err := buildOracle(core.NewBackward(kb), kb.Dict(), sc)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	bindings := allBindings(sc)
	order := bindingOrder(seed, or.eligible)
	for i := 0; i < n; i++ {
		bd := bindings[order[i%len(order)]]
		fmt.Fprintf(&b, "round %d univ%d/dept%d\n", i, bd.univ, bd.dept)
		for _, q := range templates(pointNames) {
			b.WriteString(bind(q.Text, bd) + "\n")
		}
	}
	stream := newUpdateStream(seed, sc, graph)
	for i := 0; i < n; i++ {
		b.WriteString(stream.describe(stream.nextUpdate()) + "\n")
	}
	return b.String(), or
}

func TestLoadIsDeterministicInTheSeed(t *testing.T) {
	sc := scale{universities: 2, depts: 4}
	a, or := describeLoad(t, 7, sc, 200)
	again, _ := describeLoad(t, 7, sc, 200)
	if a != again {
		t.Fatal("the same seed generated two different operation streams")
	}
	other, _ := describeLoad(t, 8, sc, 200)
	if a == other {
		t.Fatal("different seeds generated the same operation stream")
	}
	// Every generated query has a non-empty oracle answer.
	for _, bi := range or.eligible {
		for ti, e := range or.point[bi] {
			if e.rows == 0 {
				t.Errorf("binding %d template %s: empty oracle answer", bi, pointNames[ti])
			}
		}
	}
	for u, row := range or.scan {
		for ti, e := range row {
			if e.rows == 0 {
				t.Errorf("univ%d template %s: empty oracle answer", u, scanNames[ti])
			}
		}
	}
}

// A perturbed expected answer must fail the operation that meets it: the
// row count on any round, the hash on a sampled round.
func TestPerturbedAnswerFailsTheOperation(t *testing.T) {
	sc := smokeScale()
	s, err := setUpServing("saturation", sc, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	or, err := buildOracle(core.NewBackward(s.kb), s.kb.Dict(), sc)
	if err != nil {
		t.Fatal(err)
	}
	far := time.Now().Add(time.Hour)
	round := func() *reader {
		r := newReader(s, or, bindingOrder(1, or.eligible))
		r.preparedRound(far) // attempted == 0, so this round checks hashes too
		return r
	}
	if r := round(); r.st.failed != 0 {
		t.Fatalf("unperturbed round failed: %v", r.st.failures)
	}
	e := &or.point[or.eligible[0]][0]
	e.rows++
	if r := round(); r.st.failed != 1 || len(r.st.prepared) != 0 {
		t.Fatalf("perturbed row count: failed=%d with %d latencies recorded, want 1 and 0", r.st.failed, len(r.st.prepared))
	}
	e.rows--
	e.hash++
	if r := round(); r.st.failed != 1 {
		t.Fatalf("perturbed hash: failed=%d, want 1", r.st.failed)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {40, 0.75}, {100, 0.9}, {999, 0.95}, {1000, 0.99}, {23000, 0.999}, {100000, 0.9999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestWorseBy(t *testing.T) {
	lower := decl{name: "x_us", bound: 0.10}
	higher := decl{name: "x_s", higher: true, bound: 0.10}
	if w := worseBy(lower, 100, 112); math.Abs(w-0.12) > 1e-9 {
		t.Errorf("lower-is-better 100→112: worse by %v, want 0.12", w)
	}
	if w := worseBy(higher, 100, 112); math.Abs(w+0.12) > 1e-9 {
		t.Errorf("higher-is-better 100→112: worse by %v, want -0.12", w)
	}
}

// BENCHMARK.json declares what the driver reads; it must name exactly the
// workloads and metrics this program emits.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var declared struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string }         `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &declared); err != nil {
		t.Fatal(err)
	}
	if len(declared.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(declared.Workloads), len(workloads))
	}
	for i, w := range declared.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s, declared as %s", i, workloads[i].name, w.Name)
		}
	}
	want := map[string]string{"setup_s": "s", "heap_mb": "MB", "primary_us": "us", "secondary_us": "us", "work_s": "1/s"}
	if len(declared.EndToEnd) != len(want) {
		t.Errorf("%d end-to-end metrics declared, want %d", len(declared.EndToEnd), len(want))
	}
	for _, m := range declared.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s declared in %q, emitted in %q", m.Name, m.Unit, want[m.Name])
		}
	}
	if len(declared.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d emitted", len(declared.PerLayer), len(perLayer))
	}
	for i, m := range declared.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s (%s), declared as %s (%s)", i, perLayer[i].name, perLayer[i].unit, m.Name, m.Unit)
		}
	}
}
