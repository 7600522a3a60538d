// Micro-benchmarks of the paper's Figure 3 cost inputs, one family per
// input:
//
//	BenchmarkSaturate — the one-time saturation cost, at two scales.
//	BenchmarkMaintain* — per-update maintenance, instance and schema.
//	BenchmarkQuery* — per-query answering under each technique.
//	BenchmarkReformulate — rewriting time and union size.
//
// The repository's benchmark (benchmark/, BENCHMARK.json) measures the same
// quantities end to end at LUBM 4×15 and computes the Figure 3 thresholds;
// these run under plain `go test -bench`.
package webreason_test

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/lubm"
	"repro/internal/reason"
	"repro/internal/reformulate"
	"repro/internal/sparql"
)

// fixture is built once and shared by read-only benchmarks.
type fixture struct {
	kb   *core.KB
	sat  *core.Saturation
	ref  *core.Reformulation
	back *core.Backward
	qs   map[string]*sparql.Query
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(b testing.TB) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		kb := core.NewKB()
		if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
			panic(err)
		}
		f := &fixture{kb: kb, qs: map[string]*sparql.Query{}}
		f.sat = core.NewSaturation(kb)
		f.ref = core.NewReformulation(kb, reformulate.Options{})
		f.back = core.NewBackward(kb)
		for _, wq := range lubm.Queries() {
			f.qs[wq.Name] = wq.Parse()
		}
		fix = f
	})
	return fix
}

// BenchmarkSaturate measures the one-time saturation cost (Figure 3's
// fixed cost) at three scales: two miniature ones, and lubm=4x15, the
// benchmark's own graph (LUBM defaults per department, 4 universities of
// 15 departments, seed 1), whose ns/op is fig3.batch's saturate_ms.
func BenchmarkSaturate(b *testing.B) {
	small := func(depts int) lubm.Config {
		cfg := lubm.SmallConfig()
		cfg.DeptsPerUniv = depts
		return cfg
	}
	full := lubm.DefaultConfig()
	full.Universities = 4
	for _, sc := range []struct {
		name string
		cfg  lubm.Config
	}{{benchName("depts", 2), small(2)}, {benchName("depts", 6), small(6)}, {"lubm=4x15", full}} {
		kb := core.NewKB()
		if _, err := kb.LoadGraph(lubm.GenerateWithOntology(sc.cfg)); err != nil {
			b.Fatal(err)
		}
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reason.Materialize(kb.Base(), kb.Rules())
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "=" + strconv.Itoa(n)
}

// benchQueries are representative of the workload's reasoning mix. Q2 and
// Q8 are one join shape: Q2 projects every variable of its BGP, and Q8
// drops only ?e, which its existential atom binds (one match per ?x), so
// neither saturated execution needs a dedup set. Q13 has the largest plain
// union of the 14 (100 branches, 4 minimised).
var benchQueries = []string{"Q1", "Q2", "Q5", "Q6", "Q8", "Q9", "Q12", "Q13", "Q14"}

// BenchmarkQuerySaturation measures eval(G∞) per query in the repeated-query
// regime the paper's Figure 3 reasons about: the query is prepared once and
// the steady-state per-execution cost is measured — cached plan, merge
// joins, zero planning allocations. BenchmarkQuerySaturationUnprepared
// keeps the one-shot compile-and-plan figure for comparison.
func BenchmarkQuerySaturation(b *testing.B) {
	f := getFixture(b)
	benchPrepared(b, f, f.sat)
}

// BenchmarkQuerySaturationUnprepared measures the same queries through the
// one-shot path (compile + plan on every call), the before-side of the
// prepared-query comparison.
func BenchmarkQuerySaturationUnprepared(b *testing.B) {
	f := getFixture(b)
	benchAdhoc(b, f, f.sat)
}

// BenchmarkQueryReformulationPrepared measures steady-state reformulated
// answering with the rewriting and per-branch plans cached: on the shared
// fixture's plain union, and (min=true) on the minimised union every served
// path runs.
func BenchmarkQueryReformulationPrepared(b *testing.B) {
	f := getFixture(b)
	benchPrepared(b, f, f.ref)
	b.Run("min=true", func(b *testing.B) {
		benchPrepared(b, f, core.NewReformulation(f.kb, reformulate.Options{Minimize: true}))
	})
}

// benchPrepared runs one sub-benchmark per query of benchQueries: a
// steady-state answer of the query prepared once on s.
func benchPrepared(b *testing.B, f *fixture, s core.Strategy) {
	for _, name := range benchQueries {
		b.Run(name, func(b *testing.B) {
			pq, err := s.Prepare(f.qs[name])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pq.Answer(); err != nil { // warm scratch + row hints
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pq.Answer(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryBackwardPrepared measures steady-state backward-chaining
// answering with the compiled plan cached.
func BenchmarkQueryBackwardPrepared(b *testing.B) {
	f := getFixture(b)
	benchPrepared(b, f, f.back)
}

// BenchmarkQueryReformulation measures reformulate+evaluate on G (Figure
// 3), on the shared fixture's plain union and (min=true) on the minimised
// union every served path runs.
func BenchmarkQueryReformulation(b *testing.B) {
	f := getFixture(b)
	benchAdhoc(b, f, f.ref)
	b.Run("min=true", func(b *testing.B) {
		benchAdhoc(b, f, core.NewReformulation(f.kb, reformulate.Options{Minimize: true}))
	})
}

// benchAdhoc runs one sub-benchmark per query of benchQueries: an ad hoc
// answer of the query on s.
func benchAdhoc(b *testing.B, f *fixture, s core.Strategy) {
	for _, name := range benchQueries {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Answer(f.qs[name]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryBackward measures backward-chaining answering.
func BenchmarkQueryBackward(b *testing.B) {
	f := getFixture(b)
	benchAdhoc(b, f, f.back)
}

// BenchmarkBackwardTypeOfSubject measures backward chaining on patterns
// with a bound subject and an open class, (s rdf:type ?c) asked directly
// (type) and reached through an open predicate (edges), for one graduate
// student; no LUBM query has such a pattern.
func BenchmarkBackwardTypeOfSubject(b *testing.B) {
	f := getFixture(b)
	const s = "<" + lubm.DataNS + "univ0/dept0/grad0>"
	for _, q := range []struct{ name, text string }{
		{"type", "SELECT ?c WHERE { " + s + " a ?c }"},
		{"edges", "SELECT ?p ?o WHERE { " + s + " ?p ?o }"},
	} {
		b.Run(q.name, func(b *testing.B) {
			query := sparql.MustParse(q.text)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.back.Answer(query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReformulate measures pure rewriting time and reports the union
// size, plain (min=false, the shared fixture's strategy) and minimised
// (min=true, what every served path runs).
func BenchmarkReformulate(b *testing.B) {
	f := getFixture(b)
	for _, m := range []struct {
		name string
		ref  *core.Reformulation
	}{
		{"min=false", f.ref},
		{"min=true", core.NewReformulation(f.kb, reformulate.Options{Minimize: true})},
	} {
		b.Run(m.name, func(b *testing.B) {
			for _, name := range benchQueries {
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					var branches int
					for i := 0; i < b.N; i++ {
						ucq, err := m.ref.Reformulate(f.qs[name])
						if err != nil {
							b.Fatal(err)
						}
						branches = ucq.Size()
					}
					b.ReportMetric(float64(branches), "branches")
				})
			}
		})
	}
}

// maintenance benchmarks: each op is paired with its undo inside the timed
// loop, so the measured figure is (op + undo)/2 ≈ one maintenance step at
// steady state (Figure 3 maintenance costs), by saturation through the
// closed schema. Until the DRed engine was deleted they were
// BenchmarkMaintainInstanceDRed and BenchmarkMaintainSchemaDRed, the names
// results recorded before the rename carry. The instance pair adds one
// triple's consequences and support-checks them away again; the schema pair
// re-extracts the closed schema twice, diffs it once per step and visits the
// postings leaves of the properties and classes the diff names, which for a
// class without instances is none. BenchmarkMaintainSchemaAsserted is the
// same schema pair on the asserted side that reformulation and backward
// chaining share, which re-extracts the closed schema from the asserted
// constraints per step and adds or removes the closure triples of the diff
// in G's store.

func BenchmarkMaintainInstance(b *testing.B) {
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
		b.Fatal(err)
	}
	mat := reason.Materialize(kb.Base(), kb.Rules())
	tr := kb.Encode(lubm.InstanceUpdates(1)[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.Insert(tr)
		mat.Delete(tr)
	}
}

func BenchmarkMaintainSchema(b *testing.B) {
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
		b.Fatal(err)
	}
	mat := reason.Materialize(kb.Base(), kb.Rules())
	tr := kb.Encode(lubm.SchemaUpdates()[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.Insert(tr)
		mat.Delete(tr)
	}
}

func BenchmarkMaintainSchemaAsserted(b *testing.B) {
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(lubm.SmallConfig())); err != nil {
		b.Fatal(err)
	}
	ref := core.NewReformulation(kb, reformulate.Options{})
	tr := lubm.SchemaUpdates()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ref.Insert(tr); err != nil {
			b.Fatal(err)
		}
		if err := ref.Delete(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintainSchemaExisting times Figure 3's schema deletions at the
// benchmark's own scale, LUBM 4×15: one sub-benchmark per
// lubm.ExistingSchemaTriples, each deleting from a fresh Clone of one
// materialisation, as fig3.batch does, and re-inserting outside the timer.
// It reports the support decisions and retractions of the delete.
func BenchmarkMaintainSchemaExisting(b *testing.B) {
	cfg := lubm.DefaultConfig()
	cfg.Universities = 4
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(cfg)); err != nil {
		b.Fatal(err)
	}
	mat := reason.Materialize(kb.Base(), kb.Rules())
	for _, t := range lubm.ExistingSchemaTriples() {
		tr := kb.Encode(t)
		b.Run(strings.TrimPrefix(t.S.Value, lubm.NS), func(b *testing.B) {
			b.ReportAllocs()
			var stats reason.Stats
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := mat.Clone()
				b.StartTimer()
				c.Delete(tr)
				b.StopTimer()
				stats = c.Stats
				c.Insert(tr)
				b.StartTimer()
			}
			b.ReportMetric(float64(stats.Checked), "checked")
			b.ReportMetric(float64(stats.Retracted), "retracted")
		})
	}
}

// BenchmarkPublicAPIQuickstart exercises the façade end to end: load,
// build a strategy, answer — the fixed cost a downstream user pays.
func BenchmarkPublicAPIQuickstart(b *testing.B) {
	g := webreason.LUBMGenerate(1, 1, 1)
	g.AddAll(webreason.LUBMOntology())
	q := webreason.MustParseQuery(`PREFIX lubm: <http://lubm.example.org/onto#> SELECT ?x WHERE { ?x a lubm:Student }`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kb := webreason.NewKB()
		if _, err := kb.LoadGraph(g); err != nil {
			b.Fatal(err)
		}
		s := webreason.NewReformulationStrategy(kb)
		if _, err := s.Answer(q); err != nil {
			b.Fatal(err)
		}
	}
}
