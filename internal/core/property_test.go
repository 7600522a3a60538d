package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/reformulate"
	"repro/internal/sparql"
)

// TestStrategiesAgreeOnRandomGraphs is the repository's strongest
// correctness property: for randomly generated schemas, data and queries,
// the three query-answering techniques must return identical certain
// answers. Any divergence means one of saturation, reformulation or
// backward chaining is unsound or incomplete.
func TestStrategiesAgreeOnRandomGraphs(t *testing.T) {
	const rounds = 25
	for seed := int64(0); seed < rounds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := randomGraph(rng)
			kb := NewKB()
			if _, err := kb.LoadGraph(g); err != nil {
				t.Fatal(err)
			}
			strategies := []Strategy{
				NewSaturation(kb),
				NewReformulation(kb, reformulate.Options{}),
				NewBackward(kb),
			}
			for qi := 0; qi < 8; qi++ {
				q := randomQuery(rng)
				var ref []string
				for i, s := range strategies {
					res, err := s.Answer(q)
					if err != nil {
						t.Fatalf("%s on %s: %v", s.Name(), q, err)
					}
					got := resultStrings(t, kb, res)
					if i == 0 {
						ref = got
						continue
					}
					if strings.Join(got, "\n") != strings.Join(ref, "\n") {
						t.Fatalf("divergence on %s\ngraph: %v\nsaturation: %v\n%s: %v",
							q, g.Triples(), ref, s.Name(), got)
					}
				}
			}
		})
	}
}

// TestStrategiesAgreeUnderInterleavedMutations extends the differential
// property to the dynamic setting the paper (and the serving layer) cares
// about: the same randomized mutation batches — instance and schema triples,
// inserts and deletes — are applied to all three strategies, and after every
// batch the strategies must still return identical certain answers on random
// queries. Schema mutations draw subClassOf and subPropertyOf edges between
// arbitrary pairs (so both hierarchies grow cycles) and deletions draw from
// everything asserted (so both lose edges again). Long-lived prepared queries
// ride along and must agree with fresh evaluation at every step, which drives
// the shared prepared query's rule on all three strategies: follow a
// data-only batch by rebinding (a snapshot swap for saturation and backward,
// a branch-level rebind for reformulation), recompile after a schema batch
// or — for reformulation — vocabulary growth.
func TestStrategiesAgreeUnderInterleavedMutations(t *testing.T) {
	const seeds = 12
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + seed))
			g := randomGraph(rng)
			kb := NewKB()
			if _, err := kb.LoadGraph(g); err != nil {
				t.Fatal(err)
			}
			strategies := []Strategy{
				NewSaturation(kb),
				NewReformulation(kb, reformulate.Options{}),
				NewBackward(kb),
			}

			// Long-lived prepared queries, one per strategy per query.
			pinnedQueries := []*sparql.Query{randomQuery(rng), randomQuery(rng)}
			prepared := make([][]PreparedQuery, len(pinnedQueries))
			for qi, q := range pinnedQueries {
				for _, s := range strategies {
					pq, err := s.Prepare(q)
					if err != nil {
						t.Fatalf("%s prepare %s: %v", s.Name(), q, err)
					}
					prepared[qi] = append(prepared[qi], pq)
				}
			}

			// asserted tracks the current base graph for deletion draws.
			asserted := g.Triples()
			randomMutation := func() rdf.Triple {
				switch rng.Intn(9) {
				case 0: // schema: class hierarchy (any pair, so cycles arise)
					return rdf.T(rc(rng), rdf.SubClassOf, rc(rng))
				case 8: // schema: property hierarchy, cycles included
					return rdf.T(rp(rng), rdf.SubPropertyOf, rp(rng))
				case 1: // schema: property constraint
					if rng.Intn(2) == 0 {
						return rdf.T(rp(rng), rdf.Domain, rc(rng))
					}
					return rdf.T(rp(rng), rdf.Range, rc(rng))
				case 2, 3: // typing
					return rdf.T(ri(rng), rdf.Type, rc(rng))
				default: // property edge
					return rdf.T(ri(rng), rp(rng), ri(rng))
				}
			}

			for step := 0; step < 6; step++ {
				var ins, del []rdf.Triple
				for i, n := 0, 1+rng.Intn(4); i < n; i++ {
					ins = append(ins, randomMutation())
				}
				if len(asserted) > 0 && rng.Intn(3) > 0 {
					for i, n := 0, 1+rng.Intn(3); i < n; i++ {
						del = append(del, asserted[rng.Intn(len(asserted))])
					}
				}
				for _, s := range strategies {
					if err := s.Insert(ins...); err != nil {
						t.Fatalf("step %d: %s insert: %v", step, s.Name(), err)
					}
					if err := s.Delete(del...); err != nil {
						t.Fatalf("step %d: %s delete: %v", step, s.Name(), err)
					}
				}
				// Maintain the asserted set (order-insensitive).
				present := map[rdf.Triple]bool{}
				for _, tr := range asserted {
					present[tr] = true
				}
				for _, tr := range ins {
					present[tr] = true
				}
				for _, tr := range del {
					delete(present, tr)
				}
				asserted = asserted[:0]
				for tr := range present {
					asserted = append(asserted, tr)
				}

				// Sizes must agree on what they model: saturation ≥ others.
				if strategies[0].Len() < strategies[2].Len() {
					t.Fatalf("step %d: |G∞| %d < |G| %d", step, strategies[0].Len(), strategies[2].Len())
				}

				// Fresh random queries: all strategies agree.
				for qi := 0; qi < 4; qi++ {
					q := randomQuery(rng)
					var ref []string
					for i, s := range strategies {
						res, err := s.Answer(q)
						if err != nil {
							t.Fatalf("step %d: %s on %s: %v", step, s.Name(), q, err)
						}
						got := resultStrings(t, kb, res)
						if i == 0 {
							ref = got
							continue
						}
						if strings.Join(got, "\n") != strings.Join(ref, "\n") {
							t.Fatalf("step %d: divergence on %s\nins: %v\ndel: %v\nsaturation: %v\n%s: %v",
								step, q, ins, del, ref, s.Name(), got)
						}
					}
				}

				// Pinned prepared queries: cached plans must track the data.
				for qi, q := range pinnedQueries {
					var ref []string
					for i, s := range strategies {
						fresh, err := s.Answer(q)
						if err != nil {
							t.Fatalf("step %d: %s fresh on %s: %v", step, s.Name(), q, err)
						}
						res, err := prepared[qi][i].Answer()
						if err != nil {
							t.Fatalf("step %d: %s prepared on %s: %v", step, s.Name(), q, err)
						}
						gotFresh := resultStrings(t, kb, fresh)
						gotPrep := resultStrings(t, kb, res)
						if strings.Join(gotFresh, "\n") != strings.Join(gotPrep, "\n") {
							t.Fatalf("step %d: %s prepared diverges from fresh on %s\nfresh: %v\nprepared: %v",
								step, s.Name(), q, gotFresh, gotPrep)
						}
						if i == 0 {
							ref = gotPrep
						} else if strings.Join(gotPrep, "\n") != strings.Join(ref, "\n") {
							t.Fatalf("step %d: prepared divergence on %s\nsaturation: %v\n%s: %v",
								step, q, ref, s.Name(), gotPrep)
						}
					}
				}

				// Fixed schema-level queries, after the random draws so the
				// draws stay as they were: the closed schema every strategy
				// answers from must follow the schema writes.
				for _, q := range schemaQueries {
					var ref []string
					for i, s := range strategies {
						res, err := s.Answer(q)
						if err != nil {
							t.Fatalf("step %d: %s on %s: %v", step, s.Name(), q, err)
						}
						got := resultStrings(t, kb, res)
						if i == 0 {
							ref = got
						} else if strings.Join(got, "\n") != strings.Join(ref, "\n") {
							t.Fatalf("step %d: schema divergence on %s\nins: %v\ndel: %v\nsaturation: %v\n%s: %v",
								step, q, ins, del, ref, s.Name(), got)
						}
					}
				}
			}
		})
	}
}

// schemaQueries ask for the closed schema itself: each constraint property
// with both ends variable, and a join through each hierarchy.
var schemaQueries = func() []*sparql.Query {
	v := rdf.NewVar
	bgp := func(ps ...rdf.Triple) *sparql.Query {
		return &sparql.Query{Form: sparql.Select, Star: true, Patterns: ps}
	}
	return []*sparql.Query{
		bgp(rdf.T(v("a"), rdf.SubClassOf, v("b"))),
		bgp(rdf.T(v("a"), rdf.SubPropertyOf, v("b"))),
		bgp(rdf.T(v("a"), rdf.Domain, v("b"))),
		bgp(rdf.T(v("a"), rdf.Range, v("b"))),
		bgp(rdf.T(v("x"), rdf.Type, v("c")), rdf.T(v("c"), rdf.SubClassOf, v("d"))),
		bgp(rdf.T(v("x"), v("p"), v("y")), rdf.T(v("p"), rdf.SubPropertyOf, v("q"))),
	}
}()

// vocabulary pools for random generation.
var (
	rndClasses = []string{"A", "B", "C", "D", "E"}
	rndProps   = []string{"p", "q", "r", "s"}
	rndIndivs  = []string{"i0", "i1", "i2", "i3", "i4", "i5"}
)

func rc(rng *rand.Rand) rdf.Term { return iri(rndClasses[rng.Intn(len(rndClasses))]) }
func rp(rng *rand.Rand) rdf.Term { return iri(rndProps[rng.Intn(len(rndProps))]) }
func ri(rng *rand.Rand) rdf.Term { return iri(rndIndivs[rng.Intn(len(rndIndivs))]) }

// randomGraph builds a random DB-fragment graph: an acyclic-ish class DAG
// (edges only from lower to higher index to keep hierarchies sensible,
// though cycles would also be legal), random subproperty edges, random
// domain/range constraints, and random instance triples.
func randomGraph(rng *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	// Class hierarchy.
	for i := 0; i < len(rndClasses); i++ {
		for j := i + 1; j < len(rndClasses); j++ {
			if rng.Intn(4) == 0 {
				g.Add(rdf.T(iri(rndClasses[i]), rdf.SubClassOf, iri(rndClasses[j])))
			}
		}
	}
	// Property hierarchy.
	for i := 0; i < len(rndProps); i++ {
		for j := i + 1; j < len(rndProps); j++ {
			if rng.Intn(4) == 0 {
				g.Add(rdf.T(iri(rndProps[i]), rdf.SubPropertyOf, iri(rndProps[j])))
			}
		}
	}
	// Domains and ranges.
	for _, p := range rndProps {
		if rng.Intn(3) == 0 {
			g.Add(rdf.T(iri(p), rdf.Domain, rc(rng)))
		}
		if rng.Intn(3) == 0 {
			g.Add(rdf.T(iri(p), rdf.Range, rc(rng)))
		}
	}
	// Instance triples.
	n := 8 + rng.Intn(10)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			g.Add(rdf.T(ri(rng), rdf.Type, rc(rng)))
		} else {
			g.Add(rdf.T(ri(rng), rp(rng), ri(rng)))
		}
	}
	return g
}

// randomQuery builds a 1–3 pattern BGP mixing constants and variables in
// all positions (including class/property variables).
func randomQuery(rng *rand.Rand) *sparql.Query {
	nPatterns := 1 + rng.Intn(3)
	vars := []string{"x", "y", "z", "w"}
	rv := func() rdf.Term { return rdf.NewVar(vars[rng.Intn(len(vars))]) }
	var patterns []rdf.Triple
	for i := 0; i < nPatterns; i++ {
		switch rng.Intn(4) {
		case 0: // type pattern with constant class
			patterns = append(patterns, rdf.T(rv(), rdf.Type, rc(rng)))
		case 1: // type pattern with variable class
			patterns = append(patterns, rdf.T(rv(), rdf.Type, rv()))
		case 2: // property pattern with constant property
			s, o := rv(), rv()
			if rng.Intn(3) == 0 {
				o = ri(rng)
			}
			patterns = append(patterns, rdf.T(s, rp(rng), o))
		default: // property pattern with variable property
			patterns = append(patterns, rdf.T(rv(), rv(), rv()))
		}
	}
	q := &sparql.Query{Form: sparql.Select, Star: true, Patterns: patterns}
	if err := q.Validate(); err != nil {
		// Regenerate on the (rare) invalid draw.
		return randomQuery(rng)
	}
	return q
}
