package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
	"repro/internal/store"
)

// bruteEval is the reference evaluator: a naive nested loop over the full
// triple list with term-level binding maps — no dictionary, no indexes, no
// planner. Prepared's merge joins and plan caching must agree with it
// exactly (bag semantics).
func bruteEval(triples []rdf.Triple, patterns []rdf.Triple) [][]string {
	vars := bruteVars(patterns)
	var rows [][]string
	binding := map[string]rdf.Term{}
	var rec func(depth int)
	rec = func(depth int) {
		if depth == len(patterns) {
			row := make([]string, len(vars))
			for i, v := range vars {
				row[i] = binding[v].String()
			}
			rows = append(rows, row)
			return
		}
		pat := patterns[depth]
		for _, t := range triples {
			var bound []string
			ok := true
			for _, pr := range [][2]rdf.Term{{pat.S, t.S}, {pat.P, t.P}, {pat.O, t.O}} {
				pv, tv := pr[0], pr[1]
				if !pv.IsVar() {
					if pv != tv {
						ok = false
						break
					}
					continue
				}
				if have, isBound := binding[pv.Value]; isBound {
					if have != tv {
						ok = false
						break
					}
					continue
				}
				binding[pv.Value] = tv
				bound = append(bound, pv.Value)
			}
			if ok {
				rec(depth + 1)
			}
			for _, v := range bound {
				delete(binding, v)
			}
		}
	}
	rec(0)
	return rows
}

// bruteVars lists the variables of patterns in the engine's order: first
// occurrence.
func bruteVars(patterns []rdf.Triple) []string {
	var vars []string
	for _, p := range patterns {
		for _, t := range []rdf.Term{p.S, p.P, p.O} {
			if t.IsVar() && !slices.Contains(vars, t.Value) {
				vars = append(vars, t.Value)
			}
		}
	}
	return vars
}

// bruteDistinct is the reference for a distinct projection: rows, bruteEval's
// answer over vars, projected onto proj — a variable the patterns lack reads
// as the zero term, as a dict.None column decodes — with duplicates removed.
func bruteDistinct(rows [][]string, vars, proj []string) [][]string {
	seen := map[string]bool{}
	var out [][]string
	for _, row := range rows {
		pr := make([]string, len(proj))
		for i, v := range proj {
			if j := slices.Index(vars, v); j >= 0 {
				pr[i] = row[j]
			} else {
				pr[i] = rdf.Term{}.String()
			}
		}
		if k := strings.Join(pr, "|"); !seen[k] {
			seen[k] = true
			out = append(out, pr)
		}
	}
	return out
}

// dupSource is a plain Source — not a SortedSource — that enumerates every
// match of the store twice, as backward chaining's source does for a triple
// entailed two ways. A distinct execution over it must deduplicate whatever
// its projection.
type dupSource struct{ st *store.Store }

func (d dupSource) ForEachMatch(pat store.Triple, fn func(store.Triple) bool) {
	d.st.ForEachMatch(pat, func(t store.Triple) bool { return fn(t) && fn(t) })
}

func (d dupSource) Count(pat store.Triple) int { return d.st.Count(pat) }

// testProjections are the projections a distinct execution is checked
// under: x (which the BGP may lack), every variable of the BGP (reversed,
// the projection that needs no dedup set over a store), a proper subset of
// them (empty for a one-variable BGP) and one naming a variable no BGP has.
func testProjections(patterns []rdf.Triple) [][]string {
	vars := bruteVars(patterns)
	all := slices.Clone(vars)
	slices.Reverse(all)
	return [][]string{{"x"}, all, vars[1:], {"absent", vars[0]}}
}

// checkDistinct evaluates every test projection of pats over src on a fresh
// plan twice — its first execution, sized by the planner's estimate, then a
// warm one sized by the first — against bruteDistinct. It reports whether
// some plan ran without a dedup set.
func checkDistinct(t *testing.T, src Source, d *dict.Dict, triples, pats []rdf.Triple, label string) (unique bool) {
	t.Helper()
	rows, vars := bruteEval(triples, pats), bruteVars(pats)
	for _, proj := range testProjections(pats) {
		p, err := Prepare(src, pats, d)
		if err != nil {
			t.Fatalf("%s: Prepare: %v", label, err)
		}
		want := canon(bruteDistinct(rows, vars, proj))
		for _, run := range []string{"first", "warm"} {
			got := canon(decodeRows(t, p.EvalDistinct(proj), d))
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %s EvalDistinct(%v) mismatch:\ngot  %v\nwant %v\npatterns: %v",
					label, run, proj, got, want, pats)
			}
		}
		unique = unique || p.pl.unique
	}
	return unique
}

// canon renders rows as a sorted multiset for comparison.
func canon(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

func decodeRows(t *testing.T, res *Result, d *dict.Dict) [][]string {
	t.Helper()
	var rows [][]string
	for _, row := range res.Decode(d) {
		sr := make([]string, len(row))
		for i, term := range row {
			sr[i] = term.String()
		}
		rows = append(rows, sr)
	}
	return rows
}

// genStarWorld builds a graph whose (p,o) leaves are long (many subjects
// share each type/edge), so the merge joins intersect runs of very unequal
// length.
func genStarWorld(rng *rand.Rand, n int) []rdf.Triple {
	iri := func(kind string, i int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("http://ex.org/%s%d", kind, i))
	}
	var ts []rdf.Triple
	seen := map[rdf.Triple]bool{} // the store has set semantics; keep the reference list duplicate-free
	add := func(tr rdf.Triple) {
		if !seen[tr] {
			seen[tr] = true
			ts = append(ts, tr)
		}
	}
	for i := 0; i < n; i++ {
		s := iri("node", i)
		// Every node gets a type from a tiny class pool: leaves of size ~n/3,
		// long for n ≥ 64.
		add(rdf.T(s, rdf.Type, iri("Class", rng.Intn(3))))
		for j := 0; j < 1+rng.Intn(3); j++ {
			add(rdf.T(s, iri("edge", rng.Intn(3)), iri("node", rng.Intn(n))))
		}
	}
	return ts
}

// genPatterns produces a random BGP over the star world's vocabulary,
// biased toward star shapes (shared subject variable, constant predicate
// and object) so merge groups actually form.
func genPatterns(rng *rand.Rand, n int) []rdf.Triple {
	iri := func(kind string, i int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("http://ex.org/%s%d", kind, i))
	}
	vars := []rdf.Term{rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("z")}
	var pats []rdf.Triple
	np := 1 + rng.Intn(3)
	for i := 0; i < np; i++ {
		v := vars[rng.Intn(len(vars))]
		switch rng.Intn(4) {
		case 0: // star: type membership
			pats = append(pats, rdf.T(v, rdf.Type, iri("Class", rng.Intn(3))))
		case 1: // star: edge to constant
			pats = append(pats, rdf.T(v, iri("edge", rng.Intn(3)), iri("node", rng.Intn(n))))
		case 2: // chain: edge between two variables
			pats = append(pats, rdf.T(v, iri("edge", rng.Intn(3)), vars[rng.Intn(len(vars))]))
		case 3: // constant subject
			pats = append(pats, rdf.T(iri("node", rng.Intn(n)), iri("edge", rng.Intn(3)), v))
		}
	}
	return pats
}

// TestPreparedMatchesBruteForce cross-checks Prepared evaluation (merge
// joins, plan caching, fused distinct) against the naive reference on
// randomized graphs and BGPs, then grows the graph — and the dictionary —
// and re-checks the same Prepared instances to exercise the dict-version
// invalidation path.
func TestPreparedMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(64)
		triples := genStarWorld(rng, n)

		d := dict.New()
		st := store.New()
		for _, tr := range triples {
			st.Add(store.Triple{S: d.Encode(tr.S), P: d.Encode(tr.P), O: d.Encode(tr.O)})
		}

		type preparedCase struct {
			pats []rdf.Triple
			p    *Prepared
		}
		var cases []preparedCase
		for qi := 0; qi < 8; qi++ {
			pats := genPatterns(rng, n)
			p, err := Prepare(st, pats, d)
			if err != nil {
				t.Fatalf("seed %d: Prepare: %v", seed, err)
			}
			cases = append(cases, preparedCase{pats, p})
		}

		check := func(stage string) {
			for ci, c := range cases {
				// Evaluate twice: the second run hits the fully-warm path
				// (cached plan, reused scratch, populated row hints).
				for round := 0; round < 2; round++ {
					got := canon(decodeRows(t, c.p.Eval(), d))
					want := canon(bruteEval(triples, c.pats))
					if len(got) != len(want) {
						t.Fatalf("seed %d %s case %d round %d: got %d rows, want %d\npatterns: %v",
							seed, stage, ci, round, len(got), len(want), c.pats)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("seed %d %s case %d round %d: row %d: got %q want %q",
								seed, stage, ci, round, i, got[i], want[i])
						}
					}
				}
				// EvalDistinct must agree with Eval().Project().Distinct().
				proj := []string{"x"}
				gotD := canon(decodeRows(t, c.p.EvalDistinct(proj), d))
				wantD := canon(decodeRows(t, c.p.Eval().Project(proj).Distinct(), d))
				if strings.Join(gotD, "\n") != strings.Join(wantD, "\n") {
					t.Fatalf("seed %d %s case %d: EvalDistinct mismatch:\ngot  %v\nwant %v\npatterns: %v",
						seed, stage, ci, gotD, wantD, c.pats)
				}
				// And with the reference, on fresh plans: over the store a
				// projection of every variable runs without a dedup set.
				label := fmt.Sprintf("seed %d %s case %d", seed, stage, ci)
				if !checkDistinct(t, st, d, triples, c.pats, label) {
					t.Fatalf("%s: no projection ran without a dedup set over the store", label)
				}
			}
		}
		check("initial")

		// Grow the graph with triples over fresh terms (new classes, new
		// nodes): the dictionary version moves, plans holding a
		// previously-unknown constant recompile, the rest carry on, and the
		// new data must show up in every answer.
		growth := genStarWorld(rand.New(rand.NewSource(seed+1000)), 32)
		for i := range growth {
			// Rename to fresh IRIs so the dictionary genuinely grows.
			growth[i].S = rdf.NewIRI(growth[i].S.Value + "/v2")
			if growth[i].O.IsIRI() && strings.Contains(growth[i].O.Value, "node") {
				growth[i].O = rdf.NewIRI(growth[i].O.Value + "/v2")
			}
		}
		before := d.Version()
		for _, tr := range growth {
			st.Add(store.Triple{S: d.Encode(tr.S), P: d.Encode(tr.P), O: d.Encode(tr.O)})
			triples = append(triples, tr)
		}
		if d.Version() == before {
			t.Fatalf("seed %d: growth did not move the dictionary version", seed)
		}
		check("after-growth")
	}
}

// TestDistinctOverDuplicatingSource: over a Source that is not a set, every
// distinct execution keeps its dedup set — the projection of every variable
// included — and still equals the reference.
func TestDistinctOverDuplicatingSource(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(32)
		triples := genStarWorld(rng, n)
		d := dict.New()
		st := store.New()
		for _, tr := range triples {
			st.Add(store.Triple{S: d.Encode(tr.S), P: d.Encode(tr.P), O: d.Encode(tr.O)})
		}
		src := dupSource{st}
		for qi := 0; qi < 8; qi++ {
			pats := genPatterns(rng, n)
			label := fmt.Sprintf("seed %d case %d", seed, qi)
			// The source does duplicate: one row per way to pick each
			// pattern's match, twice over per pattern.
			p, err := Prepare(src, pats, d)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(p.Eval().Rows), len(bruteEval(triples, pats))<<len(pats); got != want {
				t.Fatalf("%s: bag over dupSource: %d rows, want %d", label, got, want)
			}
			if checkDistinct(t, src, d, triples, pats, label) {
				t.Fatalf("%s: a plan over a plain Source ran without a dedup set", label)
			}
		}
	}
}

// TestPreparedKeepsPlanAcrossDictionaryGrowth: IDs are append-only, so a
// plan whose constants all resolved has nothing to learn from new terms — it
// must not recompile, and must still see the triples asserted over them.
func TestPreparedKeepsPlanAcrossDictionaryGrowth(t *testing.T) {
	d := dict.New()
	st := store.New()
	iri := func(n string) rdf.Term { return rdf.NewIRI("http://ex.org/" + n) }
	st.Add(store.Triple{S: d.Encode(iri("a")), P: d.Encode(iri("p")), O: d.Encode(iri("b"))})

	p, err := Prepare(st, []rdf.Triple{rdf.T(rdf.NewVar("x"), iri("p"), iri("b"))}, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Eval(); len(got.Rows) != 1 {
		t.Fatalf("initial: want 1 row, got %d", len(got.Rows))
	}
	compiled := PlanStats.Compiled.Load()
	for i := 0; i < 5; i++ {
		fresh := d.Encode(iri(fmt.Sprintf("fresh%d", i)))
		st.Add(store.Triple{S: fresh, P: d.Encode(iri("p")), O: d.Encode(iri("b"))})
		if got := p.Eval(); len(got.Rows) != i+2 {
			t.Fatalf("after %d fresh subjects: want %d rows, got %d", i+1, i+2, len(got.Rows))
		}
	}
	if got := PlanStats.Compiled.Load(); got != compiled {
		t.Fatalf("dictionary growth recompiled a fully resolved plan %d times", got-compiled)
	}
}

// TestPreparedResolvesNewConstants pins the invalidation contract: a
// constant unknown at Prepare time makes the query empty, and becomes
// visible — through a recompilation — once the term is coined and asserted.
func TestPreparedResolvesNewConstants(t *testing.T) {
	d := dict.New()
	st := store.New()
	iri := func(n string) rdf.Term { return rdf.NewIRI("http://ex.org/" + n) }
	st.Add(store.Triple{S: d.Encode(iri("a")), P: d.Encode(iri("p")), O: d.Encode(iri("b"))})

	pats := []rdf.Triple{rdf.T(rdf.NewVar("x"), iri("p"), iri("late"))}
	p, err := Prepare(st, pats, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Eval(); len(got.Rows) != 0 {
		t.Fatalf("unknown constant: want empty, got %d rows", len(got.Rows))
	}
	compiled := PlanStats.Compiled.Load()
	st.Add(store.Triple{S: d.Encode(iri("a")), P: d.Encode(iri("p")), O: d.Encode(iri("late"))})
	if got := p.Eval(); len(got.Rows) != 1 {
		t.Fatalf("after coining constant: want 1 row, got %d", len(got.Rows))
	}
	if got := PlanStats.Compiled.Load(); got != compiled+1 {
		t.Fatalf("coining the missing constant compiled %d times, want 1", got-compiled)
	}
}

// TestPreparedMergeGroupsForm sanity-checks that the star shape actually
// takes the merge-join path (guarding against silent fallback to nested
// loops after a refactor).
func TestPreparedMergeGroupsForm(t *testing.T) {
	d := dict.New()
	st := store.New()
	iri := func(n string) rdf.Term { return rdf.NewIRI("http://ex.org/" + n) }
	enc := func(tr rdf.Triple) store.Triple {
		return store.Triple{S: d.Encode(tr.S), P: d.Encode(tr.P), O: d.Encode(tr.O)}
	}
	// 40 students, 25 of them take the course: both leaves long.
	for i := 0; i < 40; i++ {
		st.Add(enc(rdf.T(iri(fmt.Sprintf("s%d", i)), rdf.Type, iri("Student"))))
		if i < 25 {
			st.Add(enc(rdf.T(iri(fmt.Sprintf("s%d", i)), iri("takes"), iri("course0"))))
		}
	}
	pats := []rdf.Triple{
		rdf.T(rdf.NewVar("x"), rdf.Type, iri("Student")),
		rdf.T(rdf.NewVar("x"), iri("takes"), iri("course0")),
	}
	p, err := Prepare(st, pats, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.pl.steps) != 1 || p.pl.steps[0].merge == nil || len(p.pl.steps[0].merge) != 2 {
		t.Fatalf("expected one merge group of 2 patterns, got steps %+v", p.pl.steps)
	}
	if got := p.Eval(); len(got.Rows) != 25 {
		t.Fatalf("merge join: want 25 rows, got %d", len(got.Rows))
	}
}

// countSource is a plain Source over a store that counts the matches it
// hands to callbacks.
type countSource struct {
	st *store.Store
	n  *int
}

func (c countSource) ForEachMatch(pat store.Triple, fn func(store.Triple) bool) {
	c.st.ForEachMatch(pat, func(t store.Triple) bool { *c.n++; return fn(t) })
}

func (c countSource) Count(pat store.Triple) int { return c.st.Count(pat) }

// TestExistentialSteps: a step whose variables no other pattern and no
// column reads takes one match per binding in a distinct execution, every
// match in a bag one, and its variable does not cost a unique plan its
// dedup-free run.
func TestExistentialSteps(t *testing.T) {
	d := dict.New()
	st := store.New()
	iri := func(n string) rdf.Term { return rdf.NewIRI("http://ex.org/" + n) }
	enc := func(tr rdf.Triple) store.Triple {
		return store.Triple{S: d.Encode(tr.S), P: d.Encode(tr.P), O: d.Encode(tr.O)}
	}
	// Three students taking four courses each.
	for i := 0; i < 3; i++ {
		s := iri(fmt.Sprintf("s%d", i))
		st.Add(enc(rdf.T(s, rdf.Type, iri("Student"))))
		for c := 0; c < 4; c++ {
			st.Add(enc(rdf.T(s, iri("takes"), iri(fmt.Sprintf("c%d", c)))))
		}
	}
	pats := []rdf.Triple{
		rdf.T(rdf.NewVar("x"), rdf.Type, iri("Student")),
		rdf.T(rdf.NewVar("x"), iri("takes"), rdf.NewVar("f")),
	}
	p, err := Prepare(st, pats, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.EvalDistinct([]string{"x"}).Rows); got != 3 {
		t.Fatalf("distinct over the store: %d rows, want 3", got)
	}
	if steps := p.pl.steps; len(steps) != 2 || steps[0].exists || !steps[1].exists || !p.pl.unique {
		t.Fatalf("want the takes step existential and the plan unique, got steps %+v, unique %v", steps, p.pl.unique)
	}
	if got := len(p.EvalDistinct([]string{"x", "f"}).Rows); got != 12 || p.pl.steps[1].exists {
		t.Fatalf("projecting ?f: %d rows (want 12), takes step existential %v", got, p.pl.steps[1].exists)
	}

	var n int
	cp, err := Prepare(countSource{st, &n}, pats, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cp.Eval().Rows); got != 12 || n != 3+12 {
		t.Fatalf("bag: %d rows from %d matches, want 12 from 15", got, n)
	}
	n = 0
	if got := len(cp.EvalDistinct([]string{"x"}).Rows); got != 3 || n != 3+3 {
		t.Fatalf("distinct: %d rows from %d matches, want 3 from 6", got, n)
	}
}

// TestAlternativeSteps: a step over an atom of several alternatives
// (NewJoinPlan) matches each in turn. A filter step, binding nothing
// projected, stops at the first alternative that matches, tried in
// descending order of count; a binding step enumerates every alternative;
// the plan keeps its dedup set; and a plan's first run is sized by its
// first atom's largest alternative, not by their sum.
func TestAlternativeSteps(t *testing.T) {
	d := dict.New()
	st := store.New()
	iri := func(n string) rdf.Term { return rdf.NewIRI("http://ex.org/" + n) }
	add := func(s, p, o rdf.Term) { st.Add(store.Triple{S: d.Encode(s), P: d.Encode(p), O: d.Encode(o)}) }
	x, c := rdf.NewVar("x"), rdf.NewVar("c")
	// s0 is of the classes A, B and C, s1 of B and C, s2 of C and s3 of A:
	// A and B have two members, C three. s0 takes c0 and teaches c1.
	for i, classes := range [][]string{{"A", "B", "C"}, {"B", "C"}, {"C"}, {"A"}} {
		s := iri(fmt.Sprintf("s%d", i))
		add(s, rdf.Type, iri("Person"))
		for _, k := range classes {
			add(s, rdf.Type, iri(k))
		}
	}
	add(iri("s0"), iri("takes"), iri("c0"))
	add(iri("s0"), iri("teaches"), iri("c1"))
	filter := []rdf.Triple{rdf.T(x, rdf.Type, iri("Person")),
		rdf.T(x, rdf.Type, iri("A")), rdf.T(x, rdf.Type, iri("B")), rdf.T(x, rdf.Type, iri("C"))}
	atoms := []int{0, 1, 1, 1}

	var n int
	counted := countSource{st, &n}
	pl, err := NewJoinPlan(counted, filter, atoms, d, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.steps) != 2 || len(pl.steps[1].alts) != 3 || !pl.steps[1].exists || pl.steps[1].alts[0].o.id != d.Encode(iri("C")) {
		t.Fatalf("want a Person step, then an existential step over 3 alternatives, C first; got %+v", pl.steps)
	}
	// s3 comes after s2, whose first alternative matched; its own first
	// does not.
	if got := len(pl.Exec(counted).Rows); got != 4 || n != 4+4 {
		t.Fatalf("filter: %d rows from %d matches, want 4 from 4 Person matches and 1 match each of C, or A for s3", got, n)
	}
	n = 0
	if got := len(pl.exec(counted, false).Rows); got != 7 || n != 4+7 {
		t.Fatalf("filter, bag: %d rows from %d matches, want 7 from 11", got, n)
	}
	sorted, err := NewJoinPlan(st, filter, atoms, d, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if sorted.unique {
		t.Fatal("a plan over alternatives is unique")
	}
	if got := len(ExecUnion(st, sorted.proj, []*Plan{sorted}, []Fixed{{}}).Rows); got != 4 {
		t.Fatalf("filter as a union: %d rows, want 4", got)
	}

	// ?c is projected, so the step over takes and teaches binds it: both
	// alternatives run in full.
	n = 0
	bind, err := NewJoinPlan(counted, []rdf.Triple{rdf.T(x, iri("takes"), c), rdf.T(x, iri("teaches"), c)}, []int{0, 0}, d, []string{"x", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(bind.Exec(counted).Rows); got != 2 || n != 2 || bind.steps[0].exists {
		t.Fatalf("binding step: %d rows from %d matches (existential %v), want 2 from 2", got, n, bind.steps[0].exists)
	}

	// One atom of the three classes: the planner's cost sums them, the
	// first run's hint is the largest.
	if _, err := NewJoinPlan(st, filter[1:], atoms[1:], d, []string{"x"}); err == nil {
		t.Fatal("atom numbers starting at 1 were accepted")
	}
	classes, err := NewJoinPlan(st, filter[1:], []int{0, 0, 0}, d, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if classes.est != 3 || classes.order[0].EstimatedCost != 2+2+3+1 {
		t.Fatalf("hint %d, cost %d: want the largest count, 3, and the sum plus one, 8", classes.est, classes.order[0].EstimatedCost)
	}
	if got := len(classes.Exec(st).Rows); got != 4 {
		t.Fatalf("one atom of three classes: %d rows, want 4", got)
	}

	// An alternative with a constant the dictionary lacks is dropped, the
	// atom kept while it has another; the plan resolves it once the
	// dictionary has it.
	partial, err := NewJoinPlan(st, []rdf.Triple{rdf.T(x, rdf.Type, iri("A")), rdf.T(x, rdf.Type, iri("D"))}, []int{0, 0}, d, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(partial.Exec(st).Rows); got != 2 || partial.c.impossible || partial.steps[0].alts != nil {
		t.Fatalf("unknown alternative: %d rows, impossible %v, %d alternatives; want 2, false, 1", got, partial.c.impossible, max(1, len(partial.steps[0].alts)))
	}
	add(iri("s2"), rdf.Type, iri("D"))
	if got := len(partial.For(st).Exec(st).Rows); got != 3 {
		t.Fatalf("after D is known: %d rows, want 3", got)
	}

	// A variable only some alternatives hold belongs to its atom.
	if _, err := NewJoinPlan(st, []rdf.Triple{rdf.T(x, rdf.Type, iri("A")), rdf.T(x, iri("takes"), c), rdf.T(c, rdf.Type, iri("A"))}, []int{0, 0, 1}, d, nil); err == nil {
		t.Fatal("a variable of one alternative shared with another atom was accepted")
	}
}
