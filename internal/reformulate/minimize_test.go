package reformulate

import (
	"slices"
	"testing"

	"repro/internal/rdf"
	"repro/internal/sparql"
)

func tIRI(n string) rdf.Term { return rdf.NewIRI("http://ex.org/" + n) }

func mkUCQ(q *sparql.Query, branches ...Branch) *UCQ {
	return &UCQ{Query: q, Branches: branches}
}

func TestMinimizeDropsSubsumedBranch(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:C }`)
	general := Branch{Patterns: []rdf.Triple{
		rdf.T(rdf.NewVar("x"), tIRI("p"), rdf.NewVar("_f1")),
	}}
	specific := Branch{Patterns: []rdf.Triple{
		rdf.T(rdf.NewVar("x"), tIRI("p"), tIRI("b")),
	}}
	min := mkUCQ(q, general, specific).Minimize()
	if min.Size() != 1 {
		t.Fatalf("size = %d, want 1 (specific branch subsumed): %v", min.Size(), min.Branches)
	}
	if min.Branches[0].Patterns[0].O != rdf.NewVar("_f1") {
		t.Error("kept the wrong branch")
	}
}

func TestMinimizeKeepsIncomparableBranches(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:C }`)
	b1 := Branch{Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), rdf.Type, tIRI("C"))}}
	b2 := Branch{Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), rdf.Type, tIRI("D"))}}
	min := mkUCQ(q, b1, b2).Minimize()
	if min.Size() != 2 {
		t.Errorf("incomparable branches pruned: %d", min.Size())
	}
}

func TestMinimizeEquivalentBranchesKeepOne(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:C }`)
	// Same shape, different fresh-variable names: mutually subsuming.
	b1 := Branch{Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), tIRI("p"), rdf.NewVar("_f1"))}}
	b2 := Branch{Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), tIRI("p"), rdf.NewVar("_f2"))}}
	min := mkUCQ(q, b1, b2).Minimize()
	if min.Size() != 1 {
		t.Errorf("equivalent branches: size = %d, want 1", min.Size())
	}
}

func TestMinimizeRespectsNamedVariables(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p ?y }`)
	// (x p y) does NOT subsume (x p x): y is a named variable and must map
	// to itself.
	b1 := Branch{Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), tIRI("p"), rdf.NewVar("y"))}}
	b2 := Branch{Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), tIRI("p"), rdf.NewVar("x"))}}
	min := mkUCQ(q, b1, b2).Minimize()
	if min.Size() != 2 {
		t.Errorf("named-variable branches pruned: size = %d, want 2", min.Size())
	}
}

func TestMinimizeRespectsFixedBindings(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x ?c WHERE { ?x a ?c }`)
	b1 := Branch{
		Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), rdf.Type, tIRI("C"))},
		Fixed:    map[string]rdf.Term{"c": tIRI("C")},
	}
	b2 := Branch{
		Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), rdf.Type, tIRI("C"))},
		Fixed:    map[string]rdf.Term{"c": tIRI("D")},
	}
	min := mkUCQ(q, b1, b2).Minimize()
	if min.Size() != 2 {
		t.Errorf("branches with different Fixed pruned: size = %d, want 2", min.Size())
	}
	// Identical Fixed: prune.
	b3 := b1
	min = mkUCQ(q, b1, b3).Minimize()
	if min.Size() != 1 {
		t.Errorf("identical branches kept: size = %d, want 1", min.Size())
	}
}

func TestMinimizeMultiPatternSubsumption(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x a ex:C }`)
	// {(x p _f1)} subsumes {(x p _f2) . (x q d)} — the extra conjunct only
	// restricts.
	small := Branch{Patterns: []rdf.Triple{rdf.T(rdf.NewVar("x"), tIRI("p"), rdf.NewVar("_f1"))}}
	big := Branch{Patterns: []rdf.Triple{
		rdf.T(rdf.NewVar("x"), tIRI("p"), rdf.NewVar("_f2")),
		rdf.T(rdf.NewVar("x"), tIRI("q"), tIRI("d")),
	}}
	min := mkUCQ(q, big, small).Minimize()
	if min.Size() != 1 {
		t.Fatalf("size = %d, want 1", min.Size())
	}
	if len(min.Branches[0].Patterns) != 1 {
		t.Error("kept the subsumed (larger) branch")
	}
}

// TestMinimizeCoresQ9 reduces LUBM Q9's one minimised branch to its core:
// each of its first two atoms maps into a later atom of the branch, the
// fresh variable going to ?c, so the branch keeps its last three atoms, in
// their order.
func TestMinimizeCoresQ9(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x ?y ?c WHERE { ?x ex:advisor ?y . ?y ex:teacherOf ?c . ?x ex:takesCourse ?c }`)
	x, y, c := rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("c")
	br := Branch{Patterns: []rdf.Triple{
		rdf.T(x, tIRI("takesCourse"), rdf.NewVar("_f1")),
		rdf.T(y, tIRI("teacherOf"), rdf.NewVar("_f16")),
		rdf.T(x, tIRI("advisor"), y),
		rdf.T(y, tIRI("teacherOf"), c),
		rdf.T(x, tIRI("takesCourse"), c),
	}}
	min := mkUCQ(q, br).Minimize()
	if min.Size() != 1 {
		t.Fatalf("size = %d, want 1", min.Size())
	}
	if got, want := min.Branches[0].Patterns, br.Patterns[2:]; !slices.Equal(got, want) {
		t.Errorf("core = %v, want %v", got, want)
	}
	if len(br.Patterns) != 5 {
		t.Error("Minimize changed the receiver's branch")
	}
}

// TestMinimizeCoreFixesNamedVariables keeps an atom that only a map of a
// named variable would imply: ?y q ?_f1 maps onto ?z q ex:c if ?y goes to
// ?z, but ?y is a variable of the query, not projected yet still fixed,
// so the branch has no smaller core.
func TestMinimizeCoreFixesNamedVariables(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:p ?y . ?x ex:p ?z . ?z ex:q ex:c }`)
	x, y, z := rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("z")
	br := Branch{Patterns: []rdf.Triple{
		rdf.T(x, tIRI("p"), y),
		rdf.T(y, tIRI("q"), rdf.NewVar("_f1")),
		rdf.T(x, tIRI("p"), z),
		rdf.T(z, tIRI("q"), tIRI("c")),
	}}
	if got := mkUCQ(q, br).Minimize().Branches[0].Patterns; len(got) != 4 {
		t.Errorf("core = %v, want all four atoms", got)
	}
}

// TestMinimizeCoreMapsWholeBranch drops an atom whose fresh variable also
// occurs in another atom only when the whole branch maps: ?x p ?_f1 maps
// onto ?x p ?z, which takes ?_f1 to ?z, so ?_f1 q ?y must map onto ?z q ?y.
// Without that atom the branch is a core; with it, both atoms of ?_f1 go.
func TestMinimizeCoreMapsWholeBranch(t *testing.T) {
	q := sparql.MustParse(`PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p ?z . ?z ex:q ?y }`)
	x, y, z, f := rdf.NewVar("x"), rdf.NewVar("y"), rdf.NewVar("z"), rdf.NewVar("_f1")
	chain := []rdf.Triple{rdf.T(x, tIRI("p"), f), rdf.T(f, tIRI("q"), y), rdf.T(x, tIRI("p"), z)}
	if got := mkUCQ(q, Branch{Patterns: chain}).Minimize().Branches[0].Patterns; len(got) != 3 {
		t.Errorf("core = %v, want all three atoms: ?_f1 q ?y has no image", got)
	}
	both := append(slices.Clone(chain), rdf.T(z, tIRI("q"), y))
	if got, want := mkUCQ(q, Branch{Patterns: both}).Minimize().Branches[0].Patterns, both[2:]; !slices.Equal(got, want) {
		t.Errorf("core = %v, want %v", got, want)
	}
}

// TestMinimizePreservesAnswers is the semantic guarantee: on the standard
// fixture, the minimized union returns exactly the same answers as the full
// union for every workload query.
func TestMinimizePreservesAnswers(t *testing.T) {
	k := universityKB(t)
	queries := []string{
		prefix + "SELECT ?x WHERE { ?x a ex:Person }",
		prefix + "SELECT ?x ?y WHERE { ?x ex:knows ?y }",
		prefix + "SELECT ?x ?c WHERE { ?x a ?c }",
		prefix + "SELECT ?x WHERE { ?x a ex:Person . ?x ex:knows ?y }",
	}
	for _, qtext := range queries {
		q := sparql.MustParse(qtext)
		ucq, err := Reformulate(q, k.sch, k.d, k.st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		min := ucq.Minimize()
		if min.Size() > ucq.Size() {
			t.Errorf("%s: minimization grew the union", qtext)
		}
		full, err := ucq.Evaluate(k.st, k.d)
		if err != nil {
			t.Fatal(err)
		}
		reduced, err := min.Evaluate(k.st, k.d)
		if err != nil {
			t.Fatal(err)
		}
		fullRows := rowsToStrings(full, k.d)
		minRows := rowsToStrings(reduced, k.d)
		if len(fullRows) != len(minRows) {
			t.Fatalf("%s: minimization changed answers (%d vs %d)", qtext, len(fullRows), len(minRows))
		}
		for i := range fullRows {
			if fullRows[i] != minRows[i] {
				t.Fatalf("%s: answers differ after minimization", qtext)
			}
		}
	}
}
