package reformulate

import (
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// unionOneByOne is the reference evaluation of a prepared union, spelled out
// the long way: each plan executed on its own, the rows
// concatenated, the fixed columns written into them, and the whole
// deduplicated once more.
func unionOneByOne(pu *PreparedUCQ, src engine.Source) *engine.Result {
	out := &engine.Result{Vars: pu.proj}
	for i, p := range pu.plans {
		res := p.Exec(src)
		for _, row := range res.Rows {
			for k, col := range pu.fixed[i].Cols {
				row[col] = pu.fixed[i].IDs[k]
			}
		}
		out.Rows = append(out.Rows, res.Rows...)
	}
	return out.Distinct()
}

// sameRows reports whether a and b hold the same columns and the same rows
// in the same order.
func sameRows(a, b *engine.Result) bool {
	return slices.Equal(a.Vars, b.Vars) && slices.EqualFunc(a.Rows, b.Rows, slices.Equal[[]dict.ID])
}

func copyResult(r *engine.Result) *engine.Result {
	out := &engine.Result{Vars: r.Vars}
	for _, row := range r.Rows {
		out.Rows = append(out.Rows, slices.Clone(row))
	}
	return out
}

// TestExecUnionEdgeCases checks the one-execution union against the
// branch-by-branch reference on the shapes where they could part: no
// branches, a branch no triple can match, a branch adding no new row, rows
// that differ only in a fixed column, projections past three columns, and
// ASK, ground or not. Every result must also survive later executions that
// reuse the pooled scratch it was built on.
func TestExecUnionEdgeCases(t *testing.T) {
	k := universityKB(t)
	x, y := rdf.NewVar("x"), rdf.NewVar("y")
	branch := func(pats ...rdf.Triple) Branch { return Branch{Patterns: pats} }
	rewrite := func(qtext string) *UCQ {
		u, err := Reformulate(sparql.MustParse(prefix+qtext), k.sch, k.d, k.st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	selX := sparql.MustParse(prefix + "SELECT ?x WHERE { ?x ex:knows ?y }")
	cases := []struct {
		name string
		ucq  *UCQ
		rows int
	}{
		{"zero branches", mkUCQ(selX), 0},
		{"a branch with a constant the dictionary lacks", mkUCQ(selX,
			branch(rdf.T(x, tIRI("Dragon"), y)),
			branch(rdf.T(x, tIRI("knows"), y))), 1},
		{"a branch whose rows all repeat an earlier one's", mkUCQ(selX,
			branch(rdf.T(x, tIRI("knows"), y)),
			branch(rdf.T(x, tIRI("knows"), tIRI("kim")))), 1},
		{"branches that differ only in a fixed column", rewrite("SELECT ?c WHERE { ?x a ?c }"), 4},
		{"a fixed column beside a bound one", rewrite("SELECT ?x ?c WHERE { ?x a ?c }"), 11},
		{"four columns, fixed ones among them", rewrite("SELECT ?c ?x ?c ?x WHERE { ?x a ?c }"), 11},
		{"ASK", rewrite("ASK { ?x a ex:Person }"), 5},
		{"ground ASK with answers in two branches", rewrite("ASK { ex:kim a ex:Person }"), 1},
		{"ground ASK without an answer", rewrite("ASK { ex:kim a ex:Professor }"), 0},
	}
	prepared := make([]*PreparedUCQ, len(cases))
	got := make([]*engine.Result, len(cases))
	for i, c := range cases {
		pu, err := c.ucq.Prepare(k.st, k.d)
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = pu
		for range 2 { // the second execution runs on the row hints the first left
			got[i] = pu.Exec(k.st)
			if want := unionOneByOne(pu, k.st); !sameRows(got[i], want) {
				t.Errorf("%s: union %v, branch by branch %v", c.name, got[i].Rows, want.Rows)
			}
			if len(got[i].Rows) != c.rows {
				t.Errorf("%s: %d rows, want %d", c.name, len(got[i].Rows), c.rows)
			}
		}
	}
	kept := make([]*engine.Result, len(got))
	for i, r := range got {
		kept[i] = copyResult(r)
	}
	for _, pu := range prepared {
		pu.Exec(k.st)
	}
	for i, c := range cases {
		if !sameRows(got[i], kept[i]) {
			t.Errorf("%s: result changed after later executions: %v, was %v", c.name, got[i].Rows, kept[i].Rows)
		}
	}
}
