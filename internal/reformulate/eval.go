package reformulate

import (
	"repro/internal/dict"
	"repro/internal/engine"
)

// PreparedUCQ is a reformulated union compiled for execution: the (minimised)
// union as engine plans, so a repeatedly-asked query pays the rewriting and
// planning once and each later execution only the join work. A run of
// branches that is the product of its atoms' rewriting lists (UCQ.Explain)
// is one plan, the join of the atoms' unions, which matches each atom's
// rewritings in turn at its step instead of repeating the other atoms'
// matches once per branch; every other branch is a plan of its own.
// It is immutable once built — any number of goroutines execute one
// PreparedUCQ at the same time, each on scratch from the engine's pool — and
// the source is an argument of Exec. What goes stale inside it (a plan's
// join order, a constant the dictionary did not know) is replaced through
// For; when the rewriting itself goes stale (schema change, or any data
// change under VocabDependent) the caller builds a new one, since only it
// sees schema updates.
//
//webreason:frozen
type PreparedUCQ struct {
	src   engine.Source // what Prepare planned against; Evaluate's source
	proj  []string
	plans []*engine.Plan
	fixed []engine.Fixed // per plan, the columns the rewriting fixed
}

// Prepare compiles the union against d and plans it against src: each run
// of branches that is a product as one join of its atoms' unions
// (engine.NewJoinPlan), every other branch on its own.
//
//webreason:writer
func (u *UCQ) Prepare(src engine.Source, d *dict.Dict) (*PreparedUCQ, error) {
	n := len(u.Branches)
	for _, j := range u.joins {
		n -= j.hi - j.lo - 1
	}
	pu := &PreparedUCQ{src: src, proj: u.Query.Projection(), plans: make([]*engine.Plan, 0, n), fixed: make([]engine.Fixed, 0, n)}
	joins := u.joins
	for i := 0; i < len(u.Branches); {
		br := u.Branches[i]
		var p *engine.Plan
		var err error
		if len(joins) > 0 && joins[0].lo == i {
			p, err = engine.NewJoinPlan(src, joins[0].patterns, joins[0].atoms, d, pu.proj)
			i, joins = joins[0].hi, joins[1:]
		} else {
			p, err = engine.NewPlan(src, br.Patterns, d, pu.proj)
			i++
		}
		if err != nil {
			return nil, err
		}
		// Columns of variables the rewriting bound to constants.
		var fx engine.Fixed
		for i, v := range pu.proj {
			if t, ok := br.Fixed[v]; ok {
				if id, known := d.Lookup(t); known {
					fx.Cols = append(fx.Cols, i)
					fx.IDs = append(fx.IDs, id)
				}
			}
		}
		pu.plans = append(pu.plans, p)
		pu.fixed = append(pu.fixed, fx)
	}
	return pu, nil
}

// For returns the prepared union to execute against src — the next snapshot
// of the same evolving graph, under the same schema: pu itself while every
// plan is still good there, otherwise a copy holding the successors
// engine.Plan.For names (a plan replans only when the data size has drifted
// past the engine's threshold, recompiles only when a constant it could not
// resolve may exist now). The union and the untouched plans are shared, so
// following a data-only batch costs one O(1) check per plan.
//
//webreason:writer
func (pu *PreparedUCQ) For(src engine.Source) *PreparedUCQ {
	out := pu
	for i, p := range pu.plans {
		np := p.For(src)
		if np == p {
			continue
		}
		if out == pu {
			cp := *pu
			cp.src, cp.plans = src, append([]*engine.Plan(nil), pu.plans...)
			out = &cp
		}
		out.plans[i] = np
	}
	return out
}

// Exec runs every plan against src and unions the answers, deduplicated
// over the original projection — the q_ref(G) = q(G∞) of Section II-B when
// src is the original, unsaturated graph with its schema component closed.
// The union is one engine execution (engine.ExecUnion): the plans run in
// turn on one scratch, each writing the variables the rewriting fixed as
// constant columns into its projected rows, and one dedup set across the
// plans admits a row to the one result only the first time any plan
// produces it.
//
//webreason:hotpath
func (pu *PreparedUCQ) Exec(src engine.Source) *engine.Result {
	return engine.ExecUnion(src, pu.proj, pu.plans, pu.fixed)
}

// Evaluate is Exec against the source given to Prepare.
func (pu *PreparedUCQ) Evaluate() (*engine.Result, error) { return pu.Exec(pu.src), nil }

// Evaluate answers the union against src once: prepare, execute, drop.
func (u *UCQ) Evaluate(src engine.Source, d *dict.Dict) (*engine.Result, error) {
	pu, err := u.Prepare(src, d)
	if err != nil {
		return nil, err
	}
	return pu.Exec(src), nil
}
