package main

import (
	"fmt"
	"hash/fnv"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/engine"
)

// expect is the oracle's answer to one (template, binding): the row count,
// checked on every operation, and an order-independent hash of the decoded
// rows, checked on a sample.
type expect struct {
	rows int
	hash uint64
}

// hashEvery is the sampling rate of the full-hash check.
const hashEvery = 64

// hashResult hashes a result independently of row order and of dictionary
// IDs (terms are decoded), so answers of different strategies, and of
// different knowledge bases holding the same graph, compare equal.
func hashResult(res *engine.Result, d *dict.Dict) uint64 {
	var sum uint64
	for _, row := range res.Rows {
		h := fnv.New64a()
		for _, id := range row {
			h.Write([]byte(d.MustTerm(id).String()))
			h.Write([]byte{0})
		}
		sum += h.Sum64()
	}
	return sum
}

func expectOf(res *engine.Result, d *dict.Dict) expect {
	return expect{rows: len(res.Rows), hash: hashResult(res, d)}
}

// matches checks a served answer against the oracle's: the row count always,
// the hash too when full is set.
func (e expect) matches(res *engine.Result, d *dict.Dict, full bool) bool {
	if res == nil || len(res.Rows) != e.rows {
		return false
	}
	return !full || hashResult(res, d) == e.hash
}

// oracle holds the expected answers of every query a serving workload can
// generate, computed in set-up by a different strategy than the one under
// test — the paper's identity q(G∞) = q_ref(G) = backward(G).
type oracle struct {
	point [][]expect // [binding index][point template]
	scan  [][]expect // [university][scan template]
	// eligible lists the bindings whose every point template has a non-empty
	// answer; only those are drawn, so no operation is trivially empty.
	eligible []int
}

func buildOracle(strat core.Strategy, d *dict.Dict, sc scale) (*oracle, error) {
	answer := func(text string) (expect, error) {
		q, err := webreason.ParseQuery(text)
		if err != nil {
			return expect{}, err
		}
		res, err := strat.Answer(q)
		if err != nil {
			return expect{}, fmt.Errorf("oracle %s: %w", strat.Name(), err)
		}
		return expectOf(res, d), nil
	}
	o := &oracle{}
	for bi, b := range allBindings(sc) {
		row := make([]expect, len(pointNames))
		nonEmpty := true
		for ti, t := range templates(pointNames) {
			e, err := answer(bind(t.Text, b))
			if err != nil {
				return nil, err
			}
			row[ti] = e
			nonEmpty = nonEmpty && e.rows > 0
		}
		o.point = append(o.point, row)
		if nonEmpty {
			o.eligible = append(o.eligible, bi)
		}
	}
	for u := 0; u < sc.universities; u++ {
		row := make([]expect, len(scanNames))
		for ti, t := range templates(scanNames) {
			e, err := answer(bind(t.Text, binding{univ: u}))
			if err != nil {
				return nil, err
			}
			if e.rows == 0 {
				return nil, fmt.Errorf("oracle: scan template %s is empty for univ%d", t.Name, u)
			}
			row[ti] = e
		}
		o.scan = append(o.scan, row)
	}
	if len(o.eligible) == 0 {
		return nil, fmt.Errorf("oracle: no department answers every point template")
	}
	return o, nil
}
