package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestThresholdArithmetic(t *testing.T) {
	m := MaintenanceCosts{
		Saturation:     100 * time.Millisecond,
		InstanceInsert: 1 * time.Millisecond,
		InstanceDelete: 2 * time.Millisecond,
		SchemaInsert:   50 * time.Millisecond,
		SchemaDelete:   80 * time.Millisecond,
	}
	q := QueryCosts{EvalSaturated: 1 * time.Millisecond, AnswerReformulated: 3 * time.Millisecond}
	th := ComputeThresholds(m, q)
	// gain = 2ms per run.
	if th.Saturation != 50 {
		t.Errorf("saturation threshold = %v, want 50", th.Saturation)
	}
	if th.InstanceInsert != 1 {
		t.Errorf("instance insert threshold = %v, want 1", th.InstanceInsert)
	}
	if th.InstanceDelete != 1 {
		t.Errorf("instance delete threshold = %v, want 1 (ceil(2/2))", th.InstanceDelete)
	}
	if th.SchemaInsert != 25 || th.SchemaDelete != 40 {
		t.Errorf("schema thresholds = %v/%v, want 25/40", th.SchemaInsert, th.SchemaDelete)
	}
}

func TestThresholdInfinityWhenReformulationWins(t *testing.T) {
	// If evaluating q on G∞ is not faster than answering by reformulation,
	// saturation never amortises: threshold is +Inf (the paper's "more than
	// 10 million runs" cases are this regime's finite cousins).
	q := QueryCosts{EvalSaturated: 3 * time.Millisecond, AnswerReformulated: 3 * time.Millisecond}
	th := ComputeThresholds(MaintenanceCosts{Saturation: time.Second}, q)
	if !math.IsInf(th.Saturation, 1) {
		t.Errorf("threshold = %v, want +Inf", th.Saturation)
	}
}

func TestThresholdZeroCost(t *testing.T) {
	q := QueryCosts{EvalSaturated: 1 * time.Millisecond, AnswerReformulated: 5 * time.Millisecond}
	th := ComputeThresholds(MaintenanceCosts{}, q)
	if th.Saturation != 0 || th.InstanceInsert != 0 {
		t.Errorf("zero-cost thresholds should be 0, got %+v", th)
	}
}

// TestThresholdDefinitionProperty checks the defining inequality: at the
// threshold, saturation + n·eval ≤ n·reformulation, and below it (n−1) the
// inequality fails — i.e. threshold really is the minimum.
func TestThresholdDefinitionProperty(t *testing.T) {
	f := func(costMs, evalUs, refUs uint16) bool {
		cost := time.Duration(costMs%10000+1) * time.Millisecond
		eval := time.Duration(evalUs%5000+1) * time.Microsecond
		ref := time.Duration(refUs%5000+1) * time.Microsecond
		q := QueryCosts{EvalSaturated: eval, AnswerReformulated: ref}
		n := threshold(cost, q)
		if ref <= eval {
			return math.IsInf(n, 1)
		}
		// At n: amortised.
		lhs := float64(cost) + n*float64(eval)
		rhs := n * float64(ref)
		if lhs > rhs+1e-6 {
			return false
		}
		// At n-1 (if meaningful): not yet amortised.
		if n >= 1 {
			lhs = float64(cost) + (n-1)*float64(eval)
			rhs = (n - 1) * float64(ref)
			if lhs < rhs-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeriesOrderMatchesFigure3Legend(t *testing.T) {
	th := Thresholds{Saturation: 1, InstanceInsert: 2, InstanceDelete: 3, SchemaInsert: 4, SchemaDelete: 5}
	s := th.Series()
	wantNames := []string{
		"saturation threshold",
		"threshold for an instance insertion",
		"threshold for an instance deletion",
		"threshold for a schema insertion",
		"threshold for a schema deletion",
	}
	for i, w := range wantNames {
		if s[i].Name != w {
			t.Errorf("series %d = %q, want %q", i, s[i].Name, w)
		}
		if s[i].Value != float64(i+1) {
			t.Errorf("series %d value = %v", i, s[i].Value)
		}
	}
}

func TestAdvisor(t *testing.T) {
	cm := CostModel{
		Maintenance: MaintenanceCosts{
			Saturation:     100 * time.Millisecond,
			InstanceInsert: time.Millisecond,
			InstanceDelete: 2 * time.Millisecond,
			SchemaInsert:   20 * time.Millisecond,
			SchemaDelete:   30 * time.Millisecond,
		},
		EvalSaturated:      time.Millisecond,
		AnswerReformulated: 10 * time.Millisecond,
		AnswerBackward:     5 * time.Millisecond,
	}
	// Query-heavy, static data: saturation amortises easily.
	r := Advise(cm, Workload{Queries: 10000})
	if r.Best != "saturation" {
		t.Errorf("static workload: best = %s, want saturation (%v)", r.Best, r.Totals)
	}
	// Update-heavy, few queries: saturation loses; backward beats
	// reformulation on per-query cost here.
	r = Advise(cm, Workload{Queries: 10, SchemaInserts: 100, SchemaDeletes: 100})
	if r.Best == "saturation" {
		t.Errorf("dynamic workload: saturation should lose (%v)", r.Totals)
	}
	if r.Best != "backward" {
		t.Errorf("dynamic workload: best = %s, want backward (%v)", r.Best, r.Totals)
	}
	// Without a backward measurement only the two core techniques rank.
	cm.AnswerBackward = 0
	r = Advise(cm, Workload{Queries: 10, SchemaInserts: 100})
	if _, ok := r.Totals["backward"]; ok {
		t.Error("backward should be absent when unmeasured")
	}
	if r.Best != "reformulation" {
		t.Errorf("best = %s, want reformulation (%v)", r.Best, r.Totals)
	}
	if r.String() == "" {
		t.Error("empty recommendation string")
	}
}
