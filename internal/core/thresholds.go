package core

import (
	"math"
	"time"
)

// MaintenanceCosts are the saturation-side one-time costs of Figure 3: the
// initial saturation of G, and the cost of maintaining G∞ after one update
// of each kind. All are measured quantities (the bench harness fills them).
type MaintenanceCosts struct {
	// Saturation is the cost of computing G∞ from scratch.
	Saturation time.Duration
	// InstanceInsert/InstanceDelete are the costs of maintaining G∞ after
	// inserting/deleting one instance (non-schema) triple.
	InstanceInsert time.Duration
	InstanceDelete time.Duration
	// SchemaInsert/SchemaDelete are the same for one schema triple — the
	// expensive direction, since one constraint typically (in)validates
	// many derived facts.
	SchemaInsert time.Duration
	SchemaDelete time.Duration
}

// QueryCosts are the per-execution costs of answering one query both ways.
type QueryCosts struct {
	// EvalSaturated is the cost of evaluating q over G∞.
	EvalSaturated time.Duration
	// AnswerReformulated is the cost of reformulating q and evaluating
	// q_ref over G.
	AnswerReformulated time.Duration
}

// Thresholds are the five series of Figure 3 for one query: the minimum
// number of executions of q after which paying the saturation (resp. one
// maintenance step) beats answering by reformulation every time. +Inf means
// saturation never amortises for this query (reformulated evaluation is at
// least as fast as evaluation over G∞); 0 means the saturation-side cost is
// free, so saturation wins immediately.
type Thresholds struct {
	Saturation     float64
	InstanceInsert float64
	InstanceDelete float64
	SchemaInsert   float64
	SchemaDelete   float64
}

// threshold computes the minimal n with cost + n·evalSat ≤ n·answerRef.
func threshold(cost time.Duration, q QueryCosts) float64 {
	gain := q.AnswerReformulated - q.EvalSaturated
	if gain <= 0 {
		// Reformulation answers at least as fast as the saturated
		// evaluation: no number of runs amortises the saturation cost.
		return math.Inf(1)
	}
	if cost <= 0 {
		return 0
	}
	return math.Ceil(float64(cost) / float64(gain))
}

// ComputeThresholds evaluates the Figure 3 arithmetic for one query.
func ComputeThresholds(m MaintenanceCosts, q QueryCosts) Thresholds {
	return Thresholds{
		Saturation:     threshold(m.Saturation, q),
		InstanceInsert: threshold(m.InstanceInsert, q),
		InstanceDelete: threshold(m.InstanceDelete, q),
		SchemaInsert:   threshold(m.SchemaInsert, q),
		SchemaDelete:   threshold(m.SchemaDelete, q),
	}
}

// Series returns the five thresholds in Figure 3's legend order, paired
// with the paper's series names.
func (t Thresholds) Series() []struct {
	Name  string
	Value float64
} {
	return []struct {
		Name  string
		Value float64
	}{
		{"saturation threshold", t.Saturation},
		{"threshold for an instance insertion", t.InstanceInsert},
		{"threshold for an instance deletion", t.InstanceDelete},
		{"threshold for a schema insertion", t.SchemaInsert},
		{"threshold for a schema deletion", t.SchemaDelete},
	}
}
