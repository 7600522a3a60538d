package bench

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/lubm"
)

func TestRenderFigure1(t *testing.T) {
	var buf bytes.Buffer
	RenderFigure1(&buf)
	out := buf.String()
	for _, want := range []string{"rdf:type", "rdfs:subClassOf", "rdfs:domain", "rdfs:range", "Π_domain(s) ⊆ o"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderFigure2(t *testing.T) {
	var buf bytes.Buffer
	RenderFigure2(&buf)
	out := buf.String()
	for _, want := range []string{"rdfs9", "rdfs7", "rdfs2", "rdfs3", "rdfs5", "rdfs11", "⊢"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 2 output missing %q:\n%s", want, out)
		}
	}
	// Paper order: rdfs9 before rdfs7 before rdfs2 before rdfs3.
	if strings.Index(out, "rdfs9") > strings.Index(out, "rdfs7") {
		t.Error("Figure 2 rules not in paper order")
	}
}

func TestWorkbenchAndFig3Small(t *testing.T) {
	res, err := RunFig3(lubm.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 14 {
		t.Fatalf("Fig3 rows = %d, want 14", len(res.Rows))
	}
	if res.Maintenance.Saturation <= 0 {
		t.Error("saturation cost not measured")
	}
	// Schema updates must cost more to maintain than instance updates — the
	// core asymmetry behind Figure 3's series ordering. Either timing is a few
	// microseconds with a ≈1.5× margin between them, so one reading of each
	// can invert under load: compare the medians of several.
	w, err := NewWorkbench(lubm.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	const readings = 9
	var schIns, instIns []time.Duration
	for i := 0; i < readings; i++ {
		m := w.MaintenanceCosts()
		schIns, instIns = append(schIns, m.SchemaInsert), append(instIns, m.InstanceInsert)
	}
	slices.Sort(schIns)
	slices.Sort(instIns)
	t.Logf("maint over %d readings: schIns=%v instIns=%v", readings, schIns, instIns)
	if schIns[readings/2] <= instIns[readings/2] {
		t.Errorf("median schema insert (%v) should cost more than median instance insert (%v)",
			schIns[readings/2], instIns[readings/2])
	}
	finite := 0
	for _, row := range res.Rows {
		if row.Costs.EvalSaturated <= 0 || row.Costs.AnswerReformulated <= 0 {
			t.Errorf("%s: unmeasured costs %+v", row.Query, row.Costs)
		}
		if !math.IsInf(row.Thresholds.Saturation, 1) {
			finite++
		}
	}
	if finite == 0 {
		t.Error("no query has a finite saturation threshold — reformulation can't always win")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "saturation threshold") && !strings.Contains(buf.String(), "Figure 3") {
		t.Errorf("render output unexpected:\n%s", buf.String())
	}
}

func TestSaturationScaling(t *testing.T) {
	rows, err := RunSaturationScaling([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Base <= rows[0].Base {
		t.Error("base size must grow with departments")
	}
	for _, r := range rows {
		if r.Saturated <= r.Base {
			t.Errorf("saturation added nothing at %d departments", r.Departments)
		}
		if r.Increase <= 0 {
			t.Error("increase should be positive")
		}
	}
	var buf bytes.Buffer
	RenderSaturationScaling(&buf, rows)
	if !strings.Contains(buf.String(), "|G∞|") {
		t.Error("render missing header")
	}
}

func TestStrategiesComparison(t *testing.T) {
	rows, err := RunStrategies(lubm.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("rows = %d", len(rows))
	}
	reasoningGains := 0
	for _, r := range rows {
		if r.Answers <= 0 {
			t.Errorf("%s: no answers", r.Query)
		}
		if r.Plain > r.Answers {
			t.Errorf("%s: plain evaluation found more answers than query answering", r.Query)
		}
		if r.Plain < r.Answers {
			reasoningGains++
		}
	}
	if reasoningGains < 8 {
		t.Errorf("only %d queries gain answers from reasoning; workload should exercise entailment", reasoningGains)
	}
	var buf bytes.Buffer
	RenderStrategies(&buf, rows)
	if !strings.Contains(buf.String(), "backward") {
		t.Error("render missing backward column")
	}
}

func TestBlowup(t *testing.T) {
	rows, err := RunBlowup(lubm.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BlowupRow{}
	for _, r := range rows {
		byName[r.Query] = r
	}
	// Q14 (explicit leaf class, no reasoning) must stay a single BGP…
	if byName["Q14"].Branches != 1 {
		t.Errorf("Q14 branches = %d, want 1", byName["Q14"].Branches)
	}
	// …while Q6 (all students) must expand beyond the original pattern.
	if byName["Q6"].Branches <= 1 {
		t.Errorf("Q6 branches = %d, want >1", byName["Q6"].Branches)
	}
	// Q5 (Person + memberOf) is the big-blowup query of the workload.
	if byName["Q5"].Branches <= byName["Q6"].Branches {
		t.Errorf("Q5 (%d) should blow up more than Q6 (%d)", byName["Q5"].Branches, byName["Q6"].Branches)
	}
	var buf bytes.Buffer
	RenderBlowup(&buf, rows)
	if !strings.Contains(buf.String(), "union size") {
		t.Error("render missing header")
	}
}

func TestMaintenanceAblation(t *testing.T) {
	rows, err := RunMaintenance(lubm.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Incremental <= 0 || r.Counting <= 0 || r.Resaturate <= 0 {
			t.Errorf("%s: unmeasured cost %+v", r.Op, r)
		}
		// Incremental instance maintenance must beat recomputing from
		// scratch by a wide margin.
		if r.Op == "instance insert" && r.Incremental*10 > r.Resaturate {
			t.Errorf("instance insert: incremental %v not ≪ resaturate %v", r.Incremental, r.Resaturate)
		}
	}
	var buf bytes.Buffer
	RenderMaintenance(&buf, rows)
	if !strings.Contains(buf.String(), "counting") {
		t.Error("render missing counting column")
	}
}

func TestAdvisorExperiment(t *testing.T) {
	rows, err := RunAdvisor(lubm.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byMix := map[string]AdvisorRow{}
	for _, r := range rows {
		byMix[r.Mix] = r
		if r.Predicted != r.Measured {
			t.Errorf("%s: predicted %s but measured %s", r.Mix, r.Predicted, r.Measured)
		}
	}
	if byMix["static, query-heavy"].Predicted != "saturation" {
		t.Errorf("static workload should favour saturation, got %s", byMix["static, query-heavy"].Predicted)
	}
	if byMix["schema churn"].Predicted == "saturation" {
		t.Error("schema-churn workload should not favour saturation")
	}
	var buf bytes.Buffer
	RenderAdvisor(&buf, rows)
	if !strings.Contains(buf.String(), "recommendation") {
		t.Error("render missing header")
	}
}

func TestMeasureHelper(t *testing.T) {
	n := 0
	d := measure(time.Millisecond, 100, func() { n++ })
	if n == 0 || d < 0 {
		t.Errorf("measure ran %d times, d=%v", n, d)
	}
	// maxReps respected.
	n = 0
	measure(time.Hour, 5, func() { n++ })
	if n != 5 {
		t.Errorf("measure ran %d times, want 5", n)
	}
}
