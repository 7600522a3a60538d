package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/lubm"
	"repro/internal/reason"
)

// ---------------------------------------------------------------------------
// E10 — parallel saturation (§II-D open issue)
// ---------------------------------------------------------------------------

// ParallelRow is one worker-count measurement.
type ParallelRow struct {
	Workers  int
	Duration time.Duration
	Triples  int
	Rounds   int
}

// RunParallelSaturation saturates the same graph with 1..n workers (E10).
func RunParallelSaturation(cfg lubm.Config, workerCounts []int) ([]ParallelRow, error) {
	kb := core.NewKB()
	if _, err := kb.LoadGraph(lubm.GenerateWithOntology(cfg)); err != nil {
		return nil, err
	}
	var rows []ParallelRow
	for _, wk := range workerCounts {
		var mat *reason.Materialization
		d := measure(500*time.Millisecond, 3, func() {
			mat = reason.MaterializeParallel(kb.Base(), kb.Rules(), wk)
		})
		rows = append(rows, ParallelRow{
			Workers:  wk,
			Duration: d,
			Triples:  mat.Store().Len(),
			Rounds:   mat.Stats.Rounds,
		})
	}
	// All worker counts must agree on the closure size.
	for _, r := range rows[1:] {
		if r.Triples != rows[0].Triples {
			return nil, fmt.Errorf("bench: closure size differs across worker counts: %d vs %d", r.Triples, rows[0].Triples)
		}
	}
	return rows, nil
}

// RenderParallelSaturation prints E10.
func RenderParallelSaturation(w io.Writer, rows []ParallelRow) {
	fmt.Fprintln(w, "E10 — round-synchronous parallel saturation (§II-D open issue)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workers\ttime\trounds\t|G∞|\tspeedup\t")
	base := rows[0].Duration
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%v\t%d\t%d\t%.2fx\t\n", r.Workers, r.Duration.Round(time.Millisecond),
			r.Rounds, r.Triples, float64(base)/float64(r.Duration))
	}
	tw.Flush()
}
