package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lubm"
)

func TestRunParallelSaturation(t *testing.T) {
	rows, err := RunParallelSaturation(lubm.SmallConfig(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Triples != rows[1].Triples {
		t.Error("closure size must not depend on workers")
	}
	for _, r := range rows {
		if r.Duration <= 0 || r.Rounds <= 0 {
			t.Errorf("unmeasured row %+v", r)
		}
	}
	var buf bytes.Buffer
	RenderParallelSaturation(&buf, rows)
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("render missing speedup column")
	}
}
