package webreason_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	webreason "repro"
)

// newObsServer builds a small primary with observability enabled: a few
// triples, saturation, a registry and a record-everything slow log.
func newObsServer(t *testing.T) (*webreason.Server, *webreason.MetricsRegistry, *webreason.SlowLog) {
	t.Helper()
	kb := webreason.NewKB()
	if _, err := kb.LoadGraph(webreason.GraphOf(webreason.T(webreason.NewIRI("ex:Student"), webreason.SubClassOf, webreason.NewIRI("ex:Person")))); err != nil {
		t.Fatal(err)
	}
	reg := webreason.NewMetricsRegistry()
	slow := webreason.NewSlowLog(16, 0) // threshold 0: every read records a trace
	srv := webreason.NewServer(webreason.NewSaturationStrategy(kb), webreason.ServerOptions{
		Obs:     reg,
		SlowLog: slow,
	})
	t.Cleanup(func() { srv.Close() })
	if err := srv.Insert(webreason.T(webreason.NewIRI("ex:alice"), webreason.Type, webreason.NewIRI("ex:Student"))); err != nil {
		t.Fatal(err)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	return srv, reg, slow
}

func TestAdminEndpoints(t *testing.T) {
	srv, reg, slow := newObsServer(t)
	q := webreason.MustParseQuery(`SELECT ?x WHERE { ?x a <ex:Person> . }`)
	res, err := srv.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("query rows = %d, want 1 (entailed ex:alice a ex:Person)", len(res.Rows))
	}

	ts := httptest.NewServer(webreason.AdminHandler(srv, reg, slow))
	defer ts.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE webreason_query_seconds histogram",
		`webreason_query_seconds_count{strategy="saturation",prepared="false"} 1`,
		"webreason_queue_depth 0",
		"webreason_mutations_applied_total 1",
		// One drained queue so far: one view, counted as the drain was.
		"webreason_views_published_total 1",
		"webreason_apply_seconds_count 1",
		"# TYPE webreason_store_copied_total counter",
		"# TYPE go_gc_heap_live_bytes gauge",
		"# TYPE go_gc_cycles_total counter",
		"# TYPE go_gc_cpu_fraction gauge",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, body)
	}
	var h map[string]any
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if h["role"] != "primary" || h["degraded"] != false {
		t.Fatalf("/healthz role/degraded wrong: %s", body)
	}
	if h["applied"].(float64) != 1 {
		t.Fatalf("/healthz applied = %v, want 1", h["applied"])
	}

	code, body = get("/debug/slowlog")
	if code != http.StatusOK {
		t.Fatalf("/debug/slowlog status %d", code)
	}
	var traces []webreason.QueryTrace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/debug/slowlog not JSON: %v\n%s", err, body)
	}
	if len(traces) == 0 {
		t.Fatal("/debug/slowlog empty despite threshold 0")
	}
	tr := traces[len(traces)-1]
	if tr.Strategy != "saturation" || tr.Rows != 1 || tr.Prepared {
		t.Fatalf("trace fields wrong: %+v", tr)
	}
	if !strings.Contains(tr.Query, "ex:Person") {
		t.Fatalf("trace missing query text: %+v", tr)
	}

	// Retune the threshold live; later fast reads must stop recording.
	if code, _ = get("/debug/slowlog?threshold=1h"); code != http.StatusOK {
		t.Fatalf("threshold retune status %d", code)
	}
	if slow.Threshold() != time.Hour {
		t.Fatalf("threshold = %v, want 1h", slow.Threshold())
	}
	before := slow.Seen()
	if _, err := srv.Query(q); err != nil {
		t.Fatal(err)
	}
	if slow.Seen() != before {
		t.Fatal("fast query recorded despite 1h threshold")
	}

	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if code, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

func TestAdminPreparedAndPoolCounters(t *testing.T) {
	srv, reg, _ := newObsServer(t)
	q := webreason.MustParseQuery(`SELECT ?x WHERE { ?x a <ex:Person> . }`)
	sp, err := srv.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sp.Answer(); err != nil {
			t.Fatal(err)
		}
	}
	out := expose(t, reg)
	if !strings.Contains(out, `webreason_query_seconds_count{strategy="saturation",prepared="true"} 5`) {
		t.Fatalf("prepared latency count missing:\n%s", out)
	}
	// Every execution is either a pool hit or a miss; the split itself is
	// nondeterministic under -race (the race-mode sync.Pool drops Puts).
	if hits, misses := counterValue(t, out, `webreason_prepared_pool_hits_total{strategy="saturation"}`),
		counterValue(t, out, `webreason_prepared_pool_misses_total{strategy="saturation"}`); hits+misses != 5 {
		t.Fatalf("pool hits %d + misses %d != 5 executions:\n%s", hits, misses, out)
	}
	if !strings.Contains(out, "webreason_plan_compiled_total") {
		t.Fatalf("plan lifecycle counters missing:\n%s", out)
	}
}

// expose renders the registry as an operator scrapes it.
func expose(t *testing.T, reg *webreason.MetricsRegistry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// counterValue extracts the integer sample of the exactly-named series from
// a Prometheus exposition document.
func counterValue(t *testing.T, exposition, series string) int {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.Atoi(rest)
			if err != nil {
				t.Fatalf("series %s sample %q: %v", series, rest, err)
			}
			return n
		}
	}
	t.Fatalf("series %s not found in:\n%s", series, exposition)
	return 0
}

// TestSessionReadsAreObserved pins that a session read takes the same
// instrumented path as an anonymous one: it moves the query histogram and,
// at threshold 0, lands in the slow log; a failing one counts as an error.
func TestSessionReadsAreObserved(t *testing.T) {
	srv, reg, slow := newObsServer(t)
	exposition := func() string { return expose(t, reg) }
	const count = `webreason_query_seconds_count{strategy="saturation",prepared="false"}`
	const errs = `webreason_query_errors_total{strategy="saturation"}`
	before, seen := counterValue(t, exposition(), count), slow.Seen()

	sess := srv.Session()
	bob := webreason.T(webreason.NewIRI("ex:bob"), webreason.Type, webreason.NewIRI("ex:Student"))
	if err := sess.Insert(bob); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Query(webreason.MustParseQuery(`SELECT ?x WHERE { ?x a <ex:Person> . }`))
	if err != nil || len(res.Rows) != 2 {
		t.Fatalf("session Query: %d rows, err %v; want alice and bob", len(res.Rows), err)
	}
	if ok, err := sess.Ask(webreason.MustParseQuery(`ASK { <ex:bob> a <ex:Person> . }`)); err != nil || !ok {
		t.Fatalf("session Ask = %v, %v", ok, err)
	}
	if _, err := sess.Query(&webreason.Query{}); err == nil {
		t.Fatal("empty query should fail")
	}

	out := exposition()
	if got := counterValue(t, out, count); got != before+3 {
		t.Fatalf("query histogram count moved %d → %d across 3 session reads", before, got)
	}
	if got := counterValue(t, out, errs); got != 1 {
		t.Fatalf("query error count = %d, want 1", got)
	}
	if got := slow.Seen() - seen; got != 3 {
		t.Fatalf("slow log saw %d of 3 session reads at threshold 0", got)
	}
	traces := slow.Snapshot()
	if tr := traces[len(traces)-2]; tr.Rows != 1 || tr.Prepared || !strings.Contains(tr.Query, "ex:bob") {
		t.Fatalf("session Ask trace wrong: %+v", tr)
	}
}
