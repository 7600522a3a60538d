package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	webreason "repro"
)

// graph is a small RDFS graph whose closure adds five triples: alice and
// carol become Persons (carol through the range of advises), bob a Prof.
const graph = `@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:Student rdfs:subClassOf ex:Person .
ex:advises rdfs:domain ex:Prof .
ex:advises rdfs:range ex:Student .
ex:alice a ex:Student .
ex:bob ex:advises ex:carol .
`

const personQuery = `PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Person }`

func writeGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.ttl")
	if err := os.WriteFile(path, []byte(graph), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// webreasonCmd runs the command in-process and returns its report.
func webreasonCmd(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("webreason %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

func TestLoadSaturate(t *testing.T) {
	g := writeGraph(t)
	out := filepath.Join(t.TempDir(), "sat.nt")
	report := webreasonCmd(t, "load", "-saturate", "-o", out, g)
	if !strings.Contains(report, "|G∞| = 10 triples (+5 derived") {
		t.Errorf("load -saturate report lacks |G∞| = 10 (+5 derived):\n%s", report)
	}
	written, err := webreason.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if written.Len() != 10 {
		t.Errorf("-o wrote %d triples, want G∞'s 10", written.Len())
	}
}

func TestQueryStrategiesAgree(t *testing.T) {
	g := writeGraph(t)
	answers := regexp.MustCompile(`— (\d+) answer\(s\)`)
	for _, s := range []string{"saturation", "reformulation", "backward"} {
		report := webreasonCmd(t, "query", "-strategy", s, "-query", personQuery, g)
		if m := answers.FindStringSubmatch(report); m == nil || m[1] != "2" {
			t.Errorf("%s: want 2 answers:\n%s", s, report)
		}
	}
	report := webreasonCmd(t, "query", "-plain", "-query", personQuery, g)
	if !strings.Contains(report, "no reasoning): 0 answer(s)") {
		t.Errorf("-plain should find no ex:Person without reasoning:\n%s", report)
	}
}

func TestServeRecoversLoadedSnapshotAndFollows(t *testing.T) {
	g := writeGraph(t)
	dir := filepath.Join(t.TempDir(), "primary")
	webreasonCmd(t, "load", "-data", dir, "-saturate", g)
	report := webreasonCmd(t, "serve", "-data", dir, "-duration", "200ms", "-readers", "1", "-writers", "1")
	if !regexp.MustCompile(`recovered .* \(saturated: true\)`).MatchString(report) {
		t.Errorf("serve did not recover the saturated snapshot:\n%s", report)
	}
	if !strings.Contains(report, "durable=true") {
		t.Errorf("serve -data should report a durable run:\n%s", report)
	}

	mirror := filepath.Join(t.TempDir(), "mirror")
	report = webreasonCmd(t, "serve", "-data", mirror, "-follow", dir, "-promote", "-duration", "200ms")
	if !strings.Contains(report, "is fenced") {
		t.Errorf("follower did not report its promotion:\n%s", report)
	}
	if err := run([]string{"serve", "-data", dir, "-duration", "50ms"}, &bytes.Buffer{}); !errors.Is(err, webreason.ErrDBFenced) {
		t.Errorf("serve on the fenced old primary = %v, want ErrDBFenced", err)
	}
}

func TestServeLockedDirectory(t *testing.T) {
	dir := t.TempDir()
	db, err := webreason.OpenDB(dir, webreason.DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	err = run([]string{"serve", "-data", dir, "-duration", "50ms"}, &bytes.Buffer{})
	if !errors.Is(err, webreason.ErrDBLocked) || !strings.Contains(err.Error(), dir) {
		t.Errorf("serve on a held directory = %v, want the locked-directory error", err)
	}
}

// TestDriveEndsOnWorkerError pins that a failing worker ends the run early
// with its error instead of exiting the process.
func TestDriveEndsOnWorkerError(t *testing.T) {
	kb := webreason.NewKB()
	g, err := webreason.ParseTurtle(strings.NewReader(graph))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kb.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	strat, err := webreason.NewStrategy("saturation", kb)
	if err != nil {
		t.Fatal(err)
	}
	srv := webreason.NewServer(strat, webreason.ServerOptions{})
	defer srv.Close()
	boom := errors.New("boom")
	const duration = 30 * time.Second
	_, elapsed, err := drive(srv, webreason.MustParseQuery(personQuery), duration, 1, 1,
		func(context.Context, int) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("drive = %v, want the writer's error", err)
	}
	if elapsed >= duration {
		t.Errorf("drive ran its whole %s instead of stopping when the writer failed", elapsed)
	}
}

// TestServeRecoveryErrorReleasesDirectory pins that an error while
// recovering a directory comes back as that error, not a panic, and leaves
// the directory unlocked.
func TestServeRecoveryErrorReleasesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "primary")
	webreasonCmd(t, "load", "-data", dir, "-saturate", writeGraph(t))
	err := run([]string{"serve", "-data", dir, "-strategy", "bogus", "-duration", "50ms"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), `unknown strategy "bogus"`) {
		t.Errorf("serve -strategy bogus = %v, want the unknown-strategy error", err)
	}
	db, err := webreason.OpenDB(dir, webreason.DBOptions{})
	if err != nil {
		t.Fatalf("reopening after the failed serve: %v", err)
	}
	db.Close()
}
