// Command rdfload loads RDF files (N-Triples or Turtle), validates them,
// prints graph statistics, and optionally writes the merged graph back out
// in a chosen syntax or converts it into a persistence-directory snapshot
// for instant server starts.
//
// With -data the merged graph is bulk-loaded into a knowledge base and
// checkpointed as a binary snapshot (dictionary + packed-key store images)
// in the given directory; -saturate additionally computes and persists the
// saturated closure G∞, so a later `rdfserve -data` (or any persist.Open
// consumer) skips both re-parsing and re-saturation. The command then
// re-opens the directory, measures the snapshot load, and reports the
// speedup over the parse(+saturate) path it replaces.
//
// Usage:
//
//	rdfload [-o out.nt] file.ttl [file2.nt ...]
//	rdfload -data /var/lib/rdfserve -saturate dump.nt
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	webreason "repro"
	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/rdfio"
)

func main() {
	out := flag.String("o", "", "write the merged graph to this file (.nt or .ttl)")
	dataDir := flag.String("data", "", "write a persistence snapshot into this directory")
	saturate := flag.Bool("saturate", false, "with -data: also persist the saturated closure G∞")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: rdfload [-o out.nt] [-data dir [-saturate]] file.ttl [more files...]")
		os.Exit(2)
	}
	parseStart := time.Now()
	merged := rdf.NewGraph()
	for _, path := range flag.Args() {
		g, err := rdfio.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rdfload: %v\n", err)
			os.Exit(1)
		}
		n := merged.AddAll(g)
		fmt.Printf("%s: %d triples (%d new)\n", path, g.Len(), n)
	}
	parseTime := time.Since(parseStart)

	schema := merged.SchemaTriples()
	preds := map[rdf.Term]int{}
	classes := map[rdf.Term]struct{}{}
	merged.ForEach(func(t rdf.Triple) bool {
		preds[t.P]++
		if t.P == rdf.Type {
			classes[t.O] = struct{}{}
		}
		return true
	})
	fmt.Printf("total: %d triples (%d schema, %d instance)\n",
		merged.Len(), len(schema), merged.Len()-len(schema))
	fmt.Printf("distinct predicates: %d, classes used in rdf:type: %d\n", len(preds), len(classes))

	if *out != "" {
		if err := rdfio.Save(*out, merged, nil); err != nil {
			fmt.Fprintf(os.Stderr, "rdfload: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *dataDir == "" {
		return
	}

	// Convert: bulk-load into a KB, optionally saturate, checkpoint.
	buildStart := time.Now()
	kb := core.NewKB()
	if _, err := kb.LoadGraph(merged); err != nil {
		fmt.Fprintf(os.Stderr, "rdfload: %v\n", err)
		os.Exit(1)
	}
	var strat webreason.Strategy
	if *saturate {
		strat = core.NewSaturation(kb)
	} else {
		strat = core.NewBackward(kb)
	}
	buildTime := time.Since(buildStart)

	db := openDataDir(*dataDir)
	snapStart := time.Now()
	if err := db.Checkpoint(strat.DurableState()); err != nil {
		fmt.Fprintf(os.Stderr, "rdfload: checkpoint: %v\n", err)
		os.Exit(1)
	}
	snapTime := time.Since(snapStart)
	if err := db.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "rdfload: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("snapshot: %s gen %d — %d stored triples (saturated: %v), written in %s\n",
		*dataDir, db.Generation(), strat.Len(), *saturate, snapTime.Round(time.Millisecond))

	// Measure what the snapshot saves: reload it and compare with the
	// parse(+build) path it replaces.
	loadStart := time.Now()
	db2 := openDataDir(*dataDir)
	st := db2.State()
	if st == nil {
		fmt.Fprintln(os.Stderr, "rdfload: reopened directory has no snapshot")
		os.Exit(1)
	}
	restoreAs := "backward"
	if *saturate {
		restoreAs = "saturation"
	}
	if _, _, err := webreason.RestoreStrategy(restoreAs, st); err != nil {
		fmt.Fprintf(os.Stderr, "rdfload: restore: %v\n", err)
		os.Exit(1)
	}
	loadTime := time.Since(loadStart)
	db2.Close()
	build := parseTime + buildTime
	fmt.Printf("restart cost: snapshot load %s vs parse+build %s — %.1fx faster\n",
		loadTime.Round(time.Microsecond), build.Round(time.Millisecond),
		float64(build)/float64(loadTime))
}

// openDataDir opens the persistence directory, exiting with a friendly
// message — not a raw flock errno — when another process holds its LOCK.
func openDataDir(dir string) *webreason.DB {
	db, err := webreason.OpenDB(dir, webreason.DBOptions{})
	if err == nil {
		return db
	}
	if errors.Is(err, webreason.ErrDBLocked) {
		fmt.Fprintf(os.Stderr, "rdfload: data directory %s is locked: another rdfload or rdfserve is running against it; stop that process or pass a different -data directory\n", dir)
	} else {
		fmt.Fprintf(os.Stderr, "rdfload: opening %s: %v\n", dir, err)
	}
	os.Exit(1)
	return nil
}
