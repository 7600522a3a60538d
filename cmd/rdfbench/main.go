// Command rdfbench regenerates the paper's figures and the supplementary
// experiments of DESIGN.md (E1–E8) on the LUBM-style workload.
//
// Usage:
//
//	rdfbench -experiment all                 # everything, default scale
//	rdfbench -experiment fig3 -depts 15      # Figure 3 at chosen scale
//	rdfbench -experiment sat                 # saturation scaling (E4)
//
// Experiments: fig1, fig2, fig3, sat, strategies, blowup, maint, advisor, all.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/lubm"
)

func main() {
	experiment := flag.String("experiment", "all", "fig1|fig2|fig3|sat|strategies|blowup|maint|advisor|parallel|all")
	universities := flag.Int("universities", 1, "LUBM scale factor (number of universities)")
	depts := flag.Int("depts", 15, "departments per university")
	seed := flag.Int64("seed", 1, "generator seed")
	csvPath := flag.String("csv", "", "also write the Figure 3 series as CSV to this file")
	flag.Parse()

	cfg := lubm.DefaultConfig()
	cfg.Universities = *universities
	cfg.DeptsPerUniv = *depts
	cfg.Seed = *seed

	run := func(name string) bool { return *experiment == name || *experiment == "all" }
	out := os.Stdout
	any := false

	if run("fig1") {
		any = true
		bench.RenderFigure1(out)
		fmt.Fprintln(out)
	}
	if run("fig2") {
		any = true
		bench.RenderFigure2(out)
		fmt.Fprintln(out)
	}
	if run("fig3") {
		any = true
		fmt.Fprintf(out, "running Figure 3 on %d universit%s × %d departments (seed %d)…\n",
			cfg.Universities, plural(cfg.Universities, "y", "ies"), cfg.DeptsPerUniv, cfg.Seed)
		res, err := bench.RunFig3(cfg)
		exitOn(err)
		res.Render(out)
		fmt.Fprintln(out)
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			exitOn(err)
			exitOn(res.WriteCSV(f))
			exitOn(f.Close())
			fmt.Fprintf(out, "wrote %s\n\n", *csvPath)
		}
	}
	if run("sat") {
		any = true
		rows, err := bench.RunSaturationScaling([]int{2, 4, 8, cfg.DeptsPerUniv})
		exitOn(err)
		bench.RenderSaturationScaling(out, rows)
		fmt.Fprintln(out)
	}
	if run("strategies") {
		any = true
		rows, err := bench.RunStrategies(cfg)
		exitOn(err)
		bench.RenderStrategies(out, rows)
		fmt.Fprintln(out)
	}
	if run("blowup") {
		any = true
		rows, err := bench.RunBlowup(cfg)
		exitOn(err)
		bench.RenderBlowup(out, rows)
		fmt.Fprintln(out)
	}
	if run("maint") {
		any = true
		rows, err := bench.RunMaintenance(cfg)
		exitOn(err)
		bench.RenderMaintenance(out, rows)
		fmt.Fprintln(out)
	}
	if run("advisor") {
		any = true
		rows, err := bench.RunAdvisor(cfg)
		exitOn(err)
		bench.RenderAdvisor(out, rows)
		fmt.Fprintln(out)
	}
	if run("parallel") {
		any = true
		rows, err := bench.RunParallelSaturation(cfg, []int{1, 2, 4})
		exitOn(err)
		bench.RenderParallelSaturation(out, rows)
		fmt.Fprintln(out)
	}
	if !any {
		fmt.Fprintf(os.Stderr, "rdfbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "rdfbench: %v\n", err)
		os.Exit(1)
	}
}
