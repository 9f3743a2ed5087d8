// Command ffslint runs the repo's custom static-analysis suite: the
// analyzers that machine-check the invariants the tests do not pin
// (determinism, pooled-buffer release, map-order determinism, goroutine
// joinability). It is
// stdlib-only — go/parser + go/types with a source importer — so
// `make lint` needs no module downloads.
//
// Usage:
//
//	ffslint [-run detnow,poolrelease,...] [-tests] [-list]
//	        [-interproc=true] [-debug] [-summary] [-budget 30s] [packages]
//
// Interprocedural mode (the default) builds a whole-module view and runs
// poolrelease against per-function ownership summaries;
// -interproc=false restores the original intra-function behaviour.
// -debug prints where the interprocedural analysis fell back to the
// conservative assumption (unresolved callees, recursion, depth bound).
// -summary prints the computed ownership summaries for the linted
// packages. -budget enforces a wall-time ceiling on the whole run.
//
// Exit status is 1 when any unsuppressed diagnostic is reported (or the
// budget is exceeded). Suppress a finding with a reasoned annotation on
// (or directly above) the flagged line:
//
//	//lint:allow <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ffsva/internal/analysis"
)

func main() {
	var (
		runList   = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		tests     = flag.Bool("tests", false, "also lint in-package _test.go files")
		listOnly  = flag.Bool("list", false, "list analyzers and exit")
		interproc = flag.Bool("interproc", true, "use interprocedural ownership summaries (disable for the old intra-function mode)")
		debug     = flag.Bool("debug", false, "print conservative-fallback notes from the interprocedural analysis")
		summary   = flag.Bool("summary", false, "print the ownership summaries computed for the linted packages")
		budget    = flag.Duration("budget", 0, "fail if the whole run exceeds this wall time (0 = no limit)")
	)
	flag.Parse()

	// Wall-clock self-timing for the -budget gate. The lint run itself is
	// outside the simulation, so the detnow determinism rule does not
	// apply to measuring it.
	//lint:allow detnow measuring the lint run's own wall time for -budget
	start := time.Now()

	if *listOnly {
		for _, a := range analysis.All() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *runList != "" {
		analyzers = nil
		for _, name := range strings.Split(*runList, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "ffslint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	loader.IncludeTests = *tests
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}

	var prog *analysis.Program
	if *interproc {
		// Index everything the loader pulled in, not just the linted
		// packages: summaries routinely cross package boundaries.
		prog = analysis.BuildProgram(loader.All())
	}

	rel := func(name string) string {
		if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return name
	}

	bad := 0
	for _, pkg := range pkgs {
		for _, d := range analysis.RunAnalyzersProgram(prog, pkg, analyzers) {
			d.Pos.Filename = rel(d.Pos.Filename)
			fmt.Println(d)
			bad++
		}
	}

	if *summary && prog != nil {
		for _, pkg := range pkgs {
			sums := prog.Summaries(pkg)
			if len(sums) == 0 {
				continue
			}
			fmt.Printf("# summaries: %s\n", pkg.Path)
			for _, s := range sums {
				fmt.Printf("  %s: %s\n", s.Fn.Name(), s)
			}
		}
	}
	if *debug && prog != nil {
		for _, n := range prog.Notes() {
			n.Pos.Filename = rel(n.Pos.Filename)
			fmt.Println("debug:", n)
		}
	}

	//lint:allow detnow measuring the lint run's own wall time for -budget
	elapsed := time.Since(start)
	if *budget > 0 {
		fmt.Printf("ffslint: wall time %s (budget %s)\n", elapsed.Round(time.Millisecond), *budget)
		if elapsed > *budget {
			fmt.Fprintf(os.Stderr, "ffslint: run exceeded wall-time budget (%s > %s)\n", elapsed.Round(time.Millisecond), *budget)
			os.Exit(1)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "ffslint: %d invariant violation(s)\n", bad)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ffslint:", err)
	os.Exit(2)
}
