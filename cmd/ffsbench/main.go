// Command ffsbench regenerates every table and figure of the FFS-VA
// paper's evaluation section on the synthetic substrate, plus the
// ablation studies and the fleet capacity sweeps, and prints them as
// text tables.
//
// Usage:
//
//	ffsbench [-scale quick|full] [-only table1,fig3,...] [-o out.txt]
//
// The quick scale (default) preserves every experiment's shape in a few
// minutes; full mirrors the paper's run sizes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"ffsva/internal/experiments"
)

// tabler is any experiment result that renders to tables.
type tabler interface{ Tables() []*experiments.Table }

// tables is a job result that is already a list of tables.
type tables []*experiments.Table

func (t tables) Tables() []*experiments.Table { return t }

// job is one table-producing experiment, selected by id with -only.
type job struct {
	id  string
	run func(experiments.Scale) (tabler, error)
}

// jobs lists every job in output order.
var jobs = []job{
	{"headline", func(s experiments.Scale) (tabler, error) { return experiments.RunHeadline(s) }},
	{"table1", func(s experiments.Scale) (tabler, error) { return experiments.Table1(s) }},
	{"fig3", func(s experiments.Scale) (tabler, error) { return experiments.Fig3(s) }},
	{"fig4", func(s experiments.Scale) (tabler, error) { return experiments.Fig4(s) }},
	{"fig5", func(s experiments.Scale) (tabler, error) { return experiments.Fig5(s) }},
	{"fig6a", func(s experiments.Scale) (tabler, error) { return experiments.Fig6a(s) }},
	{"fig6b", func(s experiments.Scale) (tabler, error) { return experiments.Fig6b(s) }},
	{"fig7", func(s experiments.Scale) (tabler, error) { return experiments.Fig7(s) }},
	{"fig8", func(s experiments.Scale) (tabler, error) { return experiments.Fig8(s) }},
	{"table2", func(s experiments.Scale) (tabler, error) { return experiments.Table2(s) }},
	{"fig9", func(s experiments.Scale) (tabler, error) { return experiments.Fig9(s) }},
	{"fig10", func(s experiments.Scale) (tabler, error) { return experiments.Fig10(s) }},
	{"ablations", func(s experiments.Scale) (tabler, error) { return runAblations(s) }},
	{"extensions", func(s experiments.Scale) (tabler, error) { return runExtensions(s) }},
	{"cluster", func(s experiments.Scale) (tabler, error) { return runClusterBench(s) }},
	{"consolidate", func(s experiments.Scale) (tabler, error) { return runConsolidateBench(s) }},
}

// jobIDs is the comma-separated list of every job id, in output order.
func jobIDs() string {
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.id
	}
	return strings.Join(ids, ",")
}

// selectJobs returns, in output order, the jobs named by only, a
// comma-separated id list; an empty list selects every job. An id that
// names no job is an error listing the valid ids.
func selectJobs(only string) ([]job, error) {
	if only == "" {
		return jobs, nil
	}
	var ids []string
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if id == "" {
			continue
		}
		if !slices.ContainsFunc(jobs, func(j job) bool { return j.id == id }) {
			return nil, fmt.Errorf("unknown job %q; valid ids: %s", id, jobIDs())
		}
		ids = append(ids, id)
	}
	var sel []job
	for _, j := range jobs {
		if slices.Contains(ids, j.id) {
			sel = append(sel, j)
		}
	}
	return sel, nil
}

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	only := flag.String("only", "", "comma-separated job ids to run (default all): "+jobIDs())
	outPath := flag.String("o", "", "write output to file instead of stdout")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.QuickScale()
	case "full":
		scale = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "ffsbench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}
	sel, err := selectJobs(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffsbench: -only: %v\n", err)
		os.Exit(2)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ffsbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	fmt.Fprintf(out, "FFS-VA evaluation reproduction (scale=%s), started %s\n\n", scale.Name, time.Now().Format(time.RFC3339))
	failed := false
	for _, j := range sel {
		start := time.Now()
		res, err := j.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ffsbench: %s: %v\n", j.id, err)
			failed = true
			continue
		}
		for _, t := range res.Tables() {
			fmt.Fprintln(out, t)
		}
		fmt.Fprintf(out, "(%s took %v)\n\n", j.id, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

func runAblations(scale experiments.Scale) (tabler, error) {
	return runSet(scale,
		experiments.AblationCascade,
		experiments.AblationPerStreamTYolo,
		experiments.AblationFeedback,
	)
}

// runExtensions runs the §5.5 remedy studies.
func runExtensions(scale experiments.Scale) (tabler, error) {
	return runSet(scale,
		experiments.ExtensionCompressed,
		experiments.ExtensionSpill,
		experiments.ExtensionAutotune,
		experiments.ExtensionMultiGPU,
	)
}

func runSet(scale experiments.Scale, fns ...func(experiments.Scale) (*experiments.AblationResult, error)) (tabler, error) {
	var set tables
	for _, f := range fns {
		r, err := f(scale)
		if err != nil {
			return nil, err
		}
		set = append(set, r.Tables()...)
	}
	return set, nil
}
