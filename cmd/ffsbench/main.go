// Command ffsbench regenerates every table and figure of the FFS-VA
// paper's evaluation section on the synthetic substrate, plus the
// ablation studies and the fleet capacity sweeps, and prints them as
// text tables.
//
// Usage:
//
//	ffsbench [-scale quick|full] [-only table1,fig3,...] [-o out.txt]
//	         [-metrics 500ms] [-metrics-json]
//
// The quick scale (default) preserves every experiment's shape in a few
// minutes; full mirrors the paper's run sizes. The "metrics" job runs an
// instrumented online configuration and tabulates the pipeline's snapshot
// timeline; -metrics sets the sampling interval and -metrics-json also
// dumps every raw snapshot as a JSON line.
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
	"ffsva/internal/pipeline"
)

// tabler is any experiment result that renders to tables.
type tabler interface{ Tables() []*experiments.Table }

// tables is a job result that is already a list of tables.
type tables []*experiments.Table

func (t tables) Tables() []*experiments.Table { return t }

// jobEnv is what a job reads besides the scale: the metrics job's
// sampling settings and the output it dumps raw snapshots to.
type jobEnv struct {
	scale        experiments.Scale
	metricsEvery time.Duration
	metricsJSON  bool
	out          io.Writer
}

// job is one table-producing experiment, selected by id with -only.
type job struct {
	id  string
	run func(jobEnv) (tabler, error)
}

// jobs lists every job in output order.
var jobs = []job{
	{"headline", func(e jobEnv) (tabler, error) { return experiments.RunHeadline(e.scale) }},
	{"table1", func(e jobEnv) (tabler, error) { return experiments.Table1(e.scale) }},
	{"fig3", func(e jobEnv) (tabler, error) { return experiments.Fig3(e.scale) }},
	{"fig4", func(e jobEnv) (tabler, error) { return experiments.Fig4(e.scale) }},
	{"fig5", func(e jobEnv) (tabler, error) { return experiments.Fig5(e.scale) }},
	{"fig6a", func(e jobEnv) (tabler, error) { return experiments.Fig6a(e.scale) }},
	{"fig6b", func(e jobEnv) (tabler, error) { return experiments.Fig6b(e.scale) }},
	{"fig7", func(e jobEnv) (tabler, error) { return experiments.Fig7(e.scale) }},
	{"fig8", func(e jobEnv) (tabler, error) { return experiments.Fig8(e.scale) }},
	{"table2", func(e jobEnv) (tabler, error) { return experiments.Table2(e.scale) }},
	{"fig9", func(e jobEnv) (tabler, error) { return experiments.Fig9(e.scale) }},
	{"fig10", func(e jobEnv) (tabler, error) { return experiments.Fig10(e.scale) }},
	{"ablations", func(e jobEnv) (tabler, error) { return runAblations(e.scale) }},
	{"extensions", func(e jobEnv) (tabler, error) { return runExtensions(e.scale) }},
	{"metrics", func(e jobEnv) (tabler, error) { return runMetrics(e.scale, e.metricsEvery, e.metricsJSON, e.out) }},
	{"cluster", func(e jobEnv) (tabler, error) { return runClusterBench(e.scale) }},
	{"consolidate", func(e jobEnv) (tabler, error) { return runConsolidateBench(e.scale) }},
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
	metricsEvery := flag.Duration("metrics", 500*time.Millisecond, "snapshot interval for the metrics job")
	metricsJSON := flag.Bool("metrics-json", false, "also dump each metrics-job snapshot as a JSON line")
	flag.Parse()

	env := jobEnv{metricsEvery: *metricsEvery, metricsJSON: *metricsJSON, out: os.Stdout}
	switch *scaleFlag {
	case "quick":
		env.scale = experiments.QuickScale()
	case "full":
		env.scale = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "ffsbench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}
	sel, err := selectJobs(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffsbench: -only: %v\n", err)
		os.Exit(2)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ffsbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		env.out = f
	}

	fmt.Fprintf(env.out, "FFS-VA evaluation reproduction (scale=%s), started %s\n\n", env.scale.Name, time.Now().Format(time.RFC3339))
	failed := false
	for _, j := range sel {
		start := time.Now()
		res, err := j.run(env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ffsbench: %s: %v\n", j.id, err)
			failed = true
			continue
		}
		for _, t := range res.Tables() {
			fmt.Fprintln(env.out, t)
		}
		fmt.Fprintf(env.out, "(%s took %v)\n\n", j.id, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

// runMetrics exercises the observability layer: an instrumented online
// run sampled by the periodic monitor, tabulated as a snapshot timeline.
// With asJSON each raw pipeline.Snapshot is also written as a JSON line.
func runMetrics(scale experiments.Scale, every time.Duration, asJSON bool, out io.Writer) (tabler, error) {
	res, err := experiments.ObservabilityTrace(scale, every)
	if err != nil {
		return nil, err
	}
	if asJSON {
		for _, sn := range res.Samples {
			fmt.Fprintln(out, sn.JSON())
		}
	}
	if len(res.Samples) > 0 {
		var peak pipeline.Snapshot
		for _, sn := range res.Samples {
			if sn.TYoloRate > peak.TYoloRate {
				peak = sn
			}
		}
		fmt.Fprintf(out, "metrics: peak shared T-YOLO rate %.1f fps at t=%v (spare threshold 140 fps)\n\n",
			peak.TYoloRate, peak.At.Round(time.Millisecond))
	}
	return res, nil
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
