package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// session is one invocation of the parent: which workloads, how many
// rounds, how long.
type session struct {
	Workload string // "" = all four
	Seed     int64
	Seconds  float64
	Rounds   int
	Trace    int // -1 both, 0 untraced only, 1 traced only
	// Width is the GOMAXPROCS and par pool width every measuring child
	// runs at; WideWidth, min(nproc, 4), is the width the two par.*
	// speed-ups compare with width 1.
	Width, WideWidth int
	Sizes            sizes

	TraceOut, CPUProfile, MemProfile string

	// spawn runs one child and returns its result; tests replace it with
	// an in-process call.
	spawn func(opt childOpts, extra ...string) (childResult, error)

	calibBest float64
}

// metricResult is one metric of one workload, reduced over its samples:
// one per timed pass for the per-frame host costs, one per child for the
// rest.
type metricResult struct {
	Unit string `json:"unit"`
	// Kind is "host" (wall/CPU/heap; compared within its bound) or "model"
	// (virtual clock, accuracy or counts; must repeat exactly).
	Kind string `json:"kind"`
	// Reported is the one figure the session stands behind and the result
	// line carries: the median, except for the three times (setup_s,
	// host_fps, host_cpu_us_per_frame), where it is the least-disturbed
	// reading — the fastest set-up, the fastest composed pass (see
	// fastest).
	Reported float64 `json:"reported"`
	summary
}

// layerValue is one per-layer metric: the traced child's single value.
type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

type workloadResult struct {
	Why       string                  `json:"why"`
	Metrics   map[string]metricResult `json:"metrics"`
	Layers    map[string]layerValue   `json:"layers,omitempty"`
	Digest    string                  `json:"model_digest"`
	Attempted int64                   `json:"attempted"`
	OK        int64                   `json:"ok"`
	Failed    int64                   `json:"failed"`
	Breach    string                  `json:"breach,omitempty"`
	// TailPct is the percentile model_p99_latency_ms was really taken at
	// (99 whenever the run has the ≥10 samples beyond it), over TailN
	// latency samples.
	TailPct float64 `json:"tail_pct"`
	TailN   int     `json:"tail_samples"`
	Calib   summary `json:"calib_ms"`
	Retries int     `json:"calib_retries"`
}

// document is what -out writes and -compare reads.
type document struct {
	Host struct {
		NProc     int     `json:"nproc"`
		Width     int     `json:"width"`
		GoVersion string  `json:"go_version"`
		Seed      int64   `json:"seed"`
		Rounds    int     `json:"rounds"`
		Seconds   float64 `json:"seconds"`
		WallS     float64 `json:"total_wall_s"`
	} `json:"host"`
	Sizes     sizes                      `json:"sizes"`
	Workloads map[string]*workloadResult `json:"workloads"`
	order     []string
}

func (s *session) selected() []workload {
	if s.Workload == "" {
		return workloads()
	}
	w, _ := workloadByName(s.Workload)
	return []workload{w}
}

func (s *session) run() (*document, error) {
	start := wallNow()
	if s.spawn == nil {
		s.spawn = s.spawnProcess
	}
	doc := &document{Sizes: s.Sizes, Workloads: map[string]*workloadResult{}}
	doc.Host.NProc, doc.Host.Width, doc.Host.GoVersion = runtime.NumCPU(), s.Width, runtime.Version()
	doc.Host.Seed, doc.Host.Rounds, doc.Host.Seconds = s.Seed, s.Rounds, s.Seconds

	wls := s.selected()
	for _, wl := range wls {
		doc.order = append(doc.order, wl.Name)
		doc.Workloads[wl.Name] = &workloadResult{Why: wl.Why, Metrics: map[string]metricResult{}}
	}
	// samples: workload → end-to-end metric → one value per timed pass for
	// the per-frame host costs, per child for the rest; passes: what every
	// timed pass of the workload spent, for fastest.
	samples := map[string]map[string][]float64{}
	passes := map[string][][]segment{}
	calib := map[string][]float64{}
	budget := time.Duration(s.Seconds / float64(s.Rounds) * float64(time.Second))
	// measure runs one child and books its ledger and calibration.
	measure := func(opt childOpts, extra ...string) (childResult, error) {
		opt.Seed, opt.CalibRef = s.Seed, s.calibBest
		res, err := s.spawn(opt, extra...)
		if err != nil {
			return res, err
		}
		if s.calibBest == 0 || res.CalibMS < s.calibBest {
			s.calibBest = res.CalibMS
		}
		doc.Workloads[opt.Workload].absorb(res)
		calib[opt.Workload] = append(calib[opt.Workload], res.CalibMS)
		return res, nil
	}
	keep := func(res childResult, only func(metricDef) bool) {
		if samples[res.Workload] == nil {
			samples[res.Workload] = map[string][]float64{}
		}
		add := func(name string, v float64) {
			if d, ok := endToEndDef(name); ok && only(d) {
				samples[res.Workload][name] = append(samples[res.Workload][name], v)
			}
		}
		for name, v := range res.E2E {
			add(name, v)
		}
		if res.Traced {
			return // its passes feed per-layer metrics only
		}
		for _, pass := range res.Passes {
			for name, v := range perFrame(total(pass)) {
				add(name, v)
			}
		}
		passes[res.Workload] = append(passes[res.Workload], res.Passes...)
	}

	// Rounds are interleaved — round 1 of every workload, then round 2 —
	// so minute-scale drift of a shared host spreads over all of them.
	for round := 0; round < s.Rounds && s.Trace != 1; round++ {
		for _, wl := range wls {
			var extra []string
			if round == 0 && s.CPUProfile != "" {
				extra = append(extra, "-cpuprofile", s.CPUProfile)
			}
			if round == 0 && s.MemProfile != "" {
				extra = append(extra, "-memprofile", s.MemProfile)
			}
			res, err := measure(childOpts{Workload: wl.Name, Budget: budget, Width: s.Width}, extra...)
			if err != nil {
				return nil, err
			}
			keep(res, func(metricDef) bool { return true })
			if wr := doc.Workloads[wl.Name]; len(wr.Layers) == 0 {
				wr.setLayers(res.Layers) // the counters; a traced run adds the rest
			}
		}
	}
	for _, wl := range wls {
		if s.Trace == 0 {
			break
		}
		res, err := measure(childOpts{Workload: wl.Name, Traced: true, Width: s.Width, TraceOut: s.TraceOut})
		if err != nil {
			return nil, err
		}
		// The two par.* speed-ups compare min(nproc, 4) workers with one,
		// whatever width the session runs at: one extra child of
		// offline_lowtor runs at whichever of the two widths this session
		// does not, and the wide child of the pair supplies the figures.
		var e2e, resize float64 // defined on offline_lowtor only
		if wl.Name == wlLowTOR {
			other := childOpts{Workload: wl.Name, Budget: budget / 2, Width: 1}
			if s.Width == 1 {
				other.Width = s.WideWidth
			}
			extra, err := measure(other)
			if err != nil {
				return nil, err
			}
			wide, narrow := res, extra
			if s.Width == 1 {
				wide, narrow = extra, res
			}
			if fps := fastestFPS(narrow.Passes); fps > 0 {
				e2e = fastestFPS(wide.Passes) / fps
			}
			resize = wide.Layers["par.resize_speedup"]
		}
		res.Layers["par.e2e_speedup_lowtor"], res.Layers["par.resize_speedup"] = e2e, resize
		doc.Workloads[wl.Name].setLayers(res.Layers)
		if s.Trace == 1 { // no untraced rounds: the model results come from here
			keep(res, func(d metricDef) bool { return d.Exact })
		}
	}

	for _, wl := range wls {
		wr := doc.Workloads[wl.Name]
		wr.Calib = summarize(calib[wl.Name])
		for _, d := range endToEnd {
			vals, ok := samples[wl.Name][d.Name]
			if !ok || !d.definedOn(wl.Name) {
				continue
			}
			kind := "host"
			if d.Exact {
				kind = "model"
				if slices.Max(vals) != slices.Min(vals) {
					wr.fail(fmt.Sprintf("%s did not repeat across rounds: %v", d.Name, vals))
				}
			}
			m := metricResult{Unit: d.Unit, Kind: kind, summary: summarize(vals)}
			m.Reported = m.Median
			switch d.Name {
			case "setup_s":
				m.Reported = slices.Min(vals)
			case "host_fps", "host_cpu_us_per_frame":
				m.Reported = perFrame(fastest(passes[wl.Name]))[d.Name]
			}
			wr.Metrics[d.Name] = m
		}
	}
	doc.Host.WallS = wallSince(start).Seconds()
	return doc, nil
}

func fastestFPS(passes [][]segment) float64 {
	return perFrame(fastest(passes))["host_fps"]
}

// absorb adds a child's ledger and holds its digest to the workload's.
func (wr *workloadResult) absorb(res childResult) {
	wr.Attempted += res.Attempted
	wr.OK += res.OK
	wr.Failed += res.Failed
	wr.Retries += res.Retries
	switch {
	case res.Breach != "":
		wr.fail(res.Breach)
	case wr.Digest == "":
		wr.Digest, wr.TailPct, wr.TailN = res.Digest, res.TailPct, res.TailN
	case res.Digest != wr.Digest:
		wr.fail(fmt.Sprintf("model_digest %s differs from an earlier round's %s", res.Digest, wr.Digest))
	}
	if wr.Breach != "" {
		wr.Failed, wr.OK = wr.Attempted, 0
	}
}

// fail records the first breach of the correctness gate; every frame of
// the workload then counts as failed.
func (wr *workloadResult) fail(why string) {
	if wr.Breach == "" {
		wr.Breach = why
	}
	wr.Failed, wr.OK = wr.Attempted, 0
}

func (wr *workloadResult) setLayers(layers map[string]float64) {
	wr.Layers = map[string]layerValue{}
	for _, d := range perLayer {
		// A metric the run has no value for is undefined on this
		// workload and reads 0.
		wr.Layers[d.Name] = layerValue{Unit: d.Unit, Value: layers[d.Name]}
	}
}

// spawnProcess re-executes this binary as a measurement child with
// GOMAXPROCS=width in its environment, waits for it, and parses the
// result line it prints last.
func (s *session) spawnProcess(opt childOpts, extra ...string) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	args := []string{"-child", "-workload", opt.Workload,
		"-seed", strconv.FormatInt(opt.Seed, 10),
		"-budget", opt.Budget.String(),
		"-calib-ref", strconv.FormatFloat(opt.CalibRef, 'g', -1, 64)}
	if opt.Traced {
		args = append(args, "-trace", "1")
		if opt.TraceOut != "" {
			args = append(args, "-trace-out", opt.TraceOut)
		}
	}
	args = append(args, extra...)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(opt.Width))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("child %s (seed %d, traced %v): %w", opt.Workload, opt.Seed, opt.Traced, err)
	}
	var res childResult
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("child %s: unreadable result line: %w", opt.Workload, err)
	}
	return res, nil
}

func (doc *document) correct() bool {
	for _, wr := range doc.Workloads {
		if wr.Failed != 0 || wr.Breach != "" {
			return false
		}
	}
	return true
}

func (doc *document) write(path string) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (doc *document) names() []string {
	if doc.order != nil {
		return doc.order
	}
	var names []string
	for _, wl := range workloads() {
		if _, ok := doc.Workloads[wl.Name]; ok {
			names = append(names, wl.Name)
		}
	}
	return names
}

// print renders every metric by name and unit: end-to-end ones with
// median, quartiles and n, per-layer ones as the traced run's value.
func (doc *document) print(w io.Writer) {
	fmt.Fprintf(w, "host: nproc=%d width=%d %s seed=%d rounds=%d seconds=%g total_wall=%.1fs\n",
		doc.Host.NProc, doc.Host.Width, doc.Host.GoVersion, doc.Host.Seed, doc.Host.Rounds, doc.Host.Seconds, doc.Host.WallS)
	for _, name := range doc.names() {
		wr := doc.Workloads[name]
		fmt.Fprintf(w, "\n== %s ==\n", name)
		fmt.Fprintf(w, "frames attempted=%d ok=%d failed=%d  model_digest=%s\n", wr.Attempted, wr.OK, wr.Failed, wr.Digest)
		if wr.Breach != "" {
			fmt.Fprintf(w, "CORRECTNESS GATE BREACHED: %s\n", wr.Breach)
		}
		fmt.Fprintf(w, "bench.calib_ms median=%.2f q1=%.2f q3=%.2f n=%d retries=%d\n",
			wr.Calib.Median, wr.Calib.Q1, wr.Calib.Q3, wr.Calib.N, wr.Retries)
		fmt.Fprintf(w, "%-28s %-6s %14s %14s %14s %14s %3s\n", "end-to-end metric", "unit", "reported", "median", "q1", "q3", "n")
		for _, d := range endToEnd {
			m, ok := wr.Metrics[d.Name]
			if !ok {
				continue
			}
			note := ""
			if d.Name == "model_p99_latency_ms" {
				note = fmt.Sprintf("  (p%g of %d samples)", wr.TailPct, wr.TailN)
			}
			fmt.Fprintf(w, "%-28s %-6s %14.6g %14.6g %14.6g %14.6g %3d%s\n", d.Name, m.Unit, m.Reported, m.Median, m.Q1, m.Q3, m.N, note)
		}
		if len(wr.Layers) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-36s %-6s %14s\n", "per-layer metric", "unit", "value")
		for _, d := range perLayer {
			if m, ok := wr.Layers[d.Name]; ok {
				fmt.Fprintf(w, "%-36s %-6s %14.6g\n", d.Name, m.Unit, m.Value)
			}
		}
	}
}

// contractLine is the benchmark contract's result object for one
// workload: the end_to_end metrics of BENCHMARK.json after untraced
// rounds, its per_layer metrics after a traced run.
func (doc *document) contractLine(workload string, traced bool) string {
	wr := doc.Workloads[workload]
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: wr.Failed == 0 && wr.Breach == "", Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]value{}}
	if traced {
		for name, m := range wr.Layers {
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	} else {
		for _, d := range endToEnd {
			if m, ok := wr.Metrics[d.Name]; ok && d.Contract {
				out.Metrics[d.Name] = value{m.Reported, m.Unit}
			}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}
