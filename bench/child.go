package main

import (
	"fmt"
	"runtime"
	"time"

	"ffsva/internal/pipeline"
)

// childOpts is one measurement process's brief.
type childOpts struct {
	Workload string
	Seed     int64
	// Budget is how long the timed passes of an untraced child last: it
	// repeats whole passes until their wall time adds up to at least this.
	Budget time.Duration
	Traced bool
	// CalibRef is the session's fastest calibration so far in ms (0: none
	// yet); the noise guard compares this child's own reading against it.
	CalibRef float64
	Width    int
	Sizes    sizes
	TraceOut string
}

// childResult is the one JSON line a child hands its parent.
type childResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Width    int     `json:"width"`
	Traced   bool    `json:"traced"`
	CalibMS  float64 `json:"calib_ms"`
	Retries  int     `json:"calib_retries"`

	// Attempted/OK/Failed are frames over the timed passes.
	Attempted int64  `json:"attempted"`
	OK        int64  `json:"ok"`
	Failed    int64  `json:"failed"`
	Digest    string `json:"model_digest"`
	Breach    string `json:"breach,omitempty"`

	TailPct float64 `json:"tail_pct"`
	TailN   int     `json:"tail_samples"`

	// E2E holds the end-to-end metrics with one reading per child: set-up,
	// peak RSS (untraced children only) and the model_* values. Passes
	// holds what each timed pass spent, segment by segment; the parent
	// derives the per-frame host costs from it. Layers are the per-layer
	// metrics (counters always, benches and spans when traced).
	E2E    map[string]float64 `json:"e2e"`
	Passes [][]segment        `json:"passes"`
	Layers map[string]float64 `json:"layers"`
}

// calibGuard is the noise guard: a calibration more than 10% slower
// than the session's fastest is taken again, once. It looks only at the
// calibration, never at a result.
func calibGuard(ref float64) (calibMS float64, retries int) {
	calibMS = ms(calibrate())
	if ref > 0 && calibMS > 1.10*ref {
		retries = 1
		calibMS = ms(calibrate())
	}
	return calibMS, retries
}

// safeRun executes one pass; a panic inside the program (the pipeline
// panics when frame conservation breaks) becomes a breach of the gate.
func safeRun(p *prepared) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = newOutcome(p.attempted)
			o.breach("run panicked: %v", r)
		}
	}()
	return p.run()
}

// breach records the first failure of the correctness gate; finish then
// counts every frame of the child as failed.
func (r *childResult) breach(format string, args ...any) {
	if r.Breach == "" {
		r.Breach = fmt.Sprintf(format, args...)
	}
}

// tally folds one pass's ledger into the child's result and holds the
// pass to the first one's digest, whose model results the child reports.
func (r *childResult) tally(o outcome) {
	r.Attempted += o.Attempted
	r.OK += o.OK
	switch {
	case o.Breach != "":
		r.breach("%s", o.Breach)
	case r.Digest == "":
		r.Digest, r.TailPct, r.TailN = o.Digest, o.TailPct, o.TailN
		for k, v := range o.Model {
			r.E2E[k] = v
		}
		for k, v := range o.Counters {
			r.Layers[k] = v
		}
	case o.Digest != r.Digest:
		r.breach("model_digest %s differs from the first pass's %s", o.Digest, r.Digest)
	}
}

// finish closes the ledger: any breach fails every frame attempted.
func (r *childResult) finish() {
	if r.Breach != "" {
		r.OK = 0
	}
	r.Failed = r.Attempted - r.OK
	r.E2E["failed_share"] = float64(r.Failed) / float64(r.Attempted)
}

func runChild(opt childOpts) (childResult, error) {
	wl, ok := workloadByName(opt.Workload)
	if !ok {
		return childResult{}, fmt.Errorf("unknown workload %q", opt.Workload)
	}
	res := childResult{Workload: opt.Workload, Seed: opt.Seed, Width: opt.Width, Traced: opt.Traced,
		E2E: map[string]float64{}, Layers: map[string]float64{}}

	// Set-up, cold: camera training, minting every stream, New.
	t := wallNow()
	p, err := wl.prepare(opt.Seed, opt.Sizes, nil)
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", opt.Workload, err)
	}
	res.E2E["setup_s"] = wallSince(t).Seconds()
	warmup(p.cam, opt.Sizes)
	res.CalibMS, res.Retries = calibGuard(opt.CalibRef)

	var spent cost
	for {
		if len(res.Passes) > 0 {
			if p, err = wl.prepare(opt.Seed, opt.Sizes, nil); err != nil {
				return res, fmt.Errorf("%s: re-mint: %w", opt.Workload, err)
			}
		}
		runtime.GC() // start every pass from a collected heap, so passes cost alike
		o := safeRun(p)
		c, _ := total(o.Segments)
		spent.add(c)
		res.Passes = append(res.Passes, o.Segments)
		res.tally(o)
		if opt.Traced || spent.Wall >= opt.Budget {
			break
		}
	}
	res.Layers["par.resize_speedup"] = resizeSpeedup(newLayerInputs(p.cam, p.clips[0], layerFrames), opt.Width)
	if opt.Traced {
		// The traced run: the same workload with the benchmark's spans on.
		// Its host numbers feed per-layer metrics only.
		res.Layers["lab.train_s"] = p.trainS
		res.Layers["pipeline.new_us_per_stream"] = p.newUS
		res.Layers["bench.calib_ms"] = res.CalibMS
		if err := tracedRun(&res, wl, opt); err != nil {
			return res, err
		}
	} else {
		res.E2E["host_peak_rss_mb"] = peakRSSMB()
	}
	res.finish()
	res.Layers["model.failed_share"] = res.E2E["failed_share"]
	return res, nil
}

// tracedRun executes the workload once with decorators on, replays the
// offline cascades layer by layer, runs the layer benches and derives
// the frame-time accounting.
func tracedRun(res *childResult, wl workload, opt childOpts) error {
	tr := newTracing()
	p, err := wl.prepare(opt.Seed, opt.Sizes, tr)
	if err != nil {
		return fmt.Errorf("%s: traced set-up: %w", opt.Workload, err)
	}
	runtime.GC()
	root := tr.begin(spanRun)
	o := safeRun(p)
	tr.end(root)
	res.tally(o) // the traced run must reproduce the untraced digest
	// The product tracer rides only on the traced run, so the wait
	// shares come from there; the counts must equal the untraced ones.
	for k, v := range o.Counters {
		res.Layers[k] = v
	}
	res.Layers["model.streams_sustained"] = o.Model["model_streams_sustained"]
	res.Layers["model.scene_loss_pct"] = o.Model["scene_loss_pct"]
	res.Layers["model.frame_error_pct"] = o.Model["frame_error_pct"]

	for k, v := range layerBench(p.cam, p.clips[0], opt.Sizes) {
		res.Layers[k] = v
	}

	// Frame-time accounting. Source, T-YOLO, reference and minting are
	// spans of the run itself. SDD and SNM are concrete types the
	// pipeline calls directly, so their time comes from the replay on the
	// offline workloads and from bench time × visits elsewhere.
	layer := map[string]time.Duration{}
	tot := tr.totals(root)
	layer["source"], layer["tyolo"], layer["ref"], layer["mint"] = tot[spanSource], tot[spanTYolo], tot[spanRef], tot[spanMint]
	if p.replayFrames > 0 {
		rp := tr.replay(p.cam, p.clips, p.replayFrames, 10)
		if msg := compareReplay(rp, o); msg != "" {
			res.breach("%s", msg)
		}
		rt := tr.totals(rp.Root)
		layer["sdd"], layer["snm"] = rt[spanSDD], rt[spanSNM]
	} else {
		layer["sdd"] = time.Duration(res.Layers["filters.sdd_ns"] * res.Layers["pipeline.stage_in.sdd"])
		layer["snm"] = time.Duration(res.Layers["filters.snm_ns_per_frame"] * res.Layers["pipeline.stage_in.snm"])
	}
	spans := tr.snapshot()
	runWall := spans[root].dur()
	layer["glue"] = selfTimes(spans)[root] - layer["sdd"] - layer["snm"]
	res.Layers["pipeline.glue_ns_per_frame"] = float64(layer["glue"]) / float64(o.Attempted)
	for _, l := range frameLayers {
		res.Layers["bench.frame_share."+l] = float64(layer[l]) / float64(runWall)
	}
	// Traced against untraced, both this child's: its first pass ran bare.
	if untraced := fastestFPS(res.Passes); untraced > 0 {
		res.Layers["bench.trace_overhead_pct"] = 100 * (untraced - fastestFPS([][]segment{o.Segments})) / untraced
	}

	if opt.TraceOut != "" {
		if err := writeChrome(opt.TraceOut, spans); err != nil {
			return fmt.Errorf("write %s: %w", opt.TraceOut, err)
		}
	}
	return nil
}

// compareReplay holds the layer replay to the pipeline's own ledger:
// equal stage counts and an equal disposition for every frame.
func compareReplay(rp replayResult, o outcome) string {
	if rp.Stages != o.Stages {
		return fmt.Sprintf("layer replay stage counts %v differ from the pipeline's %v", rp.Stages, o.Stages)
	}
	for s, want := range o.Dispositions {
		for i, d := range want {
			if got := rp.Dispositions[s][i]; got != d {
				return fmt.Sprintf("stream %d frame %d: replay says %v, pipeline says %v", s, i, pipeline.Disposition(got), d)
			}
		}
	}
	return ""
}
