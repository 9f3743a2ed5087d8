package main

import (
	"fmt"
	"time"

	"ffsva/internal/cluster"
	"ffsva/internal/core"
	"ffsva/internal/detect"
	"ffsva/internal/experiments"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

// fleetInstances is the fixed fleet both fleet jobs load.
const fleetInstances = 2

// clusterLadder is the concurrent-stream counts tried in ascending
// order; the sweep stops at the first level the cluster cannot sustain.
var clusterLadder = []int{64, 128, 256, 320, 384, 448, 512, 640, 768, 1024}

// consolidateLadder refines the cluster ladder's 448→512 jump: the
// full-frame knee is 448, so the consolidated sweep probes the gap the
// coarse ladder skipped.
var consolidateLadder = []int{448, 464, 480, 496, 512}

// refBoundStreams is the stream grid for the reference-bound tier and
// the accuracy frontier.
var refBoundStreams = []int{8, 32, 64}

// refBoundTOR makes the reference tier the binding device: at this
// target-object ratio a large share of frames survives the cascade, so
// GPU-1 saturates long before ingest or the filter GPU do.
const refBoundTOR = 0.4

// fleetLevel is one ladder run of the fixed fleet. A level is sustained
// when the cluster kept real-time pacing with zero rejections, zero
// shed or errored frames, and every stream complete.
type fleetLevel struct {
	streams    int
	sustained  bool
	reforwards int
	sheds      int64
	refFrames  int64
	canvases   int64
}

// runFleetLevel runs n concurrent tiny streams, all arriving at t=0,
// against the fixed fleet on the virtual clock with charged costs.
func runFleetLevel(cam *lab.Camera, consolidate bool, n, frames int) fleetLevel {
	cfg := cluster.DefaultConfig(vclock.NewVirtual(), fleetInstances)
	cfg.Pipeline.Consolidate = consolidate
	cfg.Horizon = time.Duration(frames)*time.Second/30 + 13*time.Second
	arr := make([]cluster.Arrival, n)
	for i := 0; i < n; i++ {
		i := i
		arr[i] = cluster.Arrival{
			ID:     i,
			Frames: frames,
			Make: func(tg *detect.TinyGrid) pipeline.StreamSpec {
				return cam.Stream(i, tg, lab.StreamOptions{Seed: int64(100 + i), Frames: frames})
			},
		}
	}
	rep := cluster.New(cfg, arr).Run()

	lvl := fleetLevel{
		streams:    n,
		reforwards: rep.Reforwards(),
		sheds:      rep.Drops[pipeline.DropShed],
	}
	for _, ir := range rep.Instances {
		lvl.refFrames += ir.StageProcessed[4]
		lvl.canvases += ir.RefCanvases
	}
	complete := true
	for i := 0; i < n; i++ {
		complete = complete && rep.StreamFrames[i] == int64(frames)
	}
	lvl.sustained = rep.Realtime && rep.Rejects() == 0 && lvl.sheds == 0 &&
		rep.Drops[pipeline.DropError] == 0 && complete
	return lvl
}

// sweepFleet climbs the ladder until the first level the fleet cannot
// sustain, and returns every level run plus the highest one sustained.
func sweepFleet(cam *lab.Camera, consolidate bool, ladder []int, frames int) ([]fleetLevel, int) {
	var levels []fleetLevel
	knee := 0
	for _, n := range ladder {
		lvl := runFleetLevel(cam, consolidate, n, frames)
		levels = append(levels, lvl)
		if !lvl.sustained {
			break
		}
		knee = n
	}
	return levels, knee
}

// fleetFrames is each fleet stream's length: 2 s at 30 FPS, 4 s at full
// scale.
func fleetFrames(scale experiments.Scale) int {
	if scale.Name == "full" {
		return 120
	}
	return 60
}

// runClusterBench sweeps the concurrent-stream ladder under least-load
// placement and tabulates the max sustained level.
func runClusterBench(scale experiments.Scale) (tabler, error) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		return nil, err
	}
	frames := fleetFrames(scale)
	t := &experiments.Table{
		ID:      "cluster",
		Title:   "max sustained concurrent streams, fixed fleet, least-load placement",
		Columns: []string{"policy", "streams", "sustained", "reforwards", "sheds"},
	}
	levels, knee := sweepFleet(cam, false, clusterLadder, frames)
	for _, l := range levels {
		t.Rows = append(t.Rows, []string{
			"least-load", fmt.Sprintf("%d", l.streams), fmt.Sprintf("%v", l.sustained),
			fmt.Sprintf("%d", l.reforwards), fmt.Sprintf("%d", l.sheds),
		})
	}
	t.Notes = []string{
		fmt.Sprintf("%d instances, %d frames per stream, all arrivals at t=0, virtual clock with charged costs", fleetInstances, frames),
		fmt.Sprintf("max sustained: least-load=%d", knee),
	}
	return tables{t}, nil
}

// runConsolidateBench sweeps the consolidated fleet past the full-frame
// knee and measures the reference-bound tier with and without
// consolidation.
func runConsolidateBench(scale experiments.Scale) (tabler, error) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		return nil, err
	}
	frames, rbFrames := fleetFrames(scale), 90
	if scale.Name == "full" {
		rbFrames = 180
	}

	levels, knee := sweepFleet(cam, true, consolidateLadder, frames)
	fleet := &experiments.Table{
		ID:      "consolidate",
		Title:   "consolidated fleet: max sustained concurrent streams",
		Columns: []string{"streams", "sustained", "ref frames", "canvases"},
		Notes: []string{
			fmt.Sprintf("%d instances, %d frames per stream, least-load placement, consolidation on", fleetInstances, frames),
			fmt.Sprintf("max sustained %d; the cluster table's least-load knee is the full-frame baseline", knee),
		},
	}
	for _, l := range levels {
		fleet.Rows = append(fleet.Rows, []string{
			fmt.Sprintf("%d", l.streams), fmt.Sprintf("%v", l.sustained),
			fmt.Sprintf("%d", l.refFrames), fmt.Sprintf("%d", l.canvases),
		})
	}

	rb := &experiments.Table{
		ID:      "consolidate-refbound",
		Title:   "reference-bound tier: latency and GPU-1 load with and without consolidation",
		Columns: []string{"streams", "consolidated", "ref frames", "canvases", "pack", "gpu1", "p99 ms", "elapsed ms", "err rate", "exact rate", "mean|Δ|"},
		Notes: []string{
			fmt.Sprintf("online, TOR %.1f (reference tier is the bottleneck), virtual clock", refBoundTOR),
			"pack = reference frames per canvas: the factor by which one canvas inference replaces per-frame inferences",
			"exact rate / mean|Δ| score consolidated counts against the full-frame reference on the same frames (the accuracy frontier)",
		},
	}
	for _, n := range refBoundStreams {
		for _, consolidate := range []bool{false, true} {
			row, err := refBoundRow(n, rbFrames, consolidate)
			if err != nil {
				return nil, err
			}
			rb.Rows = append(rb.Rows, row)
		}
	}
	return tables{fleet, rb}, nil
}

// refBoundRow runs the high-TOR online workload once and renders its
// table row. Consolidated rows also carry the fidelity score — the
// accuracy frontier's data points.
func refBoundRow(n, frames int, consolidate bool) ([]string, error) {
	cfg := core.DefaultConfig()
	cfg.TOR = refBoundTOR
	cfg.Streams = n
	cfg.FramesPerStream = frames
	cfg.Mode = pipeline.Online
	cfg.Consolidate = consolidate
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	rep := res.Pipeline
	refFrames := rep.StageProcessed[4]
	pack, exact, delta := "-", "-", "-"
	if consolidate {
		if rep.RefCanvases > 0 {
			pack = fmt.Sprintf("%.1f", float64(refFrames)/float64(rep.RefCanvases))
		}
		var score lab.ConsolidationScore
		for _, sr := range rep.Streams {
			score.Merge(lab.ScoreConsolidation(sr.Records))
		}
		exact = fmt.Sprintf("%.3f", score.ExactRate())
		delta = fmt.Sprintf("%.3f", score.MeanAbsDelta)
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.0f", float64(d)/float64(time.Millisecond)) }
	return []string{
		fmt.Sprintf("%d", n), fmt.Sprintf("%v", consolidate),
		fmt.Sprintf("%d", refFrames), fmt.Sprintf("%d", rep.RefCanvases), pack,
		fmt.Sprintf("%.2f", rep.GPU1Util), ms(rep.LatencyP99), ms(rep.Elapsed),
		fmt.Sprintf("%.4f", res.Accuracy.ErrorRate()), exact, delta,
	}, nil
}
