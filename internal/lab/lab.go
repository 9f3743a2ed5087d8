// Package lab assembles ready-to-run FFS-VA setups from synthetic camera
// presets: it trains each camera's stream-specialized models once
// (caching the result, since training is deterministic) and mints
// pipeline stream specs wired to fresh filter instances. The benchmark
// harness, CLI tools, examples and integration tests all build their
// systems through this package.
package lab

import (
	"fmt"
	"sync"

	"ffsva/internal/detect"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/pipeline"
	"ffsva/internal/train"
	"ffsva/internal/vidgen"
)

// Camera bundles one camera viewpoint's trained artifacts.
type Camera struct {
	// Template is the stream configuration the camera was trained on;
	// stream instances vary Seed (object dynamics) but share BGSeed.
	Template vidgen.Config
	SDD      train.SDDFit
	SNM      train.SNMResult
}

// cacheKey is everything a trained camera is a function of: the whole
// stream configuration (a comparable struct, so no field can be left out
// of the key) and the length of the training slice.
type cacheKey struct {
	cfg    vidgen.Config
	frames int
}

// cacheEntry is one configuration's camera; once runs its training.
type cacheEntry struct {
	once sync.Once
	cam  *Camera
	err  error
}

var (
	cacheMu sync.Mutex // guards the map only; no training runs under it
	cache   = map[cacheKey]*cacheEntry{}
)

// TrainCamera labels a training slice of the camera's video with the
// reference model and fits SDD and SNM (paper §4.1). Results are cached
// by configuration, so repeated setups of the same camera are free: the
// first caller of a configuration trains it, concurrent callers of the
// same one wait for that training, and callers of other configurations
// train alongside.
func TrainCamera(cfg vidgen.Config, trainFrames int) (*Camera, error) {
	if cfg.BGSeed == 0 {
		cfg.BGSeed = cfg.Seed
	}
	if trainFrames <= 0 {
		trainFrames = 1500
	}
	key := cacheKey{cfg, trainFrames}
	cacheMu.Lock()
	e := cache[key]
	if e == nil {
		e = &cacheEntry{}
		cache[key] = e
	}
	cacheMu.Unlock()
	e.once.Do(func() { e.cam, e.err = trainCamera(cfg, trainFrames) })
	return e.cam, e.err
}

// trainCamera is the §4.1 procedure, uncached: the training slice streams
// through the collector a frame at a time, so what is held is the corpus,
// not the clip.
func trainCamera(cfg vidgen.Config, trainFrames int) (*Camera, error) {
	sdd, snm, err := train.Fit(vidgen.New(cfg), trainFrames, detect.NewOracle(detect.DefaultOracleConfig()), cfg.Target)
	if err != nil {
		return nil, fmt.Errorf("lab: %w", err)
	}
	return &Camera{Template: cfg, SDD: sdd, SNM: snm}, nil
}

// StreamOptions tune one minted stream.
type StreamOptions struct {
	// Seed drives the stream's object dynamics; distinct streams from
	// the same camera use distinct seeds (non-overlapping clips of one
	// video, as in the paper's evaluation setup).
	Seed int64
	// Frames to process.
	Frames int
	// FilterDegree for the SNM (paper Eq. 2); 0.5 unless set via
	// HasFilterDegree.
	FilterDegree    float64
	HasFilterDegree bool
	// NumberOfObjects is the T-YOLO intensity threshold (default 1).
	NumberOfObjects int
	// Tolerance relaxes the T-YOLO threshold (paper §5.3.3).
	Tolerance int
	// TOR overrides the camera template's target-object ratio when > 0.
	TOR float64
}

// Stream mints a pipeline.StreamSpec for this camera: a fresh frame
// source plus fresh filter instances around the shared trained weights
// — every stream's SNM infers on the camera's one net, which inference
// only reads — and the shared third-stage detector (normally a
// *detect.TinyGrid; a *detect.Compressed implements the §5.5 low-error
// variant).
func (c *Camera) Stream(id int, det detect.Detector, opt StreamOptions) pipeline.StreamSpec {
	cfg := c.Template
	cfg.StreamID = id
	cfg.Seed = opt.Seed
	if cfg.Seed == 0 {
		cfg.Seed = c.Template.Seed + int64(id)*7919 + 13
	}
	if opt.TOR > 0 {
		cfg.TOR = opt.TOR
	}
	src := vidgen.New(cfg)

	fd := 0.5
	if opt.HasFilterDegree {
		fd = opt.FilterDegree
	}
	numObj := opt.NumberOfObjects
	if numObj <= 0 {
		numObj = 1
	}
	frames := opt.Frames
	if frames <= 0 {
		frames = 1000
	}

	sdd := filters.NewSDD(c.SDD.Ref, c.SDD.Delta, filters.MetricMSE)
	snm := filters.NewSNM(c.SNM.Net, c.SNM.CLow, c.SNM.CHigh, fd)
	ty := filters.NewTYolo(det, cfg.Target, numObj)
	ty.Tolerance = opt.Tolerance
	if tg, ok := det.(*detect.TinyGrid); ok && tg != nil {
		tg.SetBackground(id, src.SharedBackground())
	}
	return pipeline.StreamSpec{
		ID:     id,
		Source: src,
		Frames: frames,
		FPS:    cfg.FPS,
		SDD:    sdd,
		SNM:    snm,
		TYolo:  ty,
		Target: cfg.Target,
	}
}

// CarCamera returns the cached small car-target camera (Jackson-like
// statistics at laboratory resolution) trained and ready.
func CarCamera(tor float64) (*Camera, error) {
	cfg := vidgen.Small(101, frame.ClassCar, 0.30) // train at a TOR with ample positives
	cfg.BGSeed = 101
	cam, err := TrainCamera(cfg, 1500)
	if err != nil {
		return nil, err
	}
	// Streams minted from this camera default to the requested TOR.
	c := *cam
	c.Template.TOR = tor
	return &c, nil
}

// PersonCamera returns the cached small person-target camera (Coral-like
// statistics: crowds, high TOR).
func PersonCamera(tor float64) (*Camera, error) {
	cfg := vidgen.Small(202, frame.ClassPerson, 0.50)
	cfg.BGSeed = 202
	cam, err := TrainCamera(cfg, 1500)
	if err != nil {
		return nil, err
	}
	c := *cam
	c.Template.TOR = tor
	return &c, nil
}

// ConsolidationScore quantifies what object-level consolidation cost in
// reference-tier fidelity: for every frame the reference stage decided,
// the pipeline records both the consolidated count (over the packed
// crops, truncation-adjusted) and the full-frame count. The score
// aggregates their disagreement — crops that truncate or miss objects
// surface as undercounts.
type ConsolidationScore struct {
	// Frames is the number of reference-decided frames with both counts
	// measured.
	Frames int64
	// Exact counts frames where the consolidated tally matched the
	// full-frame reference exactly.
	Exact int64
	// Under / Over count frames where consolidation counted fewer /
	// more objects than the full-frame reference.
	Under, Over int64
	// LostObjects is the summed undercount — objects the full-frame
	// reference found that the packed crops did not cover.
	LostObjects int64
	// MeanAbsDelta is the mean absolute per-frame count difference.
	MeanAbsDelta float64
}

// ScoreConsolidation scores one stream's records; merge several streams
// with Merge. Records without a full-frame measurement (frames dropped
// before the reference tier, or runs without consolidation's dual
// tally) are skipped.
func ScoreConsolidation(records []pipeline.Record) ConsolidationScore {
	var s ConsolidationScore
	var absSum int64
	for _, rec := range records {
		if !rec.Done || rec.Disposition != pipeline.Detected || rec.RefFullCount < 0 || rec.RefCount < 0 {
			continue
		}
		s.Frames++
		delta := rec.RefCount - rec.RefFullCount
		switch {
		case delta == 0:
			s.Exact++
		case delta < 0:
			s.Under++
			s.LostObjects += int64(-delta)
			absSum += int64(-delta)
		default:
			s.Over++
			absSum += int64(delta)
		}
	}
	if s.Frames > 0 {
		s.MeanAbsDelta = float64(absSum) / float64(s.Frames)
	}
	return s
}

// Merge accumulates another stream's score into s.
func (s *ConsolidationScore) Merge(b ConsolidationScore) {
	total := s.MeanAbsDelta*float64(s.Frames) + b.MeanAbsDelta*float64(b.Frames)
	s.Frames += b.Frames
	s.Exact += b.Exact
	s.Under += b.Under
	s.Over += b.Over
	s.LostObjects += b.LostObjects
	if s.Frames > 0 {
		s.MeanAbsDelta = total / float64(s.Frames)
	}
}

// ExactRate is the fraction of scored frames where the consolidated
// count agreed with the full-frame reference.
func (s ConsolidationScore) ExactRate() float64 {
	if s.Frames == 0 {
		return 1
	}
	return float64(s.Exact) / float64(s.Frames)
}

// String renders the score summary.
func (s ConsolidationScore) String() string {
	return fmt.Sprintf("frames=%d exact=%d (%.2f%%) under=%d over=%d lost-objects=%d mean|Δ|=%.3f",
		s.Frames, s.Exact, 100*s.ExactRate(), s.Under, s.Over, s.LostObjects, s.MeanAbsDelta)
}
