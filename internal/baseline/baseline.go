// Package baseline implements the comparison system of the paper's
// evaluation: plain YOLOv2 analyzing every frame of every stream with no
// prepositive filtering, spread across all available GPUs. FFS-VA's
// headline results (7× online streams, 3× offline speedup) are measured
// against this system on identical hardware.
package baseline

import (
	"fmt"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/device"
	"ffsva/internal/frame"
	"ffsva/internal/metrics"
	"ffsva/internal/pipeline"
	"ffsva/internal/queue"
	"ffsva/internal/vclock"
)

// Config assembles a baseline System. Everything else is the paper's
// testbed, fixed: calibrated costs, the oracle reference model, and the
// constants below.
type Config struct {
	Clock *vclock.VirtualClock
	Mode  pipeline.Mode
}

// The testbed's fixed shape.
const (
	// gpus is how many GPUs run the reference model (the paper's server
	// has two).
	gpus = 2
	// cpuSlots is the CPU's core capacity for decode.
	cpuSlots = 16
	// queueDepth bounds the shared work queue.
	queueDepth = 8
)

// DefaultConfig mirrors the paper's testbed in offline mode.
func DefaultConfig(clk *vclock.VirtualClock) Config {
	return Config{Clock: clk, Mode: pipeline.Offline}
}

// StreamSpec is one input stream.
type StreamSpec struct {
	ID     int
	Source pipeline.FrameSource
	Frames int
	FPS    int
	Target frame.Class
}

type streamState struct {
	spec      StreamSpec
	ingested  int64
	firstCap  time.Duration
	lastDone  time.Duration
	ingestLag time.Duration
	detected  int64
	// dropped counts frames rejected by a closed work queue — they were
	// ingested but never analyzed, and the report must say so.
	dropped int64
}

// System runs YOLOv2-only analysis.
type System struct {
	cfg     Config
	costs   device.CostModel
	ref     detect.Detector
	cpu     *device.Device
	gpus    []*device.Device
	q       *queue.Queue[*frame.Frame]
	streams []*streamState
	live    int
	latency *metrics.Histogram
}

// New builds a baseline system.
func New(cfg Config, specs []StreamSpec) *System {
	if cfg.Clock == nil {
		panic("baseline: Clock is required")
	}
	s := &System{
		cfg:     cfg,
		costs:   device.Calibrated(),
		ref:     detect.NewOracle(detect.DefaultOracleConfig()),
		cpu:     device.New(cfg.Clock, "cpu", device.CPU, cpuSlots),
		q:       queue.New[*frame.Frame](cfg.Clock, "yolo", queueDepth),
		latency: metrics.NewHistogram(),
	}
	for i := 0; i < gpus; i++ {
		s.gpus = append(s.gpus, device.New(cfg.Clock, fmt.Sprintf("gpu%d", i), device.GPU, 1))
	}
	for _, spec := range specs {
		if spec.FPS <= 0 {
			spec.FPS = 30
		}
		if spec.Frames <= 0 {
			panic(fmt.Sprintf("baseline: stream %d has no frames", spec.ID))
		}
		s.streams = append(s.streams, &streamState{spec: spec})
	}
	return s
}

// Start launches the prefetchers and one worker per GPU.
func (s *System) Start() {
	clk := s.cfg.Clock
	s.live = len(s.streams)
	for _, st := range s.streams {
		st := st
		clk.Go(fmt.Sprintf("yolo-prefetch[%d]", st.spec.ID), func() { s.prefetch(st) })
	}
	for i, g := range s.gpus {
		g := g
		clk.Go(fmt.Sprintf("yolo-gpu[%d]", i), func() { s.worker(g) })
	}
}

// Run starts the system, runs the clock to completion, and reports.
func (s *System) Run() *Report {
	s.Start()
	s.cfg.Clock.Run()
	return s.Report()
}

func (s *System) prefetch(st *streamState) {
	clk := s.cfg.Clock
	interval := time.Second / time.Duration(st.spec.FPS)
	epoch := clk.Now()
	for i := 0; i < st.spec.Frames; i++ {
		target := epoch + time.Duration(i)*interval
		if s.cfg.Mode == pipeline.Online {
			if now := clk.Now(); now < target {
				clk.Sleep(target - now)
			}
		}
		s.cpu.Use(device.ModelDecode, 1, s.costs)
		f := st.spec.Source.Next()
		f.StreamID = st.spec.ID
		f.Captured = clk.Now()
		if i == 0 {
			st.firstCap = f.Captured
		}
		st.ingested++
		if !s.q.Put(f) {
			// The queue only rejects after Close: this frame will never
			// be analyzed, so ledger the loss and recycle its plane
			// instead of dropping it silently.
			st.dropped++
			f.Release()
		}
		if s.cfg.Mode == pipeline.Online {
			if lag := clk.Now() - target; lag > st.ingestLag {
				st.ingestLag = lag
			}
		}
	}
	s.live--
	if s.live == 0 {
		s.q.Close()
	}
}

func (s *System) worker(g *device.Device) {
	byID := make(map[int]*streamState, len(s.streams))
	for _, st := range s.streams {
		byID[st.spec.ID] = st
	}
	for {
		f, ok := s.q.Get()
		if !ok {
			return
		}
		g.Use(device.ModelRef, 1, s.costs)
		st := byID[f.StreamID]
		dets := s.ref.Detect(f)
		now := s.cfg.Clock.Now()
		if detect.Count(dets, st.spec.Target, 0.5) > 0 {
			st.detected++
		}
		if now > st.lastDone {
			st.lastDone = now
		}
		s.latency.Observe(now - f.Captured)
		// The worker is the frame's terminal point: recycle its plane
		// (a no-op for frames not built by frame.NewPooled).
		f.Release()
	}
}

// StreamReport is per-stream accounting.
type StreamReport struct {
	ID                     int
	Ingested               int64
	Detected               int64
	Dropped                int64
	FirstCapture, LastDone time.Duration
	IngestLag              time.Duration
}

// Report summarizes a finished baseline run.
type Report struct {
	Mode                    pipeline.Mode
	Elapsed                 time.Duration
	TotalFrames             int64
	Throughput              float64
	PerStreamFPS            float64
	LatencyMean, LatencyP99 time.Duration
	Realtime                bool
	GPUUtil                 []float64
	Streams                 []StreamReport
}

// Report collects results after the clock has drained.
func (s *System) Report() *Report {
	r := &Report{Mode: s.cfg.Mode, Realtime: s.cfg.Mode == pipeline.Online}
	var first, last time.Duration
	first = -1
	for _, st := range s.streams {
		r.TotalFrames += st.ingested
		if first < 0 || st.firstCap < first {
			first = st.firstCap
		}
		if st.lastDone > last {
			last = st.lastDone
		}
		if st.ingestLag > pipeline.RealtimeLag {
			r.Realtime = false
		}
		r.Streams = append(r.Streams, StreamReport{
			ID: st.spec.ID, Ingested: st.ingested, Detected: st.detected,
			Dropped:      st.dropped,
			FirstCapture: st.firstCap, LastDone: st.lastDone, IngestLag: st.ingestLag,
		})
	}
	if first < 0 {
		first = 0
	}
	r.Elapsed = last - first
	if r.Elapsed > 0 {
		r.Throughput = float64(r.TotalFrames) / r.Elapsed.Seconds()
		if n := len(s.streams); n > 0 {
			r.PerStreamFPS = r.Throughput / float64(n)
		}
	}
	r.LatencyMean = s.latency.Mean()
	r.LatencyP99 = s.latency.Quantile(0.99)
	for _, g := range s.gpus {
		r.GPUUtil = append(r.GPUUtil, g.Utilization(r.Elapsed))
	}
	return r
}
