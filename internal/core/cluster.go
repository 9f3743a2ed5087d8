package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ffsva/internal/cluster"
	"ffsva/internal/detect"
	"ffsva/internal/pipeline"
	"ffsva/internal/timeline"
)

// ErrBadInstances marks a non-positive cluster instance count.
var ErrBadInstances = errors.New("core: Instances must be positive")

// ClusterConfig describes a multi-instance run assembled from the same
// workload description as a single-instance Config. Streams arrive one
// by one; the scheduler places each on the least-loaded instance and
// re-forwards streams off overloaded instances (§4.3). The control
// plane's timing is fixed (a 1 s monitor period, three overloaded
// checks before a re-forward, a 500 ms heartbeat, a 2 s fail timeout).
type ClusterConfig struct {
	// Config is the shared workload description. Mode is forced Online:
	// the multi-instance manager's signals (ingest lag, capture backlog)
	// only exist under online pacing.
	Config
	// Instances is the number of FFS-VA instances (one server each).
	Instances int
	// ArrivalEvery staggers stream admissions; 0 admits everything at
	// the start.
	ArrivalEvery time.Duration
}

// DefaultClusterConfig returns a two-instance configuration over the
// standard workload, with streams arriving two seconds apart.
func DefaultClusterConfig() ClusterConfig {
	cfg := DefaultConfig()
	cfg.Mode = pipeline.Online
	cfg.Streams = 4
	return ClusterConfig{
		Config:       cfg,
		Instances:    2,
		ArrivalEvery: 2 * time.Second,
	}
}

// Validate extends Config.Validate with the cluster fields; a planned
// slow, stall or crash must name one of the Instances.
func (c ClusterConfig) Validate() error {
	if c.Instances <= 0 {
		return fmt.Errorf("%w, have %d", ErrBadInstances, c.Instances)
	}
	if err := c.Config.validate(c.Instances); err != nil {
		return err
	}
	if c.ArrivalEvery < 0 {
		return fmt.Errorf("core: ArrivalEvery must not be negative, have %v", c.ArrivalEvery)
	}
	return nil
}

// RunCluster trains the workload's camera models, spreads the
// configured streams over a multi-instance cluster, runs it to
// completion, and returns the cluster report. It is RunClusterContext
// with a background context.
func RunCluster(cfg ClusterConfig) (*cluster.Report, error) {
	return RunClusterContext(context.Background(), cfg)
}

// RunClusterContext is RunCluster with cancellation, with the same
// semantics as RunContext: a mid-run cancel stops admission and ingest
// at frame boundaries, drains in-flight frames, and reports the partial
// run with Cancelled set.
func RunClusterContext(ctx context.Context, cfg ClusterConfig) (*cluster.Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cam, err := Camera(cfg.Workload, cfg.TOR)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	ccfg := cluster.DefaultConfig(cfg.clock(), cfg.Instances)
	ccfg.Pipeline.BatchPolicy = cfg.BatchPolicy
	if cfg.BatchSize > 0 {
		ccfg.Pipeline.BatchSize = cfg.BatchSize
	}
	ccfg.Pipeline.ShedAfter = cfg.ShedAfter
	ccfg.Pipeline.Consolidate = cfg.Consolidate
	ccfg.Faults = cfg.Faults
	ccfg.Tracer = cfg.Trace
	ccfg.OnSnapshot = cfg.OnSnapshot
	if rec := cfg.Timeline; rec != nil {
		rec.BindTracer(cfg.Trace)
		onSnap := cfg.OnSnapshot
		ccfg.OnSnapshot = func(instance int, sn pipeline.Snapshot) {
			rec.Observe(instance, sn)
			if onSnap != nil {
				onSnap(instance, sn)
			}
		}
		if cfg.Trace == nil {
			// Without a tracer the recorder has no instant feed, so the
			// control-plane events flow in directly; with one, BindTracer
			// already subscribes them (wiring both would double-record).
			ccfg.OnEvent = func(e cluster.Event) {
				instance, name := e.Instant()
				rec.RecordEvent(timeline.Event{Name: name, Cat: "cluster", Instance: instance, At: e.At})
			}
		}
	}

	// The manager must outlive the last arrival plus a full stream
	// duration (30 FPS pacing), with slack for backlog drain.
	lastArrival := time.Duration(cfg.Streams-1) * cfg.ArrivalEvery
	streamDur := time.Duration(cfg.FramesPerStream) * time.Second / 30
	ccfg.Horizon = lastArrival + streamDur + streamDur/2 + 10*time.Second

	arrivals := make([]cluster.Arrival, cfg.Streams)
	for i := 0; i < cfg.Streams; i++ {
		i := i
		arrivals[i] = cluster.Arrival{
			At:     time.Duration(i) * cfg.ArrivalEvery,
			ID:     i,
			Frames: cfg.FramesPerStream,
			Make: func(tg *detect.TinyGrid) pipeline.StreamSpec {
				return cfg.stream(cam, tg, i)
			},
		}
	}
	return cluster.New(ccfg, arrivals).RunContext(ctx), nil
}
