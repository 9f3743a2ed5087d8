// Package sched is the cluster's scheduler: the policy half of the
// control plane. The cluster manager (internal/cluster) owns the
// mechanism — starting instances, stopping streams at frame boundaries,
// carrying continuations across instances — and asks this package every
// decision: where a new stream goes (Placement.Place), which stream
// leaves an overloaded instance and for where (Placement.Victim), where
// a dead instance's streams continue (Placement.Recover), which
// migrations rebalance the cluster after membership changes
// (Placement.Rebalance), whether a tenant may admit another stream
// (quotas), and when to grow or shrink the instance fleet (elastic).
//
// Every decision is a pure function of a View — one consistent
// observation of the cluster built once per manager tick — plus the
// Scheduler's own bookkeeping (tenant counts, placement times). Nothing
// here reads a clock or mutates pipelines, which is what keeps a
// thousand-stream run byte-for-byte deterministic under the virtual
// clock and lets policies be unit-tested without a cluster.
package sched

import "time"

// Instance is one cluster instance as seen by the scheduler.
type Instance struct {
	Index int
	// Live is false for failed and retired instances; they take no new
	// streams and propose no victims.
	Live bool
	// Overloaded is the cluster's combined overload signal (ingest lag,
	// capture backlog, pinned queues) for this tick.
	Overloaded bool
	// Streams is the number of active streams placed on the instance;
	// Scheduler.View counts it from the ownership map.
	Streams int
	// TYoloRate is the shared T-YOLO throughput (FPS).
	TYoloRate float64
	// Spare reports the paper's §4.3 admission signal: the shared T-YOLO
	// rate is below the spare threshold.
	Spare bool
	// Backlog is the worst capture-buffer depth across the instance's
	// streams.
	Backlog int
}

// Stream is one active stream as seen by the scheduler.
type Stream struct {
	ID       int
	Instance int
	// PlacedAt is when the stream last arrived on its instance —
	// admission, re-forward, recovery, or migration, whichever was last.
	PlacedAt time.Duration
	// Movable is false while the stream is inside its post-move cooldown
	// window (one CheckEvery); policies must not pick immovable victims,
	// which is what guarantees a stream is never bounced twice within
	// one window.
	Movable bool
}

// View is one consistent observation of the cluster, built once per
// manager tick. Streams is sorted by (PlacedAt, ID) ascending, so
// "most recently placed" is the tail and every iteration order is
// deterministic.
type View struct {
	Now       time.Duration
	Instances []Instance
	Streams   []Stream
}

// Move is one proposed migration.
type Move struct {
	Stream   int
	From, To int
}

// Placement decides where streams run. Implementations must be
// deterministic: the same View and arguments always produce the same
// answer, with no randomness, map iteration, or clock reads.
type Placement interface {
	// Name is the policy's config string.
	Name() string
	// Place returns the instance for a newly admitted stream, or -1
	// when no live instance can take it.
	Place(id int, v *View) int
	// Victim picks the (stream, target) pair that best relieves
	// overloaded instance inst, or (-1, -1) when no movable stream or
	// viable target exists. Only Movable streams may be chosen.
	Victim(inst int, v *View) (stream, target int)
	// Recover returns the instance on which stream id, currently on the
	// dead instance from, should continue — or -1 when no live instance
	// remains. Unlike Place it may pick overloaded instances: a loaded
	// instance beats a dead one.
	Recover(id, from int, v *View) int
	// Rebalance proposes up to budget migrations. changed hints that
	// cluster membership shifted recently (scale-up/down or failure);
	// policies that would churn in steady state only move then. Only
	// Movable streams may be proposed.
	Rebalance(v *View, changed bool, budget int) []Move
}

// leastLoadedExcept returns the live instance with the fewest streams,
// skipping index skip (pass -1 to skip none) and, when spareOnly,
// overloaded instances. Ties break to the lowest index. Returns -1 when
// no instance qualifies.
func leastLoadedExcept(v *View, skip int, spareOnly bool) int {
	best, bestCount := -1, int(1<<30)
	for _, in := range v.Instances {
		if in.Index == skip || !in.Live || (spareOnly && in.Overloaded) {
			continue
		}
		if in.Streams < bestCount {
			best, bestCount = in.Index, in.Streams
		}
	}
	return best
}
