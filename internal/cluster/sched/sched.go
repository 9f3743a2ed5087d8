// Package sched is the cluster's scheduler: the policy half of the
// control plane. The cluster manager (internal/cluster) owns the
// mechanism — starting instances, stopping streams at frame boundaries,
// carrying continuations across instances — and asks this package every
// decision: where a new stream goes (Scheduler.Admit), which stream
// leaves an overloaded instance and for where (Scheduler.Victim), and
// where a dead instance's streams continue (Scheduler.Recover). The one
// policy is least-load over the paper's spare T-YOLO-rate signal (§4.3).
//
// Every decision is a pure function of a View — one consistent
// observation of the cluster built once per manager tick — plus the
// Scheduler's own bookkeeping (placement times). Nothing here reads a
// clock or mutates pipelines, which is what keeps a thousand-stream run
// byte-for-byte deterministic under the virtual clock and lets the
// policy be unit-tested without a cluster.
package sched

import "time"

// Instance is one cluster instance as seen by the scheduler.
type Instance struct {
	Index int
	// Live is false for failed instances; they take no new streams and
	// propose no victims.
	Live bool
	// Overloaded is the cluster's combined overload signal (ingest lag,
	// capture backlog, pinned queues) for this tick.
	Overloaded bool
	// Streams is the number of active streams placed on the instance;
	// Scheduler.View counts it from the ownership map.
	Streams int
	// Spare reports the paper's §4.3 admission signal: the shared T-YOLO
	// rate is below the spare threshold.
	Spare bool
}

// Stream is one active stream as seen by the scheduler.
type Stream struct {
	ID       int
	Instance int
	// PlacedAt is when the stream last arrived on its instance —
	// admission, re-forward or recovery, whichever was last.
	PlacedAt time.Duration
	// Movable is false while the stream is inside its post-move cooldown
	// window (one monitor period); Victim never picks an immovable stream,
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
