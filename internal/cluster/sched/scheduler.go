package sched

import (
	"cmp"
	"slices"
	"time"
)

// Config assembles a Scheduler.
type Config struct {
	// Cooldown is the post-move window during which a stream is not
	// movable again — the cluster passes its monitor period, so no stream is
	// ever bounced twice within one monitor window.
	Cooldown time.Duration
}

// Scheduler is the control plane's decision component: least-load
// placement, overload victim choice and recovery targets, plus the
// per-stream placement times behind recency and move cooldowns. It
// holds no pipeline state and runs entirely on the cluster manager's
// clock process — no locking, and every decision is deterministic.
type Scheduler struct {
	cfg Config
	// placedAt is when each stream was admitted or last moved: its
	// recency, and the start of its move cooldown.
	placedAt map[int]time.Duration
	// view and ids are View's, refilled by every call.
	view View
	ids  []int
}

// New builds the scheduler. Every Config is valid, so the error is
// always nil; it stays in the signature for existing callers.
func New(cfg Config) (*Scheduler, error) {
	return &Scheduler{cfg: cfg, placedAt: make(map[int]time.Duration)}, nil
}

// View assembles the tick's consistent observation: the instances as
// observed by the cluster, each with Streams set to the number of
// streams owners places on it (owners maps stream ID to instance index,
// which is also the instance's position in insts), plus every owned
// stream annotated with its placement time and move cooldown, sorted
// (PlacedAt, ID) ascending.
//
// The View is the scheduler's own, refilled by every call: it is valid
// until the next call to View, so a caller consumes it at once, as
// Admit, Victim and Recover do.
func (s *Scheduler) View(now time.Duration, insts []Instance, owners map[int]int) *View {
	for i := range insts {
		insts[i].Streams = 0
	}
	s.ids = s.ids[:0]
	for id := range owners {
		s.ids = append(s.ids, id)
	}
	slices.Sort(s.ids)
	v := &s.view
	v.Now, v.Instances, v.Streams = now, insts, v.Streams[:0]
	for _, id := range s.ids {
		insts[owners[id]].Streams++
		at := s.placedAt[id]
		v.Streams = append(v.Streams, Stream{
			ID:       id,
			Instance: owners[id],
			PlacedAt: at,
			Movable:  now-at >= s.cfg.Cooldown,
		})
	}
	slices.SortStableFunc(v.Streams, func(a, b Stream) int {
		return cmp.Or(cmp.Compare(a.PlacedAt, b.PlacedAt), cmp.Compare(a.ID, b.ID))
	})
	return v
}

// Admit places a new stream and records its placement time, returning
// the target instance, or -1 when no instance is live.
//
// Every live instance is scored — active streams ×10, +1000 when
// overloaded, +100 when the shared T-YOLO rate has no spare capacity —
// and the lowest score wins (lowest index on ties): spare live
// instances first, per the paper's §4.3 admission signal, then fewest
// streams.
func (s *Scheduler) Admit(id int, v *View) int {
	best, bestScore := -1, int(1<<30)
	for _, in := range v.Instances {
		if !in.Live {
			continue
		}
		score := in.Streams * 10
		if in.Overloaded {
			score += 1000
		}
		if !in.Spare {
			score += 100
		}
		if score < bestScore {
			best, bestScore = in.Index, score
		}
	}
	if best >= 0 {
		s.placedAt[id] = v.Now
	}
	return best
}

// Moved records a successful re-forward or recovery: the stream's
// recency and cooldown restart.
func (s *Scheduler) Moved(id int, now time.Duration) {
	s.placedAt[id] = now
}

// Done forgets a stream when it finishes or is abandoned.
func (s *Scheduler) Done(id int) {
	delete(s.placedAt, id)
}

// Victim picks the stream that leaves overloaded instance inst and its
// target, or (-1, -1) when no movable stream or viable target exists.
//
// The victim is the most recently placed movable stream. Recency is the
// right default because the newest stream has the least per-stream
// state amortized on its instance (background model, SNM batch
// residency) and, under arrival bursts, is the stream most likely to
// have caused the overload. The target is the least-loaded live
// non-overloaded instance.
func (s *Scheduler) Victim(inst int, v *View) (stream, target int) {
	target = leastLoadedExcept(v, inst, true)
	if target < 0 {
		return -1, -1
	}
	// v.Streams is (PlacedAt, ID)-ascending: the tail is the newest.
	for i := len(v.Streams) - 1; i >= 0; i-- {
		if st := v.Streams[i]; st.Instance == inst && st.Movable {
			return st.ID, target
		}
	}
	return -1, -1
}

// Recover returns the instance on which a stream of the dead instance
// from should continue — the least-loaded live instance,
// overloaded or not, since a loaded instance beats a dead one — or -1
// when no live instance remains. No cooldown applies: recovery is
// forced, not discretionary.
func (s *Scheduler) Recover(from int, v *View) int {
	return leastLoadedExcept(v, from, false)
}
