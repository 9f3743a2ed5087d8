package sched

import (
	"sort"
	"time"
)

// Config assembles a Scheduler.
type Config struct {
	Placement PlacementConfig
	Quotas    QuotaConfig
	Elastic   ElasticConfig
	// Cooldown is the post-move window during which a stream is not
	// movable again — the cluster passes its CheckEvery, so no stream is
	// ever bounced twice within one monitor window.
	Cooldown time.Duration
}

// RejectReason types an admission rejection.
type RejectReason int

// Admission outcomes.
const (
	// RejectNone means the stream was admitted.
	RejectNone RejectReason = iota
	// RejectTenantQuota means the stream's tenant is at its cap.
	RejectTenantQuota
	// RejectClusterQuota means the cluster-wide stream cap is reached.
	RejectClusterQuota
	// RejectNoInstance means no live instance could take the stream.
	RejectNoInstance
)

// String names the reason.
func (r RejectReason) String() string {
	switch r {
	case RejectNone:
		return "admitted"
	case RejectTenantQuota:
		return "tenant quota"
	case RejectClusterQuota:
		return "cluster quota"
	default:
		return "no live instance"
	}
}

// Scheduler is the control plane's decision component: it owns the
// pluggable placement policy, tenant quota accounting, per-stream
// placement times (recency and move cooldowns), and the elastic
// scale-up/down streaks. It holds no pipeline state and runs entirely
// on the cluster manager's clock process — no locking, and every
// decision is deterministic.
type Scheduler struct {
	cfg    Config
	policy Placement

	active   int            // streams currently placed, cluster-wide
	tenantOf map[int]string // stream id -> tenant
	tenants  map[string]int // tenant -> active streams
	// placedAt is when each stream was admitted or last moved: its
	// recency, and the start of its move cooldown.
	placedAt map[int]time.Duration

	// overSince is when every live instance became overloaded at once
	// (scale-up streak); overNow marks the streak as running.
	overSince time.Duration
	overNow   bool
	// idleSince is when each instance last became empty (scale-down
	// streaks).
	idleSince map[int]time.Duration
}

// New validates the config and builds the scheduler.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Quotas.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Elastic.Validate(); err != nil {
		return nil, err
	}
	policy, err := cfg.Placement.build()
	if err != nil {
		return nil, err
	}
	return &Scheduler{
		cfg:       cfg,
		policy:    policy,
		tenantOf:  make(map[int]string),
		tenants:   make(map[string]int),
		placedAt:  make(map[int]time.Duration),
		idleSince: make(map[int]time.Duration),
	}, nil
}

// PolicyName reports the active placement policy.
func (s *Scheduler) PolicyName() string { return s.policy.Name() }

// View assembles the tick's consistent observation: the instances as
// observed by the cluster, each with Streams set to the number of
// streams owners places on it (owners maps stream ID to instance index,
// which is also the instance's position in insts), plus every owned
// stream annotated with its placement time and move cooldown, sorted
// (PlacedAt, ID) ascending.
func (s *Scheduler) View(now time.Duration, insts []Instance, owners map[int]int) *View {
	v := &View{Now: now, Instances: insts}
	for i := range insts {
		insts[i].Streams = 0
	}
	ids := make([]int, 0, len(owners))
	for id := range owners {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		insts[owners[id]].Streams++
		at := s.placedAt[id]
		v.Streams = append(v.Streams, Stream{
			ID:       id,
			Instance: owners[id],
			PlacedAt: at,
			Movable:  now-at >= s.cfg.Cooldown,
		})
	}
	sort.SliceStable(v.Streams, func(i, j int) bool {
		if v.Streams[i].PlacedAt != v.Streams[j].PlacedAt {
			return v.Streams[i].PlacedAt < v.Streams[j].PlacedAt
		}
		return v.Streams[i].ID < v.Streams[j].ID
	})
	return v
}

// Admit decides a new stream's placement under the quotas. On success
// the placement is committed (quota consumed, recency recorded) and the
// target instance returned; on rejection the instance is -1 and the
// reason non-zero.
func (s *Scheduler) Admit(id int, tenant string, v *View) (int, RejectReason) {
	if max := s.cfg.Quotas.MaxStreams; max > 0 && s.active >= max {
		return -1, RejectClusterQuota
	}
	if limit := s.cfg.Quotas.limit(tenant); limit > 0 && s.tenants[tenant] >= limit {
		return -1, RejectTenantQuota
	}
	inst := s.policy.Place(id, v)
	if inst < 0 {
		return -1, RejectNoInstance
	}
	s.active++
	s.tenantOf[id] = tenant
	s.tenants[tenant]++
	s.placedAt[id] = v.Now
	return inst, RejectNone
}

// Moved records a successful migration (re-forward, recovery, or
// rebalance): the stream's recency and cooldown restart.
func (s *Scheduler) Moved(id int, now time.Duration) {
	s.placedAt[id] = now
}

// Done releases a stream's quota when it finishes or is abandoned.
func (s *Scheduler) Done(id int) {
	tenant, ok := s.tenantOf[id]
	if !ok {
		return
	}
	delete(s.tenantOf, id)
	delete(s.placedAt, id)
	s.active--
	if s.tenants[tenant]--; s.tenants[tenant] <= 0 {
		delete(s.tenants, tenant)
	}
}

// Victim delegates the overload re-forward choice to the placement
// policy, enforcing the cooldown contract: a policy bug returning an
// immovable stream is dropped here rather than bouncing it.
func (s *Scheduler) Victim(inst int, v *View) (int, int) {
	stream, target := s.policy.Victim(inst, v)
	if stream < 0 || target < 0 {
		return -1, -1
	}
	if v.Now-s.placedAt[stream] < s.cfg.Cooldown {
		return -1, -1
	}
	return stream, target
}

// Recover delegates a dead instance's stream continuation target to the
// placement policy. No cooldown applies: recovery is forced, not
// discretionary.
func (s *Scheduler) Recover(id, from int, v *View) int {
	return s.policy.Recover(id, from, v)
}

// Rebalance delegates to the placement policy and filters the cooldown,
// mirroring Victim.
func (s *Scheduler) Rebalance(v *View, changed bool, budget int) []Move {
	moves := s.policy.Rebalance(v, changed, budget)
	kept := moves[:0]
	for _, m := range moves {
		if v.Now-s.placedAt[m.Stream] >= s.cfg.Cooldown {
			kept = append(kept, m)
		}
	}
	return kept
}

// Elastic updates the overload/idleness streaks from the tick's view
// and returns the scale decision: grow asks for one more instance
// (sustained cluster-wide overload, fleet below Max); retire names an
// empty instance to shut down (sustained idleness, fleet above the
// floor), or -1. At most one of the two fires per tick.
func (s *Scheduler) Elastic(v *View) (grow bool, retire int) {
	retire = -1
	if s.cfg.Elastic.Max <= 0 {
		return false, -1
	}
	live, allOver := 0, true
	for _, in := range v.Instances {
		if !in.Live {
			continue
		}
		live++
		if !in.Overloaded {
			allOver = false
		}
	}
	// Scale-up streak: every live instance overloaded, continuously.
	if live > 0 && allOver {
		if !s.overNow {
			s.overNow, s.overSince = true, v.Now
		}
		if v.Now-s.overSince >= s.cfg.Elastic.upAfter() && live < s.cfg.Elastic.Max {
			s.overNow = false
			return true, -1
		}
	} else {
		s.overNow = false
	}
	// Scale-down streaks: per-instance continuous emptiness. Streaks
	// update for every live instance each tick; the lowest-index expired
	// streak retires (one per tick).
	for _, in := range v.Instances {
		if !in.Live {
			delete(s.idleSince, in.Index)
			continue
		}
		if in.Streams > 0 {
			delete(s.idleSince, in.Index)
			continue
		}
		if _, ok := s.idleSince[in.Index]; !ok {
			s.idleSince[in.Index] = v.Now
		}
		if retire < 0 && live > s.cfg.Elastic.floor() &&
			v.Now-s.idleSince[in.Index] >= s.cfg.Elastic.downAfter() {
			retire = in.Index
			delete(s.idleSince, in.Index)
			live--
		}
	}
	return false, retire
}
