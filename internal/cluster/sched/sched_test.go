package sched

import (
	"testing"
	"time"
)

// mkView builds a View with the given live instances and stream->instance
// owners, every stream movable and placed at t=0.
func mkView(now time.Duration, instances []Instance, owners map[int]int) *View {
	v := &View{Now: now, Instances: instances}
	ids := make([]int, 0, len(owners))
	for id := range owners {
		ids = append(ids, id)
	}
	// deterministic order for the test fixture
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	for _, id := range ids {
		v.Streams = append(v.Streams, Stream{ID: id, Instance: owners[id], Movable: true})
	}
	return v
}

func live(indices ...int) []Instance {
	var out []Instance
	for _, i := range indices {
		out = append(out, Instance{Index: i, Live: true, Spare: true})
	}
	return out
}

// TestHashStabilityOnAdd checks the consistent-hash property: growing
// the fleet moves streams only onto the new instance, never between two
// instances that were present before and after.
func TestHashStabilityOnAdd(t *testing.T) {
	h := &ConsistentHash{Replicas: defaultHashReplicas}
	before := mkView(0, live(0, 1, 2), nil)
	after := mkView(0, live(0, 1, 2, 3), nil)

	moved, toNew := 0, 0
	for id := 0; id < 500; id++ {
		was := h.Place(id, before)
		now := h.Place(id, after)
		if was < 0 || now < 0 {
			t.Fatalf("stream %d unplaced: before=%d after=%d", id, was, now)
		}
		if was != now {
			moved++
			if now != 3 {
				t.Errorf("stream %d moved %d -> %d: moves must only target the new instance", id, was, now)
			} else {
				toNew++
			}
		}
	}
	if toNew == 0 {
		t.Fatal("no stream moved to the new instance; ring is not spreading")
	}
	// With 64 virtual nodes per instance the new instance should take
	// roughly a quarter; anything between 10% and 45% is a sane ring.
	if moved < 50 || moved > 225 {
		t.Errorf("moved %d/500 streams on add, want roughly 125", moved)
	}
}

// TestHashStabilityOnRemove checks the complementary property: removing
// an instance moves exactly the streams it owned, and nothing else.
func TestHashStabilityOnRemove(t *testing.T) {
	h := &ConsistentHash{Replicas: defaultHashReplicas}
	before := mkView(0, live(0, 1, 2, 3), nil)
	after := mkView(0, []Instance{
		{Index: 0, Live: true}, {Index: 1, Live: false}, {Index: 2, Live: true}, {Index: 3, Live: true},
	}, nil)

	for id := 0; id < 500; id++ {
		was := h.Place(id, before)
		now := h.Place(id, after)
		if was != 1 && now != was {
			t.Errorf("stream %d moved %d -> %d though its owner survived", id, was, now)
		}
		if was == 1 && (now == 1 || now < 0) {
			t.Errorf("stream %d still placed on removed instance (now=%d)", id, now)
		}
	}
}

// TestHashDeterministic checks that two independently built rings agree.
func TestHashDeterministic(t *testing.T) {
	a := &ConsistentHash{Replicas: defaultHashReplicas}
	b := &ConsistentHash{Replicas: defaultHashReplicas}
	v := mkView(0, live(0, 1, 2), nil)
	for id := 0; id < 200; id++ {
		if pa, pb := a.Place(id, v), b.Place(id, v); pa != pb {
			t.Fatalf("stream %d: ring disagreement %d vs %d", id, pa, pb)
		}
	}
}

// TestHashRebalanceSendsGuestsHome checks that after membership
// changes, Rebalance proposes exactly the moves that restore the hash
// invariant, bounded by the budget.
func TestHashRebalanceSendsGuestsHome(t *testing.T) {
	h := &ConsistentHash{Replicas: defaultHashReplicas}
	v := mkView(0, live(0, 1), nil)
	owners := map[int]int{}
	displaced := 0
	for id := 0; id < 40; id++ {
		home := h.Place(id, v)
		if displaced < 5 {
			owners[id] = 1 - home // park it away from home
			displaced++
		} else {
			owners[id] = home
		}
	}
	view := mkView(0, live(0, 1), owners)
	moves := h.Rebalance(view, true, 100)
	if len(moves) != displaced {
		t.Fatalf("rebalance proposed %d moves, want %d (the displaced guests)", len(moves), displaced)
	}
	for _, m := range moves {
		if home := h.Place(m.Stream, view); m.To != home {
			t.Errorf("stream %d rebalanced to %d, home is %d", m.Stream, m.To, home)
		}
	}
	if got := h.Rebalance(view, true, 2); len(got) != 2 {
		t.Errorf("budget 2 produced %d moves", len(got))
	}
	if got := h.Rebalance(view, false, 100); len(got) != 0 {
		t.Errorf("steady state proposed %d moves, want 0", len(got))
	}
}

// TestLeastLoadPlace checks the admission scoring: spare beats
// non-spare, fewer streams beats more, overload is avoided hardest.
func TestLeastLoadPlace(t *testing.T) {
	p := &LeastLoad{}
	v := &View{Instances: []Instance{
		{Index: 0, Live: true, Streams: 3, Spare: true},
		{Index: 1, Live: true, Streams: 1, Spare: true},
		{Index: 2, Live: true, Streams: 0, Spare: false},
		{Index: 3, Live: true, Streams: 0, Spare: true, Overloaded: true},
	}}
	if got := p.Place(0, v); got != 1 {
		t.Errorf("Place = %d, want 1 (fewest streams among spare non-overloaded)", got)
	}
	if got := p.Place(0, &View{}); got != -1 {
		t.Errorf("Place on empty view = %d, want -1", got)
	}
}

// TestLeastLoadVictim checks the documented default: the most recently
// placed movable stream leaves, bound for the emptiest live instance.
func TestLeastLoadVictim(t *testing.T) {
	p := &LeastLoad{}
	v := &View{
		Instances: []Instance{
			{Index: 0, Live: true, Streams: 3, Overloaded: true},
			{Index: 1, Live: true, Streams: 1},
		},
		Streams: []Stream{
			{ID: 10, Instance: 0, PlacedAt: 0, Movable: true},
			{ID: 11, Instance: 1, PlacedAt: 1 * time.Second, Movable: true},
			{ID: 12, Instance: 0, PlacedAt: 2 * time.Second, Movable: true},
			{ID: 13, Instance: 0, PlacedAt: 3 * time.Second, Movable: false},
		},
	}
	stream, target := p.Victim(0, v)
	if stream != 12 || target != 1 {
		t.Errorf("Victim = (%d, %d), want (12, 1): newest movable stream, emptiest target", stream, target)
	}
}

// TestSchedulerQuotas checks tenant and cluster caps, and that Done
// frees the quota for later arrivals.
func TestSchedulerQuotas(t *testing.T) {
	s, err := New(Config{
		Quotas: QuotaConfig{MaxStreams: 3, PerTenant: map[string]int{"acme": 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := mkView(0, live(0, 1), nil)

	if inst, why := s.Admit(1, "acme", v); inst < 0 || why != RejectNone {
		t.Fatalf("first acme admit rejected: %v", why)
	}
	if _, why := s.Admit(2, "acme", v); why != RejectTenantQuota {
		t.Fatalf("second acme admit = %v, want tenant quota rejection", why)
	}
	if inst, why := s.Admit(3, "globex", v); inst < 0 || why != RejectNone {
		t.Fatalf("globex admit rejected: %v", why)
	}
	if inst, why := s.Admit(4, "", v); inst < 0 || why != RejectNone {
		t.Fatalf("default-tenant admit rejected: %v", why)
	}
	if _, why := s.Admit(5, "initech", v); why != RejectClusterQuota {
		t.Fatalf("over-cap admit = %v, want cluster quota rejection", why)
	}
	s.Done(1)
	if inst, why := s.Admit(6, "acme", v); inst < 0 || why != RejectNone {
		t.Fatalf("acme admit after Done rejected: %v", why)
	}
}

// TestSchedulerCooldown checks the no-bounce contract: a stream moved
// at t is not a victim again until t+Cooldown.
func TestSchedulerCooldown(t *testing.T) {
	s, err := New(Config{Cooldown: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	insts := []Instance{
		{Index: 0, Live: true, Streams: 1, Overloaded: true},
		{Index: 1, Live: true},
	}
	v := s.View(0, insts, nil)
	if inst, why := s.Admit(7, "", v); inst < 0 || why != RejectNone {
		t.Fatalf("admit rejected: %v", why)
	}
	owners := map[int]int{7: 0}
	if stream, _ := s.Victim(0, s.View(500*time.Millisecond, insts, owners)); stream != -1 {
		t.Errorf("victim inside cooldown = %d, want -1", stream)
	}
	stream, target := s.Victim(0, s.View(time.Second, insts, owners))
	if stream != 7 || target != 1 {
		t.Fatalf("victim after cooldown = (%d, %d), want (7, 1)", stream, target)
	}
	s.Moved(7, time.Second)
	owners[7] = 1
	insts[0].Overloaded, insts[1].Overloaded = false, true
	insts[0].Streams, insts[1].Streams = 0, 1
	if stream, _ := s.Victim(1, s.View(1500*time.Millisecond, insts, owners)); stream != -1 {
		t.Errorf("victim re-bounced inside cooldown = %d, want -1", stream)
	}
}

// TestSchedulerElastic checks the sustained-overload scale-up streak,
// the sustained-idleness scale-down streak, and the fleet floor.
func TestSchedulerElastic(t *testing.T) {
	s, err := New(Config{Elastic: ElasticConfig{
		Max: 3, Min: 1, ScaleUpAfter: 2 * time.Second, ScaleDownAfter: 3 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	over := func(n int) []Instance {
		var out []Instance
		for i := 0; i < n; i++ {
			out = append(out, Instance{Index: i, Live: true, Overloaded: true, Streams: 1})
		}
		return out
	}
	// Overload for 1s: no growth yet.
	for _, now := range []time.Duration{0, time.Second} {
		if grow, _ := s.Elastic(&View{Now: now, Instances: over(1)}); grow {
			t.Fatalf("grew at %v, before the streak matured", now)
		}
	}
	if grow, _ := s.Elastic(&View{Now: 2 * time.Second, Instances: over(1)}); !grow {
		t.Fatal("no growth after a sustained 2s overload streak")
	}
	// A break in the overload resets the streak.
	calm := over(1)
	calm[0].Overloaded = false
	s.Elastic(&View{Now: 3 * time.Second, Instances: calm})
	if grow, _ := s.Elastic(&View{Now: 4 * time.Second, Instances: over(1)}); grow {
		t.Fatal("grew immediately after a reset streak")
	}

	// Scale-down: instance 1 empty from t=10s, retire at t=13s.
	idle := []Instance{
		{Index: 0, Live: true, Streams: 2},
		{Index: 1, Live: true, Streams: 0},
	}
	for _, now := range []time.Duration{10 * time.Second, 12 * time.Second} {
		if _, retire := s.Elastic(&View{Now: now, Instances: idle}); retire != -1 {
			t.Fatalf("retired %d at %v, before the idle streak matured", retire, now)
		}
	}
	if _, retire := s.Elastic(&View{Now: 13 * time.Second, Instances: idle}); retire != 1 {
		t.Fatalf("retire = %d at 13s, want 1", retire)
	}
	// Floor: a lone empty instance never retires.
	lone := []Instance{{Index: 0, Live: true, Streams: 0}}
	for _, now := range []time.Duration{20 * time.Second, 30 * time.Second} {
		if _, retire := s.Elastic(&View{Now: now, Instances: lone}); retire != -1 {
			t.Fatalf("retired the last instance at %v", now)
		}
	}
}

// TestConfigValidation checks the sentinel errors.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Placement: PlacementConfig{Policy: "round-robin"}}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(Config{Quotas: QuotaConfig{MaxStreams: -1}}); err == nil {
		t.Error("negative cluster quota accepted")
	}
	if _, err := New(Config{Quotas: QuotaConfig{PerTenant: map[string]int{"a": -2}}}); err == nil {
		t.Error("negative tenant quota accepted")
	}
	if _, err := New(Config{Elastic: ElasticConfig{Max: 2, Min: 3}}); err == nil {
		t.Error("Min > Max accepted")
	}
	s, err := New(Config{Placement: PlacementConfig{Policy: PolicyHash}})
	if err != nil {
		t.Fatalf("hash policy rejected: %v", err)
	}
	if s.PolicyName() != PolicyHash {
		t.Errorf("PolicyName = %q", s.PolicyName())
	}
}

// TestViewCountsOwnedStreams checks that View sets each instance's
// Streams to the number of streams the ownership map places on it,
// whatever the caller passed in.
func TestViewCountsOwnedStreams(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	insts := live(0, 1, 2)
	insts[2].Streams = 7 // stale: View must overwrite it
	owners := map[int]int{10: 0, 11: 1, 12: 0, 13: 0}
	v := s.View(0, insts, owners)
	for i, want := range []int{3, 1, 0} {
		if got := v.Instances[i].Streams; got != want {
			t.Errorf("instance %d: Streams = %d, want %d", i, got, want)
		}
	}
	if len(v.Streams) != len(owners) {
		t.Errorf("view lists %d streams, want %d", len(v.Streams), len(owners))
	}
}
