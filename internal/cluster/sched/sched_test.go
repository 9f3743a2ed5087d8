package sched

import (
	"slices"
	"sort"
	"testing"
	"time"
)

func live(indices ...int) []Instance {
	var out []Instance
	for _, i := range indices {
		out = append(out, Instance{Index: i, Live: true, Spare: true})
	}
	return out
}

// TestLeastLoadPlace checks the admission scoring: spare beats
// non-spare, fewer streams beats more, overload is avoided hardest.
func TestLeastLoadPlace(t *testing.T) {
	p, _ := New(Config{})
	v := &View{Instances: []Instance{
		{Index: 0, Live: true, Streams: 3, Spare: true},
		{Index: 1, Live: true, Streams: 1, Spare: true},
		{Index: 2, Live: true, Streams: 0, Spare: false},
		{Index: 3, Live: true, Streams: 0, Spare: true, Overloaded: true},
	}}
	if got := p.Admit(0, v); got != 1 {
		t.Errorf("Admit = %d, want 1 (fewest streams among spare non-overloaded)", got)
	}
	if got := p.Admit(1, &View{}); got != -1 {
		t.Errorf("Admit on empty view = %d, want -1", got)
	}
}

// TestLeastLoadVictim checks the documented default: the most recently
// placed movable stream leaves, bound for the emptiest live instance.
func TestLeastLoadVictim(t *testing.T) {
	p, _ := New(Config{})
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
	if inst := s.Admit(7, v); inst < 0 {
		t.Fatal("admit found no instance")
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

// TestConfigValidation checks that New accepts every Config: the
// cooldown is the one knob and no value of it is invalid, so New never
// returns an error.
func TestConfigValidation(t *testing.T) {
	for _, cd := range []time.Duration{0, time.Second, -time.Second} {
		s, err := New(Config{Cooldown: cd})
		if err != nil || s == nil {
			t.Fatalf("New(Cooldown %v) = %v, %v; want a scheduler and no error", cd, s, err)
		}
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

// viewStreamsReference is View's stream list as it was built before
// the scheduler kept one View to refill: a new slice per call, sorted
// with sort.SliceStable.
func viewStreamsReference(s *Scheduler, now time.Duration, owners map[int]int) []Stream {
	ids := make([]int, 0, len(owners))
	for id := range owners {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out []Stream
	for _, id := range ids {
		at := s.placedAt[id]
		out = append(out, Stream{ID: id, Instance: owners[id], PlacedAt: at, Movable: now-at >= s.cfg.Cooldown})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].PlacedAt != out[j].PlacedAt {
			return out[i].PlacedAt < out[j].PlacedAt
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// TestWarmViewAllocatesNothing: over a thousand owned streams, with
// placement times that tie and streams admitted out of ID order, a
// warm View refills the scheduler's own view without allocating and
// lists the streams exactly as the old per-call view did.
func TestWarmViewAllocatesNothing(t *testing.T) {
	s, _ := New(Config{Cooldown: time.Second})
	insts := live(0, 1, 2, 3)
	owners := make(map[int]int)
	for i := 0; i < 1000; i++ {
		id := (i * 7919) % 1000 // admitted out of ID order
		owners[id] = i % len(insts)
		s.Admit(id, &View{Now: time.Duration(i/10) * 100 * time.Millisecond, Instances: insts})
	}
	now := 5 * time.Second
	want := viewStreamsReference(s, now, owners)
	v := s.View(now, insts, owners)
	if !slices.Equal(v.Streams, want) {
		t.Fatal("View lists the streams in another order or with other fields than the reference")
	}
	if allocs := testing.AllocsPerRun(20, func() { v = s.View(now, insts, owners) }); allocs != 0 {
		t.Errorf("warm View over %d streams: %v allocations, want 0", len(owners), allocs)
	}
	if !slices.Equal(v.Streams, want) {
		t.Error("a warm View lists other streams than the reference")
	}
	for i, in := range v.Instances {
		if in.Streams != 250 {
			t.Errorf("instance %d: Streams = %d, want 250", i, in.Streams)
		}
	}
}
