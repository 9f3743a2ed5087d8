package cluster

import (
	"testing"
	"time"

	"ffsva/internal/pipeline"
)

// TestOneSamplePerInstant holds the manager to one observation per
// tick: through a same-instant burst, an overload re-forward and a crash
// recovery, every (instance, At) reaches OnSnapshot exactly once, and
// every tick samples every instance.
func TestOneSamplePerInstant(t *testing.T) {
	type key struct {
		instance int
		at       time.Duration
	}
	seen := map[key]int{}
	perTick := map[time.Duration]int{}
	rep := burstRun(t, func(instance int, sn pipeline.Snapshot) {
		seen[key{instance, sn.At}]++
		perTick[sn.At]++
	})
	if rep.Reforwards() == 0 || rep.Failures() != 1 {
		t.Fatalf("%d re-forwards, %d failures; the run must re-forward and detect the crash", rep.Reforwards(), rep.Failures())
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("instance %d sampled %d times at %v, want once", k.instance, n, k.at)
		}
	}
	for at, n := range perTick {
		if n != len(rep.Instances) {
			t.Errorf("tick at %v sampled %d instances, want %d", at, n, len(rep.Instances))
		}
	}
	if len(perTick) < 2 {
		t.Fatalf("%d manager ticks observed, want a run of them", len(perTick))
	}
}
