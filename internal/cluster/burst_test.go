package cluster

import (
	"testing"
	"time"

	"ffsva/internal/device"
	"ffsva/internal/faults"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

// burstRun admits seven streams at t=0 onto three instances whose
// reference model is TestReforwardUnderOverload's slow one, so the burst
// overloads an instance and a stream is re-forwarded; instance 2 crashes
// at 6 s and its streams are recovered. onSnapshot, when non-nil,
// receives every sample the manager hands its observers.
func burstRun(t *testing.T, onSnapshot func(int, pipeline.Snapshot)) *Report {
	t.Helper()
	cam, err := lab.CarCamera(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(vclock.NewVirtual(), 3)
	cfg.Horizon = 30 * time.Second
	costs := device.Calibrated()
	c := costs[device.ModelRef]
	c.PerFrame = 55 * time.Millisecond
	costs[device.ModelRef] = c
	cfg.Pipeline.Costs = costs
	cfg.Faults = []faults.Fault{{Kind: faults.InstanceCrash, Instance: 2, From: 6 * time.Second}}
	cfg.OnSnapshot = onSnapshot
	return New(cfg, arrivals(t, cam, 7, 300, 0)).Run()
}

// burstEventLog is burstRun's event log, recorded while the manager
// still re-observed every instance between same-tick admissions. A
// stream admitted at an instant has no lag, backlog or queued frame
// yet, so that second sample read the same signals as the tick's first
// and the placements cannot depend on it.
const burstEventLog = `t=0s admit stream 100 -> instance 0
t=0s admit stream 101 -> instance 1
t=0s admit stream 102 -> instance 2
t=0s admit stream 103 -> instance 0
t=0s admit stream 104 -> instance 1
t=0s admit stream 105 -> instance 2
t=0s admit stream 106 -> instance 0
t=6s reforward stream 106: instance 0 -> 1
t=8s instance 2 failed (heartbeat stale)
t=8s recover stream 102: instance 2 -> 0
t=8s recover stream 105: instance 2 -> 0
t=11s reforward stream 105: instance 0 -> 1`

// TestSameInstantBurstEventLog pins the placement of a same-instant
// burst, its overload re-forwards and its crash recovery to the event
// log recorded above.
func TestSameInstantBurstEventLog(t *testing.T) {
	rep := burstRun(t, nil)
	if rep.Reforwards() == 0 || rep.Failures() != 1 {
		t.Fatalf("%d re-forwards, %d failures; the burst must re-forward and the crash be detected:\n%s",
			rep.Reforwards(), rep.Failures(), rep.EventLog())
	}
	if got := rep.EventLog(); got != burstEventLog {
		t.Errorf("event log differs:\n%s\nwant:\n%s", got, burstEventLog)
	}
}
