package timeline

import (
	"testing"
	"time"

	"ffsva/internal/pipeline"
	"ffsva/internal/trace"
)

// attribSnap builds a snapshot where the reference GPU (the last
// gpu-kind device) is saturated and the reference queue is deep, so
// attribution should name the reference tier even without span data.
func attribSnap(at time.Duration, refBusy, filterBusy time.Duration, refDepth int) pipeline.Snapshot {
	return pipeline.Snapshot{
		At:       at,
		Ingested: int64(at / (10 * time.Millisecond)),
		Streams: []*pipeline.StreamSnapshot{
			{ID: 0,
				SDDQ: pipeline.QueueSnapshot{Depth: 0, Cap: 10},
				SNMQ: pipeline.QueueSnapshot{Depth: 1, Cap: 10},
				TYQ:  pipeline.QueueSnapshot{Depth: 0, Cap: 4}},
		},
		RefQ: pipeline.QueueSnapshot{Depth: refDepth, Cap: 16},
		Devices: []pipeline.DeviceSnapshot{
			{Name: "cpu", Kind: "cpu", Slots: 4, Busy: at / 10},
			{Name: "gpu0", Kind: "gpu", Slots: 1, Busy: filterBusy},
			{Name: "gpu1", Kind: "gpu", Slots: 1, Busy: refBusy},
		},
	}
}

// TestAttributeDeviceFallback drives the no-tracer path: with span
// loads absent, utilization falls back to the snapshot's device busy
// deltas, and a saturated reference GPU with a deep reference queue
// must rank the reference tier first.
func TestAttributeDeviceFallback(t *testing.T) {
	r := New(Options{})
	// Over 1s..3s, gpu1 (reference) is ~95% busy, gpu0 ~20%, cpu ~10%.
	r.Observe(0, attribSnap(1*time.Second, 900*time.Millisecond, 200*time.Millisecond, 12))
	r.Observe(0, attribSnap(2*time.Second, 1850*time.Millisecond, 400*time.Millisecond, 14))
	r.Observe(0, attribSnap(3*time.Second, 2800*time.Millisecond, 600*time.Millisecond, 13))

	v := r.Attribute(-1, 0, 0)
	if v.Ticks != 3 {
		t.Fatalf("window covered %d ticks, want 3", v.Ticks)
	}
	if v.Binding != TierReference {
		t.Fatalf("binding = %q, want %q; tiers: %+v", v.Binding, TierReference, v.Tiers)
	}
	top := v.Tiers[0]
	if top.Device != "gpu1" {
		t.Errorf("reference tier charged to %q, want gpu1", top.Device)
	}
	if top.Utilization < 0.9 || top.Utilization > 1.0 {
		t.Errorf("reference utilization = %.2f, want ~0.95", top.Utilization)
	}
	if top.QueueFill < 0.7 {
		t.Errorf("reference queue fill = %.2f, want > 0.7 (depths 12/14/13 of 16)", top.QueueFill)
	}
	// SNM and T-YOLO share the filter GPU and inherit its busy fraction
	// under the fallback; both must score below reference here.
	for _, tv := range v.Tiers[1:] {
		if tv.Score >= top.Score {
			t.Errorf("tier %s score %.2f >= reference %.2f", tv.Tier, tv.Score, top.Score)
		}
	}
}

// TestAttributeSpanLoads drives the traced path: synthetic span loads
// make SNM the busy tier while the devices say otherwise, proving span
// data takes precedence over the device fallback.
func TestAttributeSpanLoads(t *testing.T) {
	tr := trace.New(trace.Options{})
	r := New(Options{Tracer: tr})

	// First tick: no spans yet.
	r.Observe(0, attribSnap(1*time.Second, 100*time.Millisecond, 100*time.Millisecond, 0))
	// Record frames whose SNM inference dominates: 0.9s of KSNMInfer
	// busy on the window's 1s, against tiny decode/reference spans.
	for i := 0; i < 9; i++ {
		at := time.Second + time.Duration(i)*100*time.Millisecond
		ft := tr.StartFrame(0, int64(i), 0, at)
		ft.AddSpan(trace.KDecode, at, at+2*time.Millisecond, "cpu", 1)
		ft.AddSpan(trace.KSNMInfer, at+2*time.Millisecond, at+102*time.Millisecond, "gpu0", 1)
		tr.Finish(ft, "detected", false, at+102*time.Millisecond)
	}
	r.Observe(0, attribSnap(2*time.Second, 200*time.Millisecond, 200*time.Millisecond, 0))

	v := r.Attribute(0, 0, 0)
	if v.Binding != TierSNM {
		t.Fatalf("binding = %q, want %q; tiers: %+v", v.Binding, TierSNM, v.Tiers)
	}
	top := v.Tiers[0]
	if top.Utilization < 0.8 {
		t.Errorf("snm utilization = %.2f, want ~0.9 from span loads", top.Utilization)
	}
	if top.Device != "gpu0" {
		t.Errorf("snm charged to %q, want gpu0 (the filter GPU)", top.Device)
	}
}

// TestAttributeIdleWindow checks an idle window yields "none" instead
// of a spurious verdict, and that Summary renders both shapes.
func TestAttributeIdleWindow(t *testing.T) {
	r := New(Options{})
	r.Observe(0, attribSnap(1*time.Second, 0, 0, 0))
	if v := r.Attribute(-1, 0, 0); v.Binding != "none" {
		t.Fatalf("single-tick window bound %q, want none", v.Binding)
	}
	// Two ticks with zero deltas: still idle.
	sn := attribSnap(2*time.Second, 0, 0, 0)
	sn.Ingested = int64(time.Second / (10 * time.Millisecond)) // no progress
	r.Observe(0, sn)
	v := r.Attribute(-1, 0, 0)
	if v.Binding != "none" {
		t.Fatalf("idle window bound %q, want none; tiers %+v", v.Binding, v.Tiers)
	}
	if s := v.Summary(); s != "binding constraint: none (window too small or idle)" {
		t.Fatalf("idle summary = %q", s)
	}
	// A loaded window's summary names the tier and its evidence.
	r2 := New(Options{})
	r2.Observe(0, attribSnap(1*time.Second, 900*time.Millisecond, 0, 12))
	r2.Observe(0, attribSnap(2*time.Second, 1850*time.Millisecond, 0, 14))
	got := r2.Attribute(-1, 0, 0).Summary()
	want := "binding constraint: reference (score 0.64: util 0.95 on gpu1, queue 81% full, wait-share 0.00)"
	if got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
}
