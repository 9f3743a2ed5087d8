package timeline

import (
	"encoding/json"
	"testing"
	"time"

	"ffsva/internal/metrics"
	"ffsva/internal/pipeline"
	"ffsva/internal/trace"
)

// snapAt builds a minimal snapshot for tick tests.
func snapAt(at time.Duration) pipeline.Snapshot {
	return pipeline.Snapshot{
		At:       at,
		Ingested: int64(at / time.Millisecond),
		Decided:  int64(at / (2 * time.Millisecond)),
		Streams: []*pipeline.StreamSnapshot{
			{
				ID:       0,
				Ingested: int64(at / time.Millisecond),
				SDDQ:     pipeline.QueueSnapshot{Depth: 1, Cap: 10},
				SNMQ:     pipeline.QueueSnapshot{Depth: 2, Cap: 10, BlockedPuts: 3},
				TYQ:      pipeline.QueueSnapshot{Depth: 0, Cap: 2},
			},
		},
		RefQ: pipeline.QueueSnapshot{Depth: 4, Cap: 8},
		Devices: []pipeline.DeviceSnapshot{
			{Name: "cpu", Kind: "cpu", Slots: 16, Busy: at / 2, BusyFraction: 0.5},
			{Name: "gpu0", Kind: "gpu", Slots: 1, Busy: at / 4, BusyFraction: 0.25},
			{Name: "gpu1", Kind: "gpu", Slots: 1, Busy: at, BusyFraction: 1.0},
		},
	}
}

// TestRingWraparound fills the ring past capacity and checks the
// retained ticks are the newest, oldest first, with monotonic seqs.
func TestRingWraparound(t *testing.T) {
	r := New(Options{})
	const n = tickCapacity + 2
	for i := 1; i <= n; i++ {
		r.Observe(0, snapAt(time.Duration(i)*time.Second))
	}
	if got := r.TickCount(); got != n {
		t.Fatalf("TickCount = %d, want %d", got, n)
	}
	ticks := r.Query(-1, 0, 0)
	if len(ticks) != tickCapacity {
		t.Fatalf("retained %d ticks, want %d", len(ticks), tickCapacity)
	}
	for i, tk := range ticks {
		wantAt := time.Duration(i+3) * time.Second
		if tk.At != wantAt {
			t.Fatalf("tick %d At = %v, want %v", i, tk.At, wantAt)
		}
		if tk.Seq != int64(i+2) {
			t.Fatalf("tick %d Seq = %d, want %d", i, tk.Seq, i+2)
		}
	}
	// Window query trims by time.
	mid := r.Query(-1, 4*time.Second, 5*time.Second)
	if len(mid) != 2 || mid[0].At != 4*time.Second || mid[1].At != 5*time.Second {
		t.Fatalf("windowed query wrong: %+v", mid)
	}
}

// TestTickSampling checks one tick captures queue occupancy by tier,
// device accounting, and the fault metrics parsed from the snapshot's
// registry samples.
func TestTickSampling(t *testing.T) {
	r := New(Options{})
	sn := snapAt(2 * time.Second)
	sn.Metrics = []metrics.Sample{
		{Name: "retries_total", Kind: "counter", Value: 7},
		{Name: "faults_injected_total", Kind: "counter", Value: 2},
		{Name: "shed_frames_total", Kind: "counter", Value: 11},
		{Name: "unrelated", Kind: "gauge", Value: 99},
	}
	r.Observe(0, sn)
	tk := r.Query(0, 0, 0)[0]
	if tk.SNMQ.Depth != 2 || tk.SNMQ.Blocked != 3 || tk.RefQ.Depth != 4 || tk.RefQ.Cap != 8 {
		t.Fatalf("queue sampling wrong: %+v", tk)
	}
	if len(tk.Devices) != 3 || tk.Devices[2].Name != "gpu1" || tk.Devices[2].Busy != 2*time.Second {
		t.Fatalf("device sampling wrong: %+v", tk.Devices)
	}
	if tk.Retries != 7 || tk.FaultsInjected != 2 || tk.ShedFrames != 11 {
		t.Fatalf("fault metrics not parsed: %+v", tk)
	}
}

func TestEventLogBounded(t *testing.T) {
	r := New(Options{})
	for i := 0; i < maxEvents+3; i++ {
		r.RecordEvent(Event{Name: "e", Cat: "feedback", At: time.Duration(i) * time.Second})
	}
	doc := r.Window(-1, 0, 0)
	if len(doc.Events) != maxEvents || doc.DroppedEvents != 3 {
		t.Fatalf("event log: %d kept, %d dropped; want %d/3", len(doc.Events), doc.DroppedEvents, maxEvents)
	}
}

// TestOverloadLatch checks a false->true overload transition records
// one event (not one per overloaded tick).
func TestOverloadLatch(t *testing.T) {
	r := New(Options{})
	sn := snapAt(time.Second)
	r.Observe(0, sn)
	sn.Overloaded = true
	sn.At = 2 * time.Second
	r.Observe(0, sn)
	sn.At = 3 * time.Second
	r.Observe(0, sn) // still overloaded: no second event
	sn.Overloaded = false
	sn.At = 4 * time.Second
	r.Observe(0, sn)
	sn.Overloaded = true
	sn.At = 5 * time.Second
	r.Observe(0, sn) // re-engaged: second event
	evs := r.EventLog(-1, 0, 0)
	var overloads []Event
	for _, ev := range evs {
		if ev.Cat == "overload" {
			overloads = append(overloads, ev)
		}
	}
	if len(overloads) != 2 || overloads[0].At != 2*time.Second || overloads[1].At != 5*time.Second {
		t.Fatalf("overload events wrong: %+v", overloads)
	}
}

// TestTracerEventsFlowIn binds a tracer and checks instants become
// timeline events.
func TestTracerEventsFlowIn(t *testing.T) {
	tr := trace.New(trace.Options{})
	r := New(Options{Tracer: tr})
	tr.Instant("decode fault stream 0", "fault", 0, 700*time.Millisecond)
	evs := r.EventLog(0, 0, 0)
	if len(evs) != 1 || evs[0].Cat != "fault" || evs[0].At != 700*time.Millisecond {
		t.Fatalf("tracer instant did not reach the timeline: %+v", evs)
	}
}

// TestWindowDocDeterministic serializes the same recorded state twice
// and checks the JSON is byte-identical (the /timeline contract).
func TestWindowDocDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := New(Options{})
		for i := 1; i <= 3; i++ {
			r.Observe(0, snapAt(time.Duration(i)*time.Second))
		}
		r.RecordEvent(Event{Name: "x", Cat: "feedback", At: time.Second})
		return r
	}
	a, err := json.Marshal(build().Window(-1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build().Window(-1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("WindowDoc JSON differs across identical recorders:\n%s\n%s", a, b)
	}
}
