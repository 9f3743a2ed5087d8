package trace

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ms is test shorthand for a virtual-clock reading.
func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestNilTracerIsFree proves the disabled path end to end: a nil Tracer
// hands out nil FrameTraces, and every method on the nil record — and on
// the zero SpanHandle it returns — is a no-op rather than a panic.
func TestNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	ft := tr.StartFrame(0, 1, 0, ms(0))
	if ft != nil {
		t.Fatalf("nil tracer produced a live FrameTrace")
	}
	ft.BeginWait(KWaitSDD, ms(1))
	ft.EndWait(ms(2))
	ft.AddSpan(KSNMInfer, ms(2), ms(3), "gpu0", 4)
	ft.MarkDrop()
	sp := ft.StartSpan(KSDD, "cpu", ms(3))
	sp.End(ms(4))
	sp.EndDrop(ms(4))
	if got := ft.Latency(); got != 0 {
		t.Fatalf("nil FrameTrace latency = %v", got)
	}
	tr.Finish(ft, "detected", false, ms(5))
	tr.Instant("x", "y", 0, ms(5))
	if n := tr.FinishedFrames(); n != 0 {
		t.Fatalf("nil tracer finished %d frames", n)
	}
	if d := tr.Decomposition(-1); d != nil {
		t.Fatalf("nil tracer decomposition = %v", d)
	}
}

// finishOne runs a minimal frame through tr with the given latency and
// disposition.
func finishOne(tr *Tracer, seq int64, latency time.Duration, disposition string, failed bool) {
	ft := tr.StartFrame(0, seq, 0, ms(0))
	sp := ft.StartSpan(KSDD, "cpu", ms(0))
	sp.End(latency)
	tr.Finish(ft, disposition, failed, latency)
}

// TestRetentionRing proves the ring keeps exactly the last ringSize
// frames once head sampling is exhausted, recycling the evicted records.
func TestRetentionRing(t *testing.T) {
	tr := New(Options{})
	const n = headN + ringSize + 20
	for i := int64(0); i < n; i++ {
		finishOne(tr, i, ms(1), "detected", false)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.head) != headN || tr.head[0].Seq != 0 || tr.head[headN-1].Seq != headN-1 {
		t.Fatalf("head kept %d frames, want seqs 0..%d", len(tr.head), headN-1)
	}
	if len(tr.ring) != ringSize {
		t.Fatalf("ring holds %d frames, want %d", len(tr.ring), ringSize)
	}
	got := map[int64]bool{}
	for _, ft := range tr.ring {
		got[ft.Seq] = true
	}
	for seq := int64(n - ringSize); seq < n; seq++ {
		if !got[seq] {
			t.Fatalf("ring lost recent frame %d", seq)
		}
	}
	// Each frame past the head's evicts one no other sampler keeps; the
	// next StartFrame reuses it, so exactly the last one is filed.
	if len(tr.free) != 1 || tr.free[0].refs != 0 {
		t.Fatalf("free list holds %d records after eviction, want 1 with no references", len(tr.free))
	}
}

// TestRetentionSlowKeepsTail proves the slow sampler retains the
// slowest frames seen, not the most recent ones.
func TestRetentionSlowKeepsTail(t *testing.T) {
	tr := New(Options{})
	finishOne(tr, 0, ms(50), "detected", false) // slow: must survive
	for i := int64(1); i < 2*slowN; i++ {
		finishOne(tr, i, ms(1), "detected", false)
	}
	finishOne(tr, 2*slowN, ms(30), "detected", false)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.slow) != slowN {
		t.Fatalf("slow holds %d frames, want %d", len(tr.slow), slowN)
	}
	lat := map[time.Duration]int{}
	for _, ft := range tr.slow {
		lat[ft.Latency()]++
	}
	if lat[ms(50)] != 1 || lat[ms(30)] != 1 || lat[ms(1)] != slowN-2 {
		t.Fatalf("slow kept latencies %v, want 50ms and 30ms once and 1ms %d times", lat, slowN-2)
	}
}

// TestRetentionErrRing proves dropped and failed frames land in the
// error ring while clean detections do not, and that the ring keeps the
// most recent errRingSize of them.
func TestRetentionErrRing(t *testing.T) {
	tr := New(Options{})
	finishOne(tr, 0, ms(1), "detected", false)
	finishOne(tr, 1, ms(1), "dropped-sdd", false)
	finishOne(tr, 2, ms(1), "detected", true) // failed detection still errs
	tr.mu.Lock()
	if len(tr.errs) != 2 {
		t.Fatalf("err ring holds %d frames, want 2", len(tr.errs))
	}
	if tr.errs[0].Seq != 1 || tr.errs[1].Seq != 2 {
		t.Fatalf("err ring seqs = %d,%d, want 1,2", tr.errs[0].Seq, tr.errs[1].Seq)
	}
	tr.mu.Unlock()
	const n = 3 + errRingSize
	for i := int64(3); i < n; i++ {
		finishOne(tr, i, ms(1), "dropped-snm", false)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.errs) != errRingSize {
		t.Fatalf("err ring holds %d frames, want %d", len(tr.errs), errRingSize)
	}
	for _, ft := range tr.errs {
		if ft.Seq < n-errRingSize {
			t.Fatalf("err ring kept frame %d past its eviction", ft.Seq)
		}
	}
}

// TestPoolingRecycles proves a frame no sampler wants any longer goes
// back to the pool with its refcount settled, and that recycled records
// come back clean (no stale spans) on reuse.
func TestPoolingRecycles(t *testing.T) {
	tr := New(Options{})
	// Fill the head and the ring: the next Finish evicts the oldest
	// ring frame past the head, which no sampler keeps.
	const filled = headN + ringSize
	for i := int64(0); i < filled; i++ {
		finishOne(tr, i, ms(1), "detected", false)
	}
	tr.mu.Lock()
	victim := tr.ring[tr.ringNext]
	tr.mu.Unlock()
	if victim.Seq != headN {
		t.Fatalf("next ring eviction is frame %d, want %d", victim.Seq, headN)
	}
	last := tr.StartFrame(0, filled, 0, ms(0))
	tr.Finish(last, "detected", false, ms(1))
	tr.mu.Lock()
	if len(tr.free) != 1 || tr.free[0] != victim || victim.refs != 0 {
		t.Fatalf("evicted frame %d was not filed for reuse", victim.Seq)
	}
	tr.mu.Unlock()
	// The free list belongs to the tracer, not to the collector: the
	// record survives two collections.
	runtime.GC()
	runtime.GC()
	// Pull a record back out of the pool via StartFrame: whatever comes
	// back must present as fresh.
	ft := tr.StartFrame(3, 7, 1, ms(9))
	if ft != victim {
		t.Fatal("StartFrame allocated a record with one on the free list")
	}
	if len(ft.Spans) != 0 || ft.waitActive || ft.refs != 0 {
		t.Fatalf("recycled record not reset: %+v", ft)
	}
	if ft.Stream != 3 || ft.Seq != 7 || ft.Instance != 1 || ft.Start != ms(9) {
		t.Fatalf("StartFrame identity wrong: %+v", ft)
	}
	tr.Finish(ft, "detected", false, ms(10))
	if allocs := testing.AllocsPerRun(100, func() { finishOne(tr, 1, ms(1), "detected", false) }); allocs != 0 {
		t.Fatalf("a warm traced frame allocated %v times", allocs)
	}
	// AllocsPerRun makes one warm-up call before its 100.
	const want = filled + 1 + 1 + 101
	if gets, puts := tr.PoolStats(); gets != want || puts != want {
		t.Fatalf("PoolStats() = %d gets, %d puts, want %d each", gets, puts, want)
	}
}

// TestWaitSpanLifecycle covers the wait bookkeeping: BeginWait closes a
// prior open wait, Finish closes a dangling one, and MarkDrop flags the
// last span.
func TestWaitSpanLifecycle(t *testing.T) {
	tr := New(Options{})
	ft := tr.StartFrame(0, 0, 0, ms(0))
	ft.BeginWait(KWaitSpill, ms(0))
	ft.BeginWait(KWaitSDD, ms(2)) // implicitly ends the spill wait
	ft.EndWait(ms(5))
	ft.AddSpan(KSNMInfer, ms(5), ms(8), "gpu0", 4)
	ft.MarkDrop()
	ft.BeginWait(KWaitRef, ms(8)) // left open: Finish must close it
	tr.Finish(ft, "dropped-snm", false, ms(9))

	if len(ft.Spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(ft.Spans), ft.Spans)
	}
	want := []struct {
		k     Kind
		dur   time.Duration
		drop  bool
		batch int32
	}{
		{KWaitSpill, ms(2), false, 0},
		{KWaitSDD, ms(3), false, 0},
		{KSNMInfer, ms(3), true, 4},
		{KWaitRef, ms(1), false, 0},
	}
	for i, w := range want {
		sp := ft.Spans[i]
		if sp.Kind != w.k || sp.Dur() != w.dur || sp.Drop != w.drop || sp.Batch != w.batch {
			t.Fatalf("span %d = %+v, want kind=%v dur=%v drop=%v batch=%d", i, sp, w.k, w.dur, w.drop, w.batch)
		}
	}
	if ft.Disposition != "dropped-snm" || ft.Latency() != ms(9) {
		t.Fatalf("finish stamped %q latency %v", ft.Disposition, ft.Latency())
	}
}

// TestDecomposition proves spans aggregate into per-stage stats, split
// by instance, with wait kinds flagged.
func TestDecomposition(t *testing.T) {
	tr := New(Options{})
	for i := int64(0); i < 10; i++ {
		ft := tr.StartFrame(0, i, 0, ms(0))
		ft.BeginWait(KWaitSNM, ms(0))
		ft.EndWait(ms(2))
		ft.AddSpan(KSNMInfer, ms(2), ms(6), "gpu0", 8)
		tr.Finish(ft, "detected", false, ms(6))
	}
	// One frame on another instance; instance-0 stats must not see it.
	ft := tr.StartFrame(1, 0, 1, ms(0))
	ft.AddSpan(KRef, ms(0), ms(100), "gpu1", 0)
	tr.Finish(ft, "detected", false, ms(100))

	stats := tr.Decomposition(0)
	if len(stats) != 2 {
		t.Fatalf("instance 0 has %d stages, want 2: %+v", len(stats), stats)
	}
	if stats[0].Kind != KWaitSNM || !stats[0].Wait || stats[0].Count != 10 || stats[0].Total != ms(20) {
		t.Fatalf("wait row = %+v", stats[0])
	}
	if stats[1].Kind != KSNMInfer || stats[1].Wait || stats[1].Mean != ms(4) || stats[1].Max != ms(4) {
		t.Fatalf("service row = %+v", stats[1])
	}
	all := tr.Decomposition(-1)
	if len(all) != 3 {
		t.Fatalf("aggregate has %d stages, want 3 (incl. instance 1's ref)", len(all))
	}
	if tr.FinishedFrames() != 11 {
		t.Fatalf("finished = %d, want 11", tr.FinishedFrames())
	}
}

// TestExportsValidateAndAreDeterministic builds the same trace twice
// and requires byte-identical, schema-valid output from every exporter.
func TestExportsValidateAndAreDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := New(Options{})
		for i := int64(0); i < 5; i++ {
			ft := tr.StartFrame(int(i)%2, i, 0, ms(int(i)))
			ft.BeginWait(KWaitSDD, ms(int(i)))
			ft.EndWait(ms(int(i) + 1))
			sp := ft.StartSpan(KSDD, "cpu", ms(int(i)+1))
			if i == 3 {
				sp.EndDrop(ms(int(i) + 2))
				tr.Finish(ft, "dropped-sdd", false, ms(int(i)+2))
				continue
			}
			sp.End(ms(int(i) + 2))
			tr.Finish(ft, "detected", false, ms(int(i)+2))
		}
		tr.Instant("throttle", "feedback", 0, ms(3))
		return tr
	}
	a, b := build(), build()

	var ja, jb bytes.Buffer
	if err := a.WriteTraceEvents(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteTraceEvents(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatalf("trace-event export not deterministic")
	}
	if err := Validate(ja.Bytes()); err != nil {
		t.Fatalf("export fails own validation: %v", err)
	}
	for _, want := range []string{`"ph":"X"`, `"ph":"M"`, `"ph":"i"`, "sdd-wait", "throttle"} {
		if !strings.Contains(ja.String(), want) {
			t.Fatalf("trace-event export missing %q", want)
		}
	}
	if !strings.Contains(ja.String(), `"disposition":"dropped-sdd"`) {
		t.Fatalf("trace-event export missing the dropped frame:\n%s", ja.String())
	}

	var html bytes.Buffer
	if err := a.WriteTracez(&html); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html.String(), "<html") && !strings.Contains(html.String(), "<!DOCTYPE") {
		t.Fatalf("tracez is not HTML")
	}
}

// TestValidateRejectsGarbage exercises the validator's failure paths.
func TestValidateRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"not json",
		`{"traceEvents":[]}`,
		`{"traceEvents":[{"ph":"X","name":"x"}]}`, // X without ts/dur
		// A counter sample: this package emits none, so Validate accepts none.
		`{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":1,"pid":0,"tid":1},` +
			`{"name":"c","ph":"C","ts":0,"pid":0,"tid":0,"args":{"value":1}}]}`,
	} {
		if err := Validate([]byte(bad)); err == nil {
			t.Fatalf("Validate accepted %q", bad)
		}
	}
}

// TestInstantBound proves the instant log stops at maxInstants instead
// of growing without bound.
func TestInstantBound(t *testing.T) {
	tr := New(Options{})
	for i := 0; i < maxInstants+7; i++ {
		tr.Instant("e", "c", 0, ms(i))
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.instants) != maxInstants || tr.instDrop != 7 {
		t.Fatalf("kept %d instants, dropped %d; want %d kept, 7 dropped", len(tr.instants), tr.instDrop, maxInstants)
	}
}
