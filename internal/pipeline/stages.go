package pipeline

import (
	"fmt"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/device"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/queue"
	"ffsva/internal/trace"
)

// Start launches every stage process on the configured clock. The caller
// then runs the clock (clk.Run()) and finally collects Report().
func (s *System) Start() {
	clk := s.cfg.Clock
	s.start = clk.Now()
	s.started = true
	s.liveSNM += len(s.streams)
	s.tyLive = len(s.tyNotifies)
	for _, st := range s.streams {
		s.launch(st)
	}
	for w := range s.tyNotifies {
		w := w
		clk.Go(fmt.Sprintf("t-yolo[%d]", w), func() { s.tyWorker(w) })
	}
	clk.Go("ref", s.refStage)
	if s.cfg.HeartbeatEvery > 0 {
		clk.Go("heartbeat", s.heartbeat)
	}
}

// heartbeat stamps liveness every HeartbeatEvery until the instance
// crashes or finishes. A crashed instance's stamp freezes at the crash
// time — the staleness a cluster manager's failure detection keys on.
func (s *System) heartbeat() {
	clk := s.cfg.Clock
	for !s.crashed {
		s.lastBeat = clk.Now()
		if s.finished {
			return
		}
		clk.Sleep(s.cfg.HeartbeatEvery)
	}
}

// Crash marks the instance dead at the current clock time: ingest halts
// at the next frame boundary, every in-flight frame drains to DropError
// without consuming device time, and the heartbeat freezes so a cluster
// manager can detect the death. The frame ledger survives the crash —
// Report still satisfies conservation — and StopStream still sizes
// continuations correctly, which together let cluster recovery account
// for and re-forward every stream of the dead instance.
func (s *System) Crash() { s.crashed = true }

// Crashed reports whether Crash was called.
func (s *System) Crashed() bool { return s.crashed }

// Heartbeat returns the clock time of the instance's last liveness
// stamp. Zero until the heartbeat process (Config.HeartbeatEvery) first
// runs.
func (s *System) Heartbeat() time.Duration { return s.lastBeat }

// launch spawns the per-stream stage processes.
func (s *System) launch(st *streamState) {
	clk := s.cfg.Clock
	clk.Go(fmt.Sprintf("prefetch[%d]", st.spec.ID), func() { s.prefetch(st) })
	if st.spill != nil {
		clk.Go(fmt.Sprintf("spill[%d]", st.spec.ID), func() { s.spillDrainer(st) })
	}
	clk.Go(fmt.Sprintf("sdd[%d]", st.spec.ID), func() { s.sddStage(st) })
	clk.Go(fmt.Sprintf("snm[%d]", st.spec.ID), func() { s.snmStage(st) })
}

// spillDrainer re-injects spilled frames into the capture buffer in
// order as room appears (§5.5 burst remedy), then closes the buffer.
func (s *System) spillDrainer(st *streamState) {
	for {
		f, ok := st.spill.Read()
		if !ok {
			break
		}
		s.forward(st, st.sddQ, f)
		st.spill.Delivered()
	}
	st.sddQ.Close()
}

// Hold keeps the shared stages alive while no stream is running, so a
// manager process can add streams later (cluster admission). Every Hold
// must be paired with a Release.
func (s *System) Hold() { s.liveSNM++ }

// Release undoes a Hold; when the last hold and stream finish, the shared
// stages shut down.
func (s *System) Release() { s.snmDone() }

// AddStream admits a new stream into a started system. It must be called
// from a clock process (or before Start via New's specs).
func (s *System) AddStream(spec StreamSpec) {
	st := s.newStream(spec)
	if s.liveSNM <= 0 {
		panic("pipeline: AddStream after shared stages shut down (missing Hold?)")
	}
	s.liveSNM++
	s.streams = append(s.streams, st)
	s.launch(st)
}

// StopStream halts a stream's ingest at the next frame boundary and
// returns how many frames remain unprocessed, so a cluster manager can
// re-forward the remainder to another instance. The second result is the
// stream's source, which the continuation must reuse.
func (s *System) StopStream(id int) (remaining int64, src FrameSource, nextSeq int64, ok bool) {
	for _, st := range s.streams {
		if st.spec.ID == id && !st.stop {
			st.stop = true
			remaining = int64(st.spec.Frames) - st.ingested
			nextSeq = st.spec.SeqBase + st.ingested
			return remaining, st.spec.Source, nextSeq, true
		}
	}
	return 0, nil, 0, false
}

// CancelAll halts every stream's ingest at its next frame boundary and
// marks the run cancelled. Frames already in flight drain through the
// cascade normally, so the conservation invariant (every ingested frame
// gets a final disposition) holds and the eventual Report is a valid
// partial result. Safe to call more than once; later AddStream streams
// are not affected (cluster migration decides their fate separately).
func (s *System) CancelAll() {
	for _, st := range s.streams {
		st.stop = true
	}
	s.cancelled = true
}

// Cancelled reports whether CancelAll was called.
func (s *System) Cancelled() bool { return s.cancelled }

// lookupStream finds the stream fragment owning the given source
// sequence number. A migrated continuation reuses its predecessor's id
// with a later SeqBase, so in-flight frames of the stopped fragment must
// still resolve to the fragment whose record window covers their seq —
// otherwise their records would be silently lost.
func (s *System) lookupStream(id int, seq int64) *streamState {
	var fallback *streamState
	for i := len(s.streams) - 1; i >= 0; i-- {
		st := s.streams[i]
		if st.spec.ID != id {
			continue
		}
		if idx := seq - st.spec.SeqBase; idx >= 0 && idx < int64(len(st.records)) {
			return st
		}
		if fallback == nil {
			fallback = st
		}
	}
	return fallback
}

// Run is a convenience for sole owners of the clock: Start, run the world
// to completion, and report.
func (s *System) Run() *Report {
	s.Start()
	s.cfg.Clock.Run()
	return s.Report()
}

// prefetch decodes frames from the source and feeds the SDD queue,
// pacing at capture rate in online mode. A CaptureSource's frames are
// taken undrawn; sddStage draws them.
func (s *System) prefetch(st *streamState) {
	clk := s.cfg.Clock
	if st.spec.StartAt > 0 {
		clk.Sleep(st.spec.StartAt)
	}
	interval := time.Second / time.Duration(st.spec.FPS)
	epoch := clk.Now()
	fsrc, fallible := st.spec.Source.(FallibleSource)
	for i := 0; i < st.spec.Frames; i++ {
		target := epoch + time.Duration(i)*interval
		if s.cfg.Mode == Online {
			if now := clk.Now(); now < target {
				clk.Sleep(target - now)
			}
		}
		// A stopped (migrated/cancelled) or crashed stream must not pay
		// decode for a frame it will never ingest; the authoritative
		// check below re-runs after the decode, next to the pull.
		if st.stop || s.crashed {
			break
		}
		// Decode, retrying transient failures within the budget. Every
		// attempt — failed or successful — pays the decode service time.
		decStart := clk.Now()
		lost := false
		if fallible {
			tries := 0
			for fsrc.DecodeFails() {
				s.faultCtr.Inc()
				if s.cfg.ChargeCosts {
					s.cpu.Use(device.ModelDecode, 1, s.cfg.Costs)
				}
				tries++
				if tries > decodeRetryBudget {
					lost = true
					break
				}
				s.retryCtr.Inc()
			}
			// One instant per faulted frame (not per attempt), so decode
			// faults land on the timeline and arm flight-recorder dumps
			// like every other fault class.
			if tries > 0 {
				s.cfg.Tracer.Instant(fmt.Sprintf("fault decode stream %d", st.spec.ID), "fault", s.cfg.Instance, clk.Now())
			}
		}
		if !lost && s.cfg.ChargeCosts {
			s.cpu.Use(device.ModelDecode, 1, s.cfg.Costs)
		}
		// The stop check must come with pulling the frame, after the
		// decode charge yielded: StopStream reads ingested to size the
		// continuation, so once it returns this prefetcher may not take
		// another frame — a frame ingested after a stale pre-decode check
		// would be owned by both fragments and the continuation's last
		// frame would fall outside its record window.
		if st.stop || s.crashed {
			break // stream re-forwarded elsewhere (or instance dead)
		}
		if lost {
			// Permanent decode failure: consume the frame's slot so the
			// source stays seq-aligned, and ledger it as DropError.
			seq := st.spec.SeqBase + st.ingested
			fsrc.Discard()
			if i == 0 {
				st.firstCap = clk.Now()
			}
			st.ingested++
			s.ingestCtr.Inc()
			s.finishLost(st, seq)
			continue
		}
		var f *frame.Frame
		if cs, ok := st.spec.Source.(CaptureSource); ok {
			f = cs.Capture()
		} else {
			f = st.spec.Source.Next()
		}
		f.StreamID = st.spec.ID
		f.Captured = clk.Now()
		if tr := s.cfg.Tracer; tr != nil {
			ft := tr.StartFrame(st.spec.ID, f.Seq, s.cfg.Instance, decStart)
			ft.AddSpan(trace.KDecode, decStart, f.Captured, "cpu", 0)
			f.Trace = ft
		}
		if i == 0 {
			st.firstCap = f.Captured
		}
		st.ingested++
		s.ingestCtr.Inc()
		late := clk.Now() - target
		if st.spill != nil {
			// Spill keeps ingest non-blocking: while spilled frames are
			// owed, new ones must also spill to preserve order.
			if st.spill.Pending() > 0 || !st.sddQ.TryPut(f) {
				f.Trace.BeginWait(trace.KWaitSpill, clk.Now())
				st.spill.Write(f)
			}
		} else if s.cfg.Mode == Online && s.cfg.ShedAfter > 0 && late > s.cfg.ShedAfter {
			// Load-shedding bypass: the stream has already fallen past the
			// threshold, so a full capture buffer sheds the frame instead
			// of stalling ingest — capture holds its FPS while the
			// back-end is degraded (the paper's ≥30 FPS ingest guarantee).
			if !st.sddQ.TryPut(f) {
				s.shedCtr.Inc()
				s.finish(st, f, DropShed)
			}
		} else {
			s.forward(st, st.sddQ, f)
		}
		if s.cfg.Mode == Online {
			// Lateness against the capture schedule: sustained growth
			// means the stream is no longer analyzed in real time.
			lag := clk.Now() - target
			st.curLag = lag
			if lag > st.ingestLag {
				st.ingestLag = lag
			}
		}
	}
	// Ingest is over: clear the lateness signal so a finished stream's
	// stale curLag cannot keep the instance looking overloaded forever.
	st.ingestDone = true
	st.curLag = 0
	if st.drained() {
		s.releaseDetector(st)
	}
	if st.spill != nil {
		st.spill.Close() // the drainer closes sddQ after re-injection
	} else {
		st.sddQ.Close()
	}
}

// sddStage runs the stream's difference detector on the CPU.
func (s *System) sddStage(st *streamState) {
	clk := s.cfg.Clock
	for {
		f, ok := st.sddQ.Get()
		if !ok {
			break
		}
		if s.drainCrashed(st, f) {
			continue
		}
		if f.Corrupt {
			// Damaged payload: reject before feeding the cascade garbage.
			s.faultCtr.Inc()
			s.cfg.Tracer.Instant("fault corrupt-frame", "fault", s.cfg.Instance, clk.Now())
			s.finish(st, f, DropError)
			continue
		}
		// Pixels exist from here on: every later stage reads them.
		f.Draw()
		if s.cfg.DisableSDD {
			s.forward(st, st.snmQ, f)
			continue
		}
		sp := f.Trace.StartSpan(trace.KSDD, "cpu", clk.Now())
		if s.cfg.ChargeCosts {
			s.cpu.UseResize(device.ModelSDD, 1, s.cfg.Costs)
			s.cpu.Use(device.ModelSDD, 1, s.cfg.Costs)
		}
		if st.spec.SDD.Process(f) == filters.Drop {
			sp.EndDrop(clk.Now())
			s.finish(st, f, DropSDD)
		} else {
			sp.End(clk.Now())
			s.forward(st, st.snmQ, f)
		}
	}
	st.snmQ.Close()
}

// snmStage runs the stream's specialized network on GPU-0 in batches
// formed according to the batch policy.
func (s *System) snmStage(st *streamState) {
	clk := s.cfg.Clock
	for {
		var batch []*frame.Frame
		switch s.cfg.BatchPolicy {
		case BatchDynamic:
			batch = st.snmQ.GetUpTo(s.cfg.BatchSize)
		default: // BatchStatic, BatchFeedback: wait for a full batch
			batch = st.snmQ.GetExact(s.cfg.BatchSize)
		}
		if len(batch) == 0 {
			break
		}
		if s.drainCrashed(st, batch...) {
			continue
		}
		s.snmBatch.Observe(len(batch))
		if s.cfg.DisableSNM {
			for _, f := range batch {
				s.forwardToTYolo(st, f)
			}
			continue
		}
		// Batch assembly (CPU resize of all members) and batched GPU
		// inference are timed separately so the trace splits
		// "stalled on batchmates" from "being computed".
		t0 := clk.Now()
		if s.cfg.ChargeCosts {
			s.cpu.UseResize(device.ModelSNM, len(batch), s.cfg.Costs)
		}
		t1 := clk.Now()
		if s.cfg.ChargeCosts {
			s.snmGPU(st).Use(device.ModelSNM, len(batch), s.cfg.Costs)
		}
		// One multi-sample forward for the whole batch: the network
		// computes each sample with the same per-sample loops, so the
		// verdicts match per-frame Process calls exactly while paying
		// the im2col and dispatch overhead once.
		verdicts := st.spec.SNM.ProcessBatch(batch)
		t2 := clk.Now()
		gpuName := s.snmGPU(st).Name
		for i, f := range batch {
			f.Trace.AddSpan(trace.KSNMAssemble, t0, t1, "cpu", len(batch))
			f.Trace.AddSpan(trace.KSNMInfer, t1, t2, gpuName, len(batch))
			if verdicts[i] == filters.Pass {
				s.forwardToTYolo(st, f)
			} else {
				f.Trace.MarkDrop()
				s.finish(st, f, DropSNM)
			}
		}
	}
	st.tyQ.Close()
	s.snmDone()
}

// snmGPU returns the filter GPU a stream's SNM is pinned to.
func (s *System) snmGPU(st *streamState) *device.Device {
	return s.filterGPUs[st.spec.ID%len(s.filterGPUs)]
}

// tyNotifyFor returns the wake signal of the T-YOLO worker that owns a
// stream's partition.
func (s *System) tyNotifyFor(st *streamState) *notify {
	return s.tyNotifies[st.spec.ID%len(s.tyNotifies)]
}

// snmDone closes the T-YOLO wake signals once the last SNM stage exits.
func (s *System) snmDone() {
	s.liveSNM--
	if s.liveSNM == 0 {
		for _, n := range s.tyNotifies {
			n.close()
		}
	}
}

// tyDone closes the reference queue once the last T-YOLO worker exits.
func (s *System) tyDone() {
	s.tyLive--
	if s.tyLive == 0 {
		s.refQ.Close()
	}
}

// tyWorker is one shared T-YOLO worker (one per filter GPU; the paper's
// design has exactly one): it cycles over the streams of its partition,
// draining at most NumTYolo frames from each per cycle (inter-stream
// load balancing, §4.3.1) and forwarding qualifying frames to the
// reference queue.
func (s *System) tyWorker(w int) {
	clk := s.cfg.Clock
	k := len(s.tyNotifies)
	note := s.tyNotifies[w]
	for note.wait() {
		// Streams admitted while this cycle yields wait for the next one.
		for _, st := range s.streams {
			if st.spec.ID%k != w {
				continue
			}
			var batch []*frame.Frame
			for len(batch) < s.cfg.NumTYolo {
				f, ok := st.tyQ.TryGet()
				if !ok {
					break
				}
				batch = append(batch, f)
			}
			if len(batch) == 0 {
				continue
			}
			note.sub(len(batch))
			if s.drainCrashed(st, batch...) {
				continue
			}
			t0 := clk.Now()
			if s.cfg.ChargeCosts {
				s.cpu.UseResize(device.ModelTYolo, len(batch), s.cfg.Costs)
				tyGPU := s.filterGPUs[w]
				if s.cfg.PerStreamTYolo {
					// Each stream has its own T-YOLO: loading it evicts
					// the previous stream's copy, so every batch pays
					// the (inflated) activation charge on the GPU.
					tyGPU.Invalidate()
				}
				tyGPU.Use(device.ModelTYolo, len(batch), s.cfg.Costs)
			}
			gpuName := s.filterGPUs[w].Name
			// Consecutive spans over the batch: the first member absorbs
			// the batched device charge, the rest their own Process time.
			prev := t0
			for _, f := range batch {
				var verdict filters.Verdict
				if s.cfg.Consolidate {
					// Consolidation needs T-YOLO's candidate boxes
					// downstream: attach them to passing frames.
					var cands []frame.Candidate
					verdict, cands = st.spec.TYolo.ProcessCands(f)
					if verdict == filters.Pass {
						f.Cands = cands
					}
				} else {
					verdict = st.spec.TYolo.Process(f)
				}
				now := clk.Now()
				f.Trace.AddSpan(trace.KTYoloInfer, prev, now, gpuName, len(batch))
				prev = now
				if verdict == filters.Pass {
					s.forward(st, s.refQ, f)
				} else {
					f.Trace.MarkDrop()
					s.finish(st, f, DropTYolo)
				}
			}
			s.tyMeter.Mark(clk.Now(), int64(len(batch)))
		}
	}
	s.tyDone()
}

// refStage is the reference model on its dedicated GPU-1. Each turn
// takes one frame, or one consolidation round under Config.Consolidate;
// resolveOwners retires what no stream here can take, and the rest is
// served per frame or, packed, per canvas (consolidate.go).
func (s *System) refStage() {
	for batch := s.refTake(); len(batch) > 0; batch = s.refTake() {
		live, owners := s.resolveOwners(batch)
		switch {
		case !s.cfg.Consolidate:
			for i, f := range live {
				s.serveFrame(owners[i], f)
			}
		case len(live) > 0:
			s.serveCanvases(live, owners)
		}
	}
	s.end = s.cfg.Clock.Now()
	s.finished = true
}

// refScratch is the reference stage's reusable working set, so a frame
// or a consolidation round allocates nothing once the slices have grown.
type refScratch struct {
	batch  []*frame.Frame
	owners []*streamState
	// rects are a round's crops in frame order; ends[i] is where frame
	// i's crops end.
	rects []imgproc.Rect
	ends  []int
}

// refTake blocks for the next frame. Under consolidation it gathers up
// to consolidateFrames: what is queued now and, if that comes up short,
// what arrives within one fixed consolidateWait. A single sleep (rather
// than a poll loop) keeps the round's schedule deterministic. It returns
// nothing once the queue is closed and drained.
func (s *System) refTake() []*frame.Frame {
	f, ok := s.refQ.Get()
	if !ok {
		return nil
	}
	batch := append(s.ref.batch[:0], f)
	for waited := false; s.cfg.Consolidate && len(batch) < consolidateFrames; {
		if f, ok := s.refQ.TryGet(); ok {
			batch = append(batch, f)
		} else if waited {
			break
		} else {
			s.cfg.Clock.Sleep(consolidateWait)
			waited = true
		}
	}
	s.ref.batch = batch
	return batch
}

// resolveOwners retires the frames of a batch that no stream here can
// take — orphans (their stream was retired or migrated with frames in
// flight) and, on a crashed instance, all of them — before any device
// time is charged. It returns the rest, compacted in place, with their
// owning streams.
func (s *System) resolveOwners(batch []*frame.Frame) ([]*frame.Frame, []*streamState) {
	live, owners := batch[:0], s.ref.owners[:0]
	for _, f := range batch {
		st := s.lookupStream(f.StreamID, f.Seq)
		switch {
		case st == nil:
			s.finishOrphan(f)
		case s.crashed:
			s.finish(st, f, DropError)
		default:
			live = append(live, f)
			owners = append(owners, st)
		}
	}
	s.ref.owners = owners
	return live, owners
}

// serveFrame is full-frame reference inference on one frame.
func (s *System) serveFrame(st *streamState, f *frame.Frame) {
	clk := s.cfg.Clock
	sp := f.Trace.StartSpan(trace.KRef, s.gpu1.Name, clk.Now())
	if s.cfg.ChargeCosts {
		s.gpu1.Use(device.ModelRef, 1, s.cfg.Costs)
	}
	dets := s.cfg.Ref.Detect(f)
	sp.End(clk.Now())
	count := detect.Count(dets, st.spec.Target, s.cfg.RefConf)
	s.refServed.Inc()
	s.finishCounts(st, f, Detected, count, count)
}

// finishOrphan retires a frame that reached the reference stage with no
// owning stream (its stream was retired or migrated with frames in
// flight). There is no record slot to write, but the pooled pixel plane
// must still be released and the trace must still reach the tracer's
// terminal — skipping either leaks both for every orphan. The orphan
// counter is the ledger entry that lets Report's conservation check
// explain the hole.
func (s *System) finishOrphan(f *frame.Frame) {
	s.orphanCtr.Inc()
	if ft := f.Trace; ft != nil {
		f.Trace = nil
		s.cfg.Tracer.Finish(ft, "orphaned", true, s.cfg.Clock.Now())
	}
	f.Release()
}

// Finished reports whether the reference stage has exited, i.e. no
// further frame can be decided. The periodic monitor uses it to stop.
func (s *System) Finished() bool { return s.finished }

// forward hands f to the next stage's queue, blocking at its depth
// threshold (the feedback of §4.3.1). It is the only blocking frame Put
// in the engine: a put fails only when q was closed under its producer,
// and the frame then retires as DropClosed with its drop marked. It
// reports whether q took the frame.
func (s *System) forward(st *streamState, q *queue.Queue[*frame.Frame], f *frame.Frame) bool {
	if q.Put(f) {
		return true
	}
	f.Trace.MarkDrop()
	s.finish(st, f, DropClosed)
	return false
}

// forwardToTYolo forwards f to its stream's T-YOLO queue and wakes the
// worker that owns the stream.
func (s *System) forwardToTYolo(st *streamState, f *frame.Frame) {
	if s.forward(st, st.tyQ, f) {
		s.tyNotifyFor(st).add(1)
	}
}

// drainCrashed retires frames that reached a stage of a crashed
// instance as DropError, without consuming device time, and reports
// whether it did.
func (s *System) drainCrashed(st *streamState, frames ...*frame.Frame) bool {
	if !s.crashed {
		return false
	}
	for _, f := range frames {
		s.finish(st, f, DropError)
	}
	return true
}

// finish records a dropped frame's final disposition.
func (s *System) finish(st *streamState, f *frame.Frame, d Disposition) {
	s.finishCounts(st, f, d, -1, -1)
}

// finishCounts records a frame's final disposition with the reference
// tier's two tallies: under consolidation refCount is the
// truncation-adjusted count over the packed crops and refFull the
// full-frame count, so accuracy accounting can measure what cropping
// cost.
func (s *System) finishCounts(st *streamState, f *frame.Frame, d Disposition, refCount, refFull int) {
	rec := Record{
		Done:         true,
		Seq:          f.Seq,
		Disposition:  d,
		Captured:     f.Captured,
		Decided:      s.cfg.Clock.Now(),
		TruthCount:   -1,
		RefCount:     refCount,
		RefFullCount: refFull,
	}
	if f.Truth != nil {
		rec.TruthCount = f.Truth.TargetCount(st.spec.Target)
		rec.SceneID = f.Truth.SceneID
		for _, b := range f.Truth.Boxes {
			if b.Class == st.spec.Target && b.Visible > rec.MaxVisible {
				rec.MaxVisible = b.Visible
			}
		}
	}
	s.latency.Observe(rec.Decided - rec.Captured)
	if ft := f.Trace; ft != nil {
		// finish is also the trace record's terminal point: detach it
		// before the frame is released so retention owns it exclusively.
		f.Trace = nil
		s.cfg.Tracer.Finish(ft, d.String(), d == DropError, rec.Decided)
	}
	// finish is the single terminal point of a frame's journey, so this
	// is the one place its pixel plane can go back to the frame pool
	// (a no-op for frames not built by frame.NewPooled or never drawn).
	f.Release()
	s.record(st, rec)
}

// finishLost records a frame that was consumed from the source but never
// delivered (decode failure past the retry budget) as DropError: there
// is no frame object to route or release, but the slot must still
// appear in the ledger or the conservation invariant would see a hole.
func (s *System) finishLost(st *streamState, seq int64) {
	now := s.cfg.Clock.Now()
	s.record(st, Record{
		Done: true, Seq: seq, Disposition: DropError,
		Captured: now, Decided: now,
		TruthCount: -1, RefCount: -1, RefFullCount: -1,
	})
}

// record enters a decided frame in its fragment's ledger and, at the
// fragment's last verdict, releases the stream's detector state.
func (s *System) record(st *streamState, rec Record) {
	s.dispCtr.With(rec.Disposition.String()).Inc()
	if idx := rec.Seq - st.spec.SeqBase; idx >= 0 && idx < int64(len(st.records)) {
		st.records[idx] = rec
	}
	if rec.Decided > st.lastDone {
		st.lastDone = rec.Decided
	}
	st.counts[rec.Disposition]++
	if st.drained() {
		s.releaseDetector(st)
	}
}

// drained reports whether the fragment has stopped ingesting and
// decided every frame it ingested.
func (st *streamState) drained() bool {
	if !st.ingestDone {
		return false
	}
	var decided int64
	for _, n := range st.counts {
		decided += n
	}
	return decided == st.ingested
}

// releaseDetector drops a completed stream's state from its T-YOLO
// detector at the stream's last verdict, when the fragment st has just
// drained. The stream is complete on this instance when every fragment
// of its ID here has drained and one of them ran its source dry; a
// fragment stopped with frames left continued elsewhere, and what it
// leaves behind in the detector is the cluster's to release once it
// drains. No frame of the stream is left here to detect on, so the
// state cannot come back. A detector that cannot unregister keeps it.
func (s *System) releaseDetector(st *streamState) {
	if st.spec.TYolo == nil {
		return
	}
	det, ok := st.spec.TYolo.Det.(interface{ Unregister(streamID int) })
	if !ok {
		return
	}
	id := st.spec.ID
	complete, dry := true, false
	for _, frag := range s.streams {
		if frag.spec.ID == id {
			complete = complete && frag.drained()
			dry = dry || frag.ingested == int64(frag.spec.Frames)
		}
	}
	if complete && dry {
		det.Unregister(id)
	}
}

// TYoloRate reports the shared T-YOLO stage's recent processing rate in
// FPS over the meter window; the cluster manager compares it against the
// paper's 140 FPS spare-capacity signal.
func (s *System) TYoloRate() float64 {
	return s.tyMeter.Rate(s.cfg.Clock.Now())
}

// WorstBacklog reports the deepest ingest (capture-buffer) queue across
// streams, in frames. Backlog divided by FPS is how many seconds the
// instance is running behind; a sustained multi-second backlog is the
// overload signal a cluster manager re-forwards on.
func (s *System) WorstBacklog() int {
	worst := 0
	for _, st := range s.streams {
		n := st.sddQ.Len()
		if st.spill != nil {
			n += st.spill.Pending()
		}
		if n > worst {
			worst = n
		}
	}
	return worst
}

// Overloaded reports whether any SNM or T-YOLO queue sits at its depth
// threshold — the paper's instance-overload signal (§4.3.1). Because
// queues legitimately touch their thresholds in bursts, managers should
// combine this with WorstLag for a sustained signal.
func (s *System) Overloaded() bool {
	for _, st := range s.streams {
		if st.snmQ.Full() || st.tyQ.Full() {
			return true
		}
	}
	return false
}

// WorstLag reports the worst current ingest lateness across the
// instance's online streams: the definitive "no longer real-time"
// signal a cluster manager acts on. Streams that have finished ingesting
// (or were stopped) are excluded — a completed stream's stale lateness
// must not keep the instance looking overloaded forever.
func (s *System) WorstLag() time.Duration {
	var worst time.Duration
	for _, st := range s.streams {
		if !st.stop && !st.ingestDone && st.curLag > worst {
			worst = st.curLag
		}
	}
	return worst
}
