package pipeline

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"ffsva/internal/device"
	"ffsva/internal/metrics"
	"ffsva/internal/queue"
)

// QueueSnapshot is one queue's uniform observability view.
type QueueSnapshot struct {
	Name        string `json:"name"`
	Depth       int    `json:"depth"`
	Cap         int    `json:"cap"`
	Puts        int64  `json:"puts"`
	Gets        int64  `json:"gets"`
	MaxDepth    int    `json:"max_depth"`
	BlockedPuts int64  `json:"blocked_puts"`
	ClosedPuts  int64  `json:"closed_puts"`
	Closed      bool   `json:"closed"`
}

func qsnap(name string, s queue.Stats) QueueSnapshot {
	return QueueSnapshot{
		Name: name, Depth: s.Depth, Cap: s.Cap,
		Puts: s.Puts, Gets: s.Gets, MaxDepth: s.MaxDepth,
		BlockedPuts: s.BlockedPuts, ClosedPuts: s.ClosedPuts, Closed: s.Closed,
	}
}

// StreamSnapshot is one stream's live state: ingest progress, queue
// depths and feedback counts, and decided frames by disposition.
type StreamSnapshot struct {
	ID       int   `json:"id"`
	Frames   int   `json:"frames"`
	Ingested int64 `json:"ingested"`
	// Decided is the number of frames with a final disposition; Ingested
	// minus Decided is the stream's in-flight population.
	Decided int64 `json:"decided"`
	// Drops indexes by Disposition: drop-sdd, drop-snm, drop-t-yolo,
	// detected, drop-closed, drop-error, drop-shed, drop-admission.
	Drops      [NumDispositions]int64 `json:"drops"`
	IngestDone bool                   `json:"ingest_done"`
	Stopped    bool                   `json:"stopped"`
	// CurLag is the most recent lateness against the capture schedule
	// (zero once ingest completes); MaxLag the worst seen.
	CurLag time.Duration `json:"cur_lag"`
	MaxLag time.Duration `json:"max_lag"`
	// Backlog is the capture-buffer depth plus spilled frames — the
	// overload signal in frames; Backlog/FPS is seconds behind.
	Backlog      int           `json:"backlog"`
	SpillPending int           `json:"spill_pending"`
	Spilled      int64         `json:"spilled"`
	SDDQ         QueueSnapshot `json:"sdd_q"`
	SNMQ         QueueSnapshot `json:"snm_q"`
	TYQ          QueueSnapshot `json:"ty_q"`
}

// DeviceSnapshot is one device's live accounting.
type DeviceSnapshot struct {
	Name  string        `json:"name"`
	Kind  string        `json:"kind"`
	InUse int           `json:"in_use"`
	Slots int           `json:"slots"`
	Busy  time.Duration `json:"busy"`
	// BusyFraction is busy time over capacity × elapsed run time.
	BusyFraction float64 `json:"busy_fraction"`
	Served       int64   `json:"served"`
	Switches     int64   `json:"switches"`
}

// Snapshot is a live, consistent-enough view of a running System: every
// control signal the paper's mechanisms depend on — feedback-queue
// depths and blocked puts (§4.3.1), the T-YOLO rate behind the 140 FPS
// spare-capacity signal, ingest lag and backlog behind the overload
// signal, SNM batch-size distribution (§4.3.2), and device busy
// fractions — in one structure. The cluster manager and the periodic
// monitor both consume it.
//
// A Snapshot's slices and the entries Streams points to are published
// parts: later snapshots of the same System share every part that has
// not changed since, so they are read-only to everyone, the System
// included. Copy before modifying.
type Snapshot struct {
	At          time.Duration `json:"at"`
	Mode        string        `json:"mode"`
	BatchPolicy string        `json:"batch_policy"`
	Finished    bool          `json:"finished"`
	// Crashed marks a dead instance (fault injection): its heartbeat is
	// frozen and in-flight frames drain to DropError.
	Crashed bool `json:"crashed,omitempty"`
	// Heartbeat is the instance's last liveness stamp (zero until the
	// heartbeat process first runs). The /healthz endpoint compares it
	// against At to detect a stalled instance.
	Heartbeat time.Duration `json:"heartbeat,omitempty"`
	// HeartbeatEvery echoes the configured heartbeat interval so health
	// checks know what staleness to tolerate (zero: no heartbeat runs).
	HeartbeatEvery time.Duration `json:"heartbeat_every,omitempty"`

	// Totals across streams.
	Ingested int64                  `json:"ingested"`
	Decided  int64                  `json:"decided"`
	InFlight int64                  `json:"in_flight"`
	Drops    [NumDispositions]int64 `json:"drops"`
	// Orphaned counts frames that reached the reference stage without an
	// owning stream (should stay zero).
	Orphaned int64 `json:"orphaned"`
	// RefCanvases counts consolidated canvases sent to the reference
	// model (zero unless Config.Consolidate).
	RefCanvases int64 `json:"ref_canvases,omitempty"`

	// Control signals (paper §4.3).
	TYoloRate    float64       `json:"tyolo_fps"`
	WorstLag     time.Duration `json:"worst_lag"`
	WorstBacklog int           `json:"worst_backlog"`
	Overloaded   bool          `json:"overloaded"`
	LiveStreams  int           `json:"live_streams"`

	// SNM batch-size distribution (counts indexed by batch size).
	SNMBatchCount int64   `json:"snm_batch_count"`
	SNMBatchMean  float64 `json:"snm_batch_mean"`
	SNMBatchMax   int     `json:"snm_batch_max"`
	SNMBatchDist  []int64 `json:"snm_batch_dist,omitempty"`

	Streams []*StreamSnapshot `json:"streams"`
	RefQ    QueueSnapshot     `json:"ref_q"`
	Devices []DeviceSnapshot  `json:"devices"`

	// Metrics is the registry export (counters, distributions, meters,
	// histogram summaries) at snapshot time.
	Metrics []metrics.Sample `json:"metrics,omitempty"`
}

// published holds the parts the System's last Snapshot handed out; the
// next Snapshot shares each one that has not changed.
type published struct {
	streams []*StreamSnapshot
	dist    []int64
	devices []DeviceSnapshot
	// scratch is where Snapshot assembles the device views before
	// comparing them with devices.
	scratch []DeviceSnapshot
}

// Snapshot samples the system's live state. Any clock process (the
// cluster manager, the periodic monitor) may call it while stages run.
// It allocates only for what changed since the previous Snapshot: an
// unchanged stream keeps its published entry, and an unchanged stream
// list, batch distribution, device list or metrics export keeps its
// published slice.
func (s *System) Snapshot() Snapshot {
	now := s.cfg.Clock.Now()
	sn := Snapshot{
		At:             now,
		Mode:           s.cfg.Mode.String(),
		BatchPolicy:    s.cfg.BatchPolicy.String(),
		Finished:       s.Finished(),
		Crashed:        s.Crashed(),
		Heartbeat:      s.Heartbeat(),
		HeartbeatEvery: s.cfg.HeartbeatEvery,
	}
	sn.Streams = s.publishStreams()
	for _, ss := range sn.Streams {
		sn.Ingested += ss.Ingested
		sn.Decided += ss.Decided
		for d, n := range ss.Drops {
			sn.Drops[d] += n
		}
		if !ss.IngestDone && !ss.Stopped {
			sn.LiveStreams++
			if ss.CurLag > sn.WorstLag {
				sn.WorstLag = ss.CurLag
			}
		}
		if ss.Backlog > sn.WorstBacklog {
			sn.WorstBacklog = ss.Backlog
		}
		if ss.SNMQ.Depth >= ss.SNMQ.Cap || ss.TYQ.Depth >= ss.TYQ.Cap {
			sn.Overloaded = true
		}
	}
	sn.InFlight = sn.Ingested - sn.Decided
	sn.Orphaned = s.orphanCtr.Value()
	sn.RefCanvases = s.canvasCtr.Value()
	sn.RefQ = qsnap(s.refQ.Name(), s.refQ.Stats())
	sn.TYoloRate = s.tyMeter.Rate(now)
	sn.SNMBatchCount = s.snmBatch.Count()
	sn.SNMBatchMean = s.snmBatch.Mean()
	sn.SNMBatchMax = s.snmBatch.Max()
	s.pub.dist = s.snmBatch.Counts(s.pub.dist)
	sn.SNMBatchDist = s.pub.dist

	elapsed := now - s.start
	devs := append(s.pub.scratch[:0], devSnap(s.cpu, elapsed))
	for _, g := range s.filterGPUs {
		devs = append(devs, devSnap(g, elapsed))
	}
	devs = append(devs, devSnap(s.gpu1, elapsed))
	if s.disk != nil {
		devs = append(devs, devSnap(s.disk, elapsed))
	}
	s.pub.scratch = devs
	if !slices.Equal(devs, s.pub.devices) {
		s.pub.devices = slices.Clone(devs)
	}
	sn.Devices = s.pub.devices
	sn.Metrics = s.reg.Export(now)
	return sn
}

// publishStreams returns the Streams of a new Snapshot: the last
// published slice itself while no stream has a new entry, otherwise a
// new slice sharing every unchanged entry. Streams are only ever
// appended, so the last slice is a prefix of the current stream list.
func (s *System) publishStreams() []*StreamSnapshot {
	prev := s.pub.streams
	var out []*StreamSnapshot
	for i, st := range s.streams {
		ss := s.publishStream(st)
		if out == nil {
			if i < len(prev) && prev[i] == ss {
				continue
			}
			out = make([]*StreamSnapshot, len(s.streams))
			copy(out, prev[:i])
		}
		out[i] = ss
	}
	if out == nil {
		return prev
	}
	s.pub.streams = out
	return out
}

// publishStream returns the stream's entry for a new Snapshot: the
// last published one while it still equals the live state, otherwise a
// new one, which becomes the published entry. A published entry is
// never written again. Once it shows the stream settled (see
// StreamSnapshot.settled) only Stopped can still move, so the live
// state is not even recomputed until StopStream or CancelAll flips it.
func (s *System) publishStream(st *streamState) *StreamSnapshot {
	if p := st.pub; p != nil && p.settled() && p.Stopped == st.stop {
		return p
	}
	var live StreamSnapshot
	s.streamSnapshot(st, &live)
	if st.pub == nil || *st.pub != live {
		st.pub = new(StreamSnapshot) // live stays on the stack
		*st.pub = live
	}
	return st.pub
}

// streamSnapshot fills ss with the stream's live state.
func (s *System) streamSnapshot(st *streamState, ss *StreamSnapshot) {
	*ss = StreamSnapshot{
		ID: st.spec.ID, Frames: st.spec.Frames,
		Ingested: st.ingested, Drops: st.counts,
		CurLag: st.curLag, MaxLag: st.ingestLag,
		IngestDone: st.ingestDone, Stopped: st.stop,
	}
	for _, n := range ss.Drops {
		ss.Decided += n
	}
	ss.SDDQ = qsnap(st.sddQ.Name(), st.sddQ.Stats())
	ss.SNMQ = qsnap(st.snmQ.Name(), st.snmQ.Stats())
	ss.TYQ = qsnap(st.tyQ.Name(), st.tyQ.Stats())
	if st.spill != nil {
		ss.SpillPending = st.spill.Pending()
		ss.Spilled = st.spill.Stats().Writes
	}
	ss.Backlog = ss.SDDQ.Depth + ss.SpillPending
}

// settled reports whether the stream can no longer change: ingest is
// over, every queue is closed and empty (so all three stage processes
// have exited and nothing waits for T-YOLO), nothing is left in the
// spill store and every ingested frame has its disposition (so nothing
// is in the reference queue either). Only Stopped can still flip.
func (ss *StreamSnapshot) settled() bool {
	drained := func(q *QueueSnapshot) bool { return q.Closed && q.Depth == 0 }
	return ss.IngestDone && ss.Decided == ss.Ingested && ss.SpillPending == 0 &&
		drained(&ss.SDDQ) && drained(&ss.SNMQ) && drained(&ss.TYQ)
}

// devSnap builds a device view; it lives here (not in package device) so
// the busy-fraction denominator is the system's elapsed run time.
func devSnap(d *device.Device, elapsed time.Duration) DeviceSnapshot {
	st := d.Stats()
	ds := DeviceSnapshot{
		Name: d.Name, Kind: d.Kind.String(),
		InUse: st.InUse, Slots: st.Slots,
		Busy: st.Busy, Served: st.Served, Switches: st.Switches,
	}
	if elapsed > 0 && st.Slots > 0 {
		ds.BusyFraction = float64(st.Busy) / (float64(st.Slots) * float64(elapsed))
	}
	return ds
}

// Monitor registers a periodic observer process on the system's clock:
// every interval it takes a Snapshot and hands it to fn, until the
// system finishes (the final sample observes the finished state). It
// must be called before the clock runs the world.
func (s *System) Monitor(every time.Duration, fn func(Snapshot)) {
	if every <= 0 {
		panic("pipeline: Monitor requires a positive interval")
	}
	s.cfg.Clock.Go("monitor", func() {
		for {
			s.cfg.Clock.Sleep(every)
			sn := s.Snapshot()
			fn(sn)
			if sn.Finished {
				return
			}
		}
	})
}

// JSON renders the snapshot as one JSON line (durations in nanoseconds).
func (sn Snapshot) JSON() string {
	b, err := json.Marshal(sn)
	if err != nil {
		return fmt.Sprintf(`{"error":%q}`, err.Error())
	}
	return string(b)
}

// String renders a compact multi-line text dump for the -metrics flag.
func (sn Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v %s/%s ingested=%d decided=%d inflight=%d live=%d",
		sn.At.Round(time.Millisecond), sn.Mode, sn.BatchPolicy,
		sn.Ingested, sn.Decided, sn.InFlight, sn.LiveStreams)
	if sn.Finished {
		b.WriteString(" finished")
	}
	if sn.Crashed {
		b.WriteString(" CRASHED")
	}
	fmt.Fprintf(&b, "\n  signals: t-yolo=%.1ffps lag=%v backlog=%d overloaded=%v",
		sn.TYoloRate, sn.WorstLag.Round(time.Millisecond), sn.WorstBacklog, sn.Overloaded)
	fmt.Fprintf(&b, "\n  drops: sdd=%d snm=%d t-yolo=%d detected=%d closed=%d error=%d shed=%d admission=%d orphaned=%d",
		sn.Drops[DropSDD], sn.Drops[DropSNM], sn.Drops[DropTYolo],
		sn.Drops[Detected], sn.Drops[DropClosed], sn.Drops[DropError],
		sn.Drops[DropShed], sn.Drops[DropAdmission], sn.Orphaned)
	fmt.Fprintf(&b, "\n  snm batches: n=%d mean=%.1f max=%d", sn.SNMBatchCount, sn.SNMBatchMean, sn.SNMBatchMax)
	b.WriteString("\n  devices:")
	for _, d := range sn.Devices {
		fmt.Fprintf(&b, " %s=%.0f%%(%d/%d)", d.Name, 100*d.BusyFraction, d.InUse, d.Slots)
	}
	for _, ss := range sn.Streams {
		fmt.Fprintf(&b, "\n  stream %d: %d/%d in %d/%d decided, q sdd=%d/%d snm=%d/%d ty=%d/%d blocked=%d lag=%v",
			ss.ID, ss.Ingested, ss.Frames, ss.Decided, ss.Ingested,
			ss.SDDQ.Depth, ss.SDDQ.Cap, ss.SNMQ.Depth, ss.SNMQ.Cap, ss.TYQ.Depth, ss.TYQ.Cap,
			ss.SDDQ.BlockedPuts+ss.SNMQ.BlockedPuts+ss.TYQ.BlockedPuts,
			ss.CurLag.Round(time.Millisecond))
		if ss.Spilled > 0 {
			fmt.Fprintf(&b, " spilled=%d(pending %d)", ss.Spilled, ss.SpillPending)
		}
	}
	fmt.Fprintf(&b, "\n  ref q: %d/%d (blocked=%d)", sn.RefQ.Depth, sn.RefQ.Cap, sn.RefQ.BlockedPuts)
	return b.String()
}
