// Package cluster scales FFS-VA beyond one instance, implementing the
// multi-instance behaviour the paper describes in §4.3: new streams are
// placed least-load over the paper's spare T-YOLO-rate signal, an
// overloaded instance's streams are re-forwarded — stopped at a frame
// boundary and continued on another instance — and the same
// continuation machinery recovers the streams of an instance that
// failure detection declares dead.
//
// The split: this package is the mechanism (instances, stream
// continuations, heartbeats, the event ledger); every decision is
// delegated to internal/cluster/sched, the policy component.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"ffsva/internal/cluster/sched"
	"ffsva/internal/detect"
	"ffsva/internal/faults"
	"ffsva/internal/pipeline"
	"ffsva/internal/trace"
	"ffsva/internal/vclock"
)

// The paper's fixed overload and spare-capacity signals (§4.3).
const (
	// spareTYRate is the shared T-YOLO rate (FPS) below which an
	// instance is considered to have spare capacity.
	spareTYRate = 140
	// lagThreshold is the ingest lateness above which an instance counts
	// as overloaded (combined with the queue signal).
	lagThreshold = 250 * time.Millisecond
	// backlogThreshold is the capture-buffer depth (frames) above which
	// an instance counts as overloaded: 3 s behind at 30 FPS.
	backlogThreshold = 90
)

// The manager's fixed timing.
const (
	// checkEvery is the manager's monitor period; it doubles as the
	// post-move cooldown, so a stream is never bounced twice within one
	// checkEvery window.
	checkEvery = time.Second
	// overloadChecks is how many consecutive overloaded observations
	// trigger a re-forward.
	overloadChecks = 3
	// heartbeatEvery is each instance's liveness stamp period (forwarded
	// to pipeline.Config); failTimeout is how stale a stamp may go before
	// the manager declares the instance dead and recovers all of its
	// streams.
	heartbeatEvery = 500 * time.Millisecond
	failTimeout    = 2 * time.Second
)

// Config assembles a Cluster.
type Config struct {
	Clock *vclock.VirtualClock
	// Instances is the number of FFS-VA instances (each gets the full
	// device complement: one CPU pool + two GPUs, i.e. one server).
	Instances int
	// Pipeline is the per-instance configuration template; its Clock is
	// overwritten with the cluster clock and its Mode forced Online.
	Pipeline pipeline.Config
	// Horizon is how long the manager and monitor stay alive; it must
	// cover the last arrival plus the longest stream duration.
	Horizon time.Duration
	// Faults is the cluster-wide fault-injection plan: stream-level
	// faults travel with their streams across instances, device-level
	// faults bind to Fault.Instance, and InstanceCrash faults are
	// scheduled as clock processes killing whole instances.
	Faults []faults.Fault

	// Tracer, when non-nil, records every instance's frames into one
	// shared per-frame trace. Each instance's spans carry its index, so
	// a re-forwarded stream's frames appear under both instances'
	// process tracks; manager actions (admit, reject, re-forward, fail,
	// recover) become instant events.
	Tracer *trace.Tracer
	// OnSnapshot, when non-nil, receives the one snapshot of each
	// instance that the manager takes per tick and decides from, tagged
	// with the instance index — the live observability endpoint feeds
	// from it. It runs on the manager's clock process, so it must be
	// fast and must not block.
	OnSnapshot func(instance int, sn pipeline.Snapshot)
	// OnEvent, when non-nil, receives every control-plane Event as it is
	// recorded — the timeline flight recorder feeds from it even when no
	// tracer is attached. Same contract as OnSnapshot: fast, non-blocking.
	OnEvent func(e Event)
}

// DefaultConfig returns cluster defaults per the paper's signals.
func DefaultConfig(clk *vclock.VirtualClock, instances int) Config {
	pc := pipeline.DefaultConfig(clk)
	pc.Mode = pipeline.Online
	return Config{
		Clock:     clk,
		Instances: instances,
		Pipeline:  pc,
		Horizon:   60 * time.Second,
	}
}

// Arrival is a stream joining the cluster at a point in time.
type Arrival struct {
	At time.Duration
	ID int
	// Frames is the stream's frame budget. A rejected arrival charges
	// this many frames to the DropAdmission ledger — the spec is never
	// minted — keeping cluster-wide frame conservation checkable.
	Frames int
	// Make mints the stream spec against the chosen instance's shared
	// T-YOLO detector.
	Make func(tg *detect.TinyGrid) pipeline.StreamSpec
}

// EventKind classifies manager actions.
type EventKind int

// Manager event kinds.
const (
	EventAdmit EventKind = iota
	EventReforward
	// EventFail records failure detection declaring an instance dead
	// (From is the instance; StreamID is -1).
	EventFail
	// EventRecover records one stream re-forwarded off a dead instance.
	EventRecover
	// EventReject records an arrival refused admission because no
	// instance is live.
	EventReject
)

// Event is one manager action, for the report.
type Event struct {
	Kind     EventKind
	At       time.Duration
	StreamID int
	From, To int // instance indices; From is -1 for admissions
}

// String renders the event.
func (e Event) String() string {
	at := e.At.Round(time.Millisecond)
	switch e.Kind {
	case EventAdmit:
		return fmt.Sprintf("t=%v admit stream %d -> instance %d", at, e.StreamID, e.To)
	case EventFail:
		return fmt.Sprintf("t=%v instance %d failed (heartbeat stale)", at, e.From)
	case EventRecover:
		return fmt.Sprintf("t=%v recover stream %d: instance %d -> %d", at, e.StreamID, e.From, e.To)
	case EventReject:
		return fmt.Sprintf("t=%v reject stream %d (no live instance)", at, e.StreamID)
	default:
		return fmt.Sprintf("t=%v reforward stream %d: instance %d -> %d", at, e.StreamID, e.From, e.To)
	}
}

// Rejection is one arrival refused admission, with the frame budget
// charged to DropAdmission on its behalf.
type Rejection struct {
	At       time.Duration
	StreamID int
	Frames   int
}

// Cluster is a set of FFS-VA instances under one control plane.
type Cluster struct {
	cfg      Config
	sch      *sched.Scheduler
	arrivals []Arrival

	instances []*pipeline.System
	tgs       []*detect.TinyGrid
	// injs holds each instance's fault injector (empty without a plan).
	injs []*faults.Injector

	// bookkeeping (cooperatively accessed from manager/monitor procs)
	owners map[int]int                 // live stream id -> owning instance
	specs  map[int]pipeline.StreamSpec // last spec per stream id
	over   []int                       // consecutive overload observations
	failed []bool                      // instances declared dead
	events []Event

	rejections []Rejection
	drops      [pipeline.NumDispositions]int64 // cluster-level ledger (DropAdmission)

	// completed is trackCompletions' scratch, and insts view's.
	completed []int
	insts     []sched.Instance

	// cancelled stops admission and instance ingest (context
	// cancellation); managerDone lets the context watcher exit once the
	// manager has finished, so the clock can drain.
	cancelled   bool
	managerDone bool
}

// New builds a cluster; Run executes it to completion. A non-positive
// instance count panics.
func New(cfg Config, arrivals []Arrival) *Cluster {
	if cfg.Instances <= 0 {
		panic("cluster: need at least one instance")
	}
	sch, _ := sched.New(sched.Config{Cooldown: checkEvery}) // never fails
	c := &Cluster{
		cfg:      cfg,
		sch:      sch,
		arrivals: append([]Arrival(nil), arrivals...),
		owners:   make(map[int]int),
		specs:    make(map[int]pipeline.StreamSpec),
		over:     make([]int, cfg.Instances),
		failed:   make([]bool, cfg.Instances),
		insts:    make([]sched.Instance, cfg.Instances),
	}
	sort.SliceStable(c.arrivals, func(i, j int) bool { return c.arrivals[i].At < c.arrivals[j].At })
	for i := 0; i < cfg.Instances; i++ {
		pc := cfg.Pipeline
		pc.Clock = cfg.Clock
		pc.Mode = pipeline.Online
		pc.HeartbeatEvery = heartbeatEvery
		pc.Tracer = cfg.Tracer
		pc.Instance = i
		inj := faults.NewInjector(faults.ForInstance(cfg.Faults, i))
		if len(cfg.Faults) > 0 {
			pc.AdjustService = inj.AdjustServiceTime
		}
		c.injs = append(c.injs, inj)
		c.instances = append(c.instances, pipeline.New(pc, nil))
		c.tgs = append(c.tgs, detect.NewTinyGrid(detect.DefaultTinyGridConfig()))
	}
	return c
}

// Run starts every instance, processes arrivals and monitors overload
// until the horizon, then lets the world drain and reports. It is
// RunContext with a background context.
func (c *Cluster) Run() *Report {
	return c.RunContext(context.Background())
}

// ctxPollInterval matches core's cancellation sampling period: cheap
// under the virtual clock, bounded latency under the real one.
const ctxPollInterval = 10 * time.Millisecond

// RunContext is Run with cancellation: when ctx is cancelled mid-run,
// no further arrivals are admitted, every instance's streams halt
// ingest at their next frame boundary, in-flight frames drain, and the
// Report comes back with Cancelled set. Each stream fragment still
// satisfies the frame-conservation invariant.
func (c *Cluster) RunContext(ctx context.Context) *Report {
	clk := c.cfg.Clock
	for _, inst := range c.instances {
		inst.Hold()
		inst.Start()
	}
	// Scheduled instance crashes fire as independent timer processes;
	// failure detection then notices the frozen heartbeat.
	for _, cr := range faults.Crashes(c.cfg.Faults) {
		if cr.Instance < 0 || cr.Instance >= len(c.instances) {
			continue
		}
		cr := cr
		clk.Go(fmt.Sprintf("fault-crash[%d]", cr.Instance), func() {
			clk.Sleep(cr.At)
			c.instances[cr.Instance].Crash()
		})
	}
	if ctx.Done() != nil {
		clk.Go("cluster-ctx-watch", func() {
			for !c.managerDone {
				if ctx.Err() != nil {
					c.cancel()
					return
				}
				clk.Sleep(ctxPollInterval)
			}
		})
	}
	clk.Go("cluster-manager", c.manage)
	clk.Run()
	return c.report()
}

// cancel stops admission and halts ingest on every instance.
func (c *Cluster) cancel() {
	c.cancelled = true
	for _, inst := range c.instances {
		inst.CancelAll()
	}
}

// observe samples every instance's pipeline snapshot once per manager
// tick and hands the samples to the observers; every decision of the
// tick reads them.
func (c *Cluster) observe() []pipeline.Snapshot {
	snaps := make([]pipeline.Snapshot, len(c.instances))
	for i, inst := range c.instances {
		snaps[i] = inst.Snapshot()
	}
	if c.cfg.OnSnapshot != nil {
		for i, sn := range snaps {
			c.cfg.OnSnapshot(i, sn)
		}
	}
	return snaps
}

// view assembles the scheduler's consistent observation from the
// tick's snapshots and the cluster's bookkeeping; the scheduler counts
// each instance's streams from the ownership map. The view and its
// instances are refilled by the next call, so every caller consumes
// it at once.
func (c *Cluster) view(snaps []pipeline.Snapshot) *sched.View {
	insts := c.insts
	for i := range snaps {
		insts[i] = sched.Instance{
			Index:      i,
			Live:       !c.failed[i],
			Overloaded: c.overloaded(&snaps[i]),
			Spare:      snaps[i].TYoloRate < spareTYRate,
		}
	}
	return c.sch.View(c.cfg.Clock.Now(), insts, c.owners)
}

// finish marks stream id finished or abandoned: it leaves the
// scheduler's view.
func (c *Cluster) finish(id int) {
	delete(c.owners, id)
	c.sch.Done(id)
}

// Instant maps the event to its trace-instant form: the instance track
// it lands on — the destination's for admissions, the source's for
// everything else (that is where the disruption happened), and instance
// 0's (the cluster's front door) for rejections — plus the short name.
// The timeline's event log and the trace export carry these names, so
// they are part of the observability contract.
func (e Event) Instant() (instance int, name string) {
	instance, name = e.From, ""
	switch e.Kind {
	case EventAdmit:
		instance, name = e.To, fmt.Sprintf("admit stream %d", e.StreamID)
	case EventReforward:
		name = fmt.Sprintf("reforward stream %d -> %d", e.StreamID, e.To)
	case EventFail:
		name = fmt.Sprintf("instance %d failed", e.From)
	case EventRecover:
		name = fmt.Sprintf("recover stream %d -> %d", e.StreamID, e.To)
	case EventReject:
		instance, name = 0, fmt.Sprintf("reject stream %d", e.StreamID)
	}
	return instance, name
}

// record appends a manager event, mirrors it into the trace as an
// instant event (see Event.Instant for track placement), and hands it
// to the OnEvent hook.
func (c *Cluster) record(e Event) {
	c.events = append(c.events, e)
	if fn := c.cfg.OnEvent; fn != nil {
		fn(e)
	}
	if tr := c.cfg.Tracer; tr != nil {
		inst, name := e.Instant()
		tr.Instant(name, "cluster", inst, e.At)
	}
}

// overloaded combines three snapshot signals: blocked ingest, a deep
// capture backlog, and queues pinned at their thresholds while backlog
// builds.
func (c *Cluster) overloaded(sn *pipeline.Snapshot) bool {
	if sn.WorstLag > lagThreshold {
		return true
	}
	if sn.WorstBacklog > backlogThreshold {
		return true
	}
	return sn.Overloaded && sn.WorstBacklog > backlogThreshold/3
}

// manage is the control-plane loop: one observation per tick, then — in
// order, all deciding from it — failure detection, completion
// tracking, admission and overload re-forwarding. The manager never
// yields between the observation and its last decision, and a stream
// admitted this tick has no lag, backlog or queued frame yet, so the
// sample stays current through a same-tick burst.
func (c *Cluster) manage() {
	clk := c.cfg.Clock
	next := 0
	for clk.Now() < c.cfg.Horizon {
		if c.cancelled {
			// Context cancelled: the watcher already stopped every
			// instance's ingest; stop admitting and let the world drain.
			break
		}
		snaps := c.observe()
		// Failure detection first: a dead instance must neither receive
		// arrivals nor count as a re-forward target this tick.
		for i, inst := range c.instances {
			if !c.failed[i] && clk.Now()-inst.Heartbeat() > failTimeout {
				c.fail(i, snaps)
			}
		}
		// Completion tracking: a finished stream frees its instance slot.
		c.trackCompletions(snaps)
		// Admit any due arrivals.
		for next < len(c.arrivals) && c.arrivals[next].At <= clk.Now() {
			a := c.arrivals[next]
			next++
			idx := c.sch.Admit(a.ID, c.view(snaps))
			if idx < 0 {
				c.reject(a)
				continue
			}
			spec := a.Make(c.tgs[idx])
			spec.ID = a.ID
			spec.Source = c.injs[idx].WrapSource(spec.Source, a.ID)
			c.instances[idx].AddStream(spec)
			c.owners[a.ID] = idx
			c.specs[a.ID] = spec
			c.record(Event{Kind: EventAdmit, At: clk.Now(), StreamID: a.ID, From: -1, To: idx})
		}
		// Overload monitoring and re-forwarding.
		for i := range c.instances {
			if c.failed[i] {
				continue
			}
			if !c.overloaded(&snaps[i]) {
				c.over[i] = 0
				continue
			}
			c.over[i]++
			if c.over[i] < overloadChecks {
				continue
			}
			// A lone stream stays: moving it only moves the overload.
			if v := c.view(snaps); v.Instances[i].Streams > 1 {
				if id, to := c.sch.Victim(i, v); id >= 0 && c.continueStream(id, i, to, EventReforward) {
					c.over[i] = 0
				}
			}
		}
		// Sleep to the next decision point.
		wake := clk.Now() + checkEvery
		if next < len(c.arrivals) && c.arrivals[next].At < wake {
			wake = c.arrivals[next].At
		}
		if wake > c.cfg.Horizon {
			break
		}
		clk.Sleep(wake - clk.Now())
	}
	for _, inst := range c.instances {
		inst.Release()
	}
	c.managerDone = true
}

// reject records an arrival refused because no instance is live: a
// rejection, a manager event, and the stream's whole frame budget
// charged to the DropAdmission ledger (the frames were offered and
// never ingested anywhere — without the charge they would silently
// vanish from cluster-wide conservation).
func (c *Cluster) reject(a Arrival) {
	now := c.cfg.Clock.Now()
	c.rejections = append(c.rejections, Rejection{At: now, StreamID: a.ID, Frames: a.Frames})
	c.drops[pipeline.DropAdmission] += int64(a.Frames)
	c.record(Event{Kind: EventReject, At: now, StreamID: a.ID, From: -1, To: -1})
}

// trackCompletions finishes the streams each instance's pipeline has
// completed since the last tick (pipeline.System.Completed), releasing
// their instance slot; the pipeline has already dropped
// their detector state, at their last verdict.
func (c *Cluster) trackCompletions(snaps []pipeline.Snapshot) {
	for i, inst := range c.instances {
		// A crashed instance's streams are not finished, they are waiting
		// for failure detection to recover them. Never count completions
		// there.
		if snaps[i].Crashed || c.failed[i] {
			continue
		}
		c.completed = inst.Completed(c.completed[:0])
		for _, id := range c.completed {
			c.finish(id)
		}
	}
}

// fail declares instance i dead and recovers every one of its streams:
// each is stopped (the crashed instance's ledger keeps its in-flight
// frames, draining them to DropError) and its remainder re-forwarded to
// the scheduler's recovery target via the continuation machinery.
// With no live instance left the remainders are abandoned and charged
// to DropError, lost to the crash — the cluster degrades instead of
// wedging, and its ledger still sums to the frames offered.
func (c *Cluster) fail(i int, snaps []pipeline.Snapshot) {
	c.failed[i] = true
	c.over[i] = 0
	c.record(Event{Kind: EventFail, At: c.cfg.Clock.Now(), StreamID: -1, From: i, To: -1})
	var ids []int
	for id, inst := range c.owners {
		if inst == i {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		// Recovery rebuilds the view per stream: each continuation
		// shifts the survivors' counts, and the scheduler should see it.
		to := c.sch.Recover(i, c.view(snaps))
		if to < 0 {
			remaining, _, _, _ := c.instances[i].StopStream(id)
			c.drops[pipeline.DropError] += remaining
			c.finish(id)
			continue
		}
		if !c.continueStream(id, i, to, EventRecover) {
			c.finish(id)
		}
	}
}

// continueStream stops stream victim on instance from and re-forwards
// its remainder to instance to, rebinding the counting filter to the
// target's shared T-YOLO and carrying the background model across. It
// is shared by overload re-forwarding and failure recovery, and reports
// whether a continuation was created; the ownership and spec maps are
// updated here. The stopped fragment's
// detector state on from is its pipeline's to release, once it drains.
func (c *Cluster) continueStream(victim, from, to int, kind EventKind) bool {
	remaining, src, nextSeq, ok := c.instances[from].StopStream(victim)
	if !ok || remaining <= 0 {
		return false
	}
	old := c.specs[victim]
	cont := old
	cont.Source = src
	cont.Frames = int(remaining)
	cont.SeqBase = nextSeq
	// Rebind the counting filter to the target instance's shared T-YOLO.
	ty := *old.TYolo
	ty.Det = c.tgs[to]
	cont.TYolo = &ty
	// Seed the target detector's background if the source can provide it
	// — from the viewpoint's shared plane, the one admission seeded from,
	// so a move copies nothing.
	if b := faults.SourceBackground(src); b != nil {
		c.tgs[to].SetBackground(victim, b)
	}
	c.instances[to].AddStream(cont)
	c.owners[victim] = to
	c.specs[victim] = cont
	c.sch.Moved(victim, c.cfg.Clock.Now())
	c.record(Event{Kind: kind, At: c.cfg.Clock.Now(), StreamID: victim, From: from, To: to})
	return true
}

// Report summarizes a cluster run.
type Report struct {
	Events    []Event
	Instances []*pipeline.Report
	// StreamFrames sums decided frames per original stream id across
	// instance fragments.
	StreamFrames map[int]int64
	// Rejections lists every arrival refused admission, with the frame
	// budget charged to DropAdmission on its behalf.
	Rejections []Rejection
	// Drops is the cluster-wide disposition ledger: every instance's
	// per-stream counts summed, plus DropAdmission charges for rejected
	// arrivals and DropError charges for the un-ingested remainders of
	// streams abandoned with no live instance. The total equals the
	// frames offered to the cluster.
	Drops [pipeline.NumDispositions]int64
	// Realtime reports whether every fragment held its schedule: every
	// instance report's Realtime.
	Realtime bool
	// Cancelled marks a run stopped early by context cancellation; the
	// per-instance reports cover the frames processed up to the stop.
	Cancelled bool
	// HostLag is how far the host fell behind a paced clock's schedule
	// (vclock.VirtualClock.HostLag); zero for an unpaced run.
	HostLag time.Duration
}

func (c *Cluster) report() *Report {
	r := &Report{Events: c.events, StreamFrames: make(map[int]int64), Realtime: true,
		Rejections: c.rejections, Drops: c.drops, Cancelled: c.cancelled,
		HostLag: c.cfg.Clock.HostLag()}
	for _, inst := range c.instances {
		ir := inst.Report()
		r.Instances = append(r.Instances, ir)
		r.Realtime = r.Realtime && ir.Realtime
		for _, sr := range ir.Streams {
			done := int64(0)
			for _, rec := range sr.Records {
				if rec.Done {
					done++
				}
			}
			r.StreamFrames[sr.ID] += done
			for d, n := range sr.Counts {
				r.Drops[d] += n
			}
		}
	}
	return r
}

// countEvents tallies events of one kind.
func (r *Report) countEvents(kind EventKind) int {
	n := 0
	for _, e := range r.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// Admissions counts admit events, for tests and summaries.
func (r *Report) Admissions() int { return r.countEvents(EventAdmit) }

// Reforwards counts overload re-forward events.
func (r *Report) Reforwards() int { return r.countEvents(EventReforward) }

// Failures counts instances declared dead by failure detection.
func (r *Report) Failures() int { return r.countEvents(EventFail) }

// Recoveries counts streams re-forwarded off dead instances.
func (r *Report) Recoveries() int { return r.countEvents(EventRecover) }

// Rejects counts arrivals refused admission.
func (r *Report) Rejects() int { return r.countEvents(EventReject) }

// EventLog renders the full scheduler event stream, one event per
// line. Two runs of an identical seeded configuration must produce
// byte-identical logs — the determinism tests compare exactly this.
func (r *Report) EventLog() string {
	lines := make([]string, len(r.Events))
	for i, e := range r.Events {
		lines[i] = e.String()
	}
	return strings.Join(lines, "\n")
}
