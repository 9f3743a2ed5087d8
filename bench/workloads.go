package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"ffsva/internal/cluster"
	"ffsva/internal/core"
	"ffsva/internal/detect"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/timeline"
	"ffsva/internal/trace"
	"ffsva/internal/vclock"
)

// Workload names are fixed: later issues refer to them.
const (
	wlLowTOR  = "offline_lowtor"
	wlHighTOR = "offline_hightor"
	wlKnee    = "online_knee"
	wlFleet   = "fleet_churn"
)

// sizes are the run sizes. Stream counts and ladder levels are the
// issue's; frames per stream are what the time cap of the benchmark
// contract leaves (see README.md, "Shrinking runs"). bench_test.go runs
// the same code at about 1/50 of this.
type sizes struct {
	LowTORStreams, LowTORFrames   int
	HighTORStreams, HighTORFrames int
	Ladder                        []int // online_knee stream counts
	KneeFrames                    int
	KneeLevel                     int // the level model latency is reported at
	FleetInstances                int
	FleetStreams, FleetFrames     int
	FleetArrivalEvery             time.Duration
	ObserverStreams               int // the "_at_1000" observer benches
	WarmupFrames                  int
}

func defaultSizes() sizes {
	return sizes{
		LowTORStreams: 4, LowTORFrames: 1500,
		HighTORStreams: 4, HighTORFrames: 500,
		Ladder: []int{28, 32, 36, 40}, KneeFrames: 240, KneeLevel: 32,
		FleetInstances: 4, FleetStreams: 1000, FleetFrames: 15,
		FleetArrivalEvery: time.Millisecond,
		ObserverStreams:   1000,
		WarmupFrames:      200,
	}
}

// cast decides which clip each of a workload's streams plays; levels are
// the stream counts the workload runs at, rising (one level for all but
// the ladder). Clip k is always the same video, whatever the seed. The
// seed shuffles which stream plays which — separately below the first
// level and between each two, so that a level always plays the same set
// of clips — and with it ids, T-YOLO visiting order, SNM and cluster
// placement, while the amount of each kind of work stays what it was. A
// 1500-frame clip holds two or three scenes, and drawing fresh clips per
// seed moved SDD pass counts by ±15% and bytes per frame by up to 2.4× on
// online_knee — wider than every bound here; holding the clips fixed is
// what lets two seeds be compared at all.
func cast(seed int64, levels ...int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var clips []int64
	for _, n := range levels {
		from := len(clips)
		for _, k := range rng.Perm(n - from) {
			clips = append(clips, int64(from+k)*7919+101)
		}
	}
	return clips
}

// outcome is what one pass of a workload produced, before any timing is
// attached to it.
type outcome struct {
	Attempted int64 // streams × frames offered
	OK        int64 // ended in exactly one of DropSDD/DropSNM/DropTYolo/Detected
	Model     map[string]float64
	Counters  map[string]float64
	TailPct   float64 // percentile model_p99_latency_ms was taken at
	TailN     int     // and the latency sample count behind it
	Digest    string
	// Dispositions holds stream → frame index → disposition on the
	// offline workloads, for the layer replay to be checked against.
	Dispositions [][]pipeline.Disposition
	Stages       [5]int64
	Breach       string // non-empty when the correctness gate failed
	// Segments are the timed parts of the pass, one per Run of the system.
	Segments []segment

	outcomeAcc
}

// prepared is a workload after set-up: run executes one pass. The
// set-up breakdown feeds the lab.* and pipeline.new_* layer metrics.
type prepared struct {
	run       func() outcome
	attempted int64 // frames a pass offers, known before it runs
	cam       *lab.Camera
	clips     []int64 // clip per stream id, as cast
	// replayFrames is frames per stream where the layer replay applies
	// (the offline workloads), else 0.
	replayFrames int
	trainS       float64
	mintUS       float64 // per stream; 0 where minting happens inside run
	newUS        float64 // pipeline.New / cluster.New per stream
}

type workload struct {
	Name, Why string
	prepare   func(seed int64, sz sizes, tr *tracing) (*prepared, error)
}

func workloads() []workload {
	return []workload{
		{wlLowTOR, "car camera at TOR 0.10: SDD drops ~92% of frames, so source generation, resize and SDD carry the run (the paper's offline headline)", prepareLowTOR},
		{wlHighTOR, "person camera at TOR 1.0: most frames reach T-YOLO and the reference tier, so blur, TinyGrid and the SNM carry the run and SDD/source barely show", prepareHighTOR},
		{wlKnee, "open-loop 30 FPS ladder of 28-40 car streams: the paper's streams-sustained/p99 headline; ~5 clock processes per stream put queue and virtual-clock handoff on the profile", prepareKnee},
		{wlFleet, "4-instance cluster admitting 1000 short streams 1 ms apart with consolidation, tracer and timeline on: per-stream construction, manager ticks and observers dominate, kernels do little", prepareFleet},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// trainTimed fetches the workload's camera and reports how long training
// took; in a cold process that is the real cost, later calls hit lab's
// cache and cost nothing.
func trainTimed(camera func(float64) (*lab.Camera, error), tor float64) (*lab.Camera, float64, error) {
	t := wallNow()
	cam, err := camera(tor)
	return cam, wallSince(t).Seconds(), err
}

// mint makes one stream per clip, ids 0..len(clips)-1.
func mint(cam *lab.Camera, clips []int64, frames int, tg *detect.TinyGrid, tr *tracing) []pipeline.StreamSpec {
	specs := make([]pipeline.StreamSpec, len(clips))
	for i, clip := range clips {
		specs[i] = cam.Stream(i, tg, lab.StreamOptions{Seed: clip, Frames: frames})
		tr.wrapSpec(&specs[i])
	}
	return specs
}

func prepareLowTOR(seed int64, sz sizes, tr *tracing) (*prepared, error) {
	return prepareOffline(lab.CarCamera, 0.10, cast(seed, sz.LowTORStreams), sz.LowTORFrames, tr)
}

func prepareHighTOR(seed int64, sz sizes, tr *tracing) (*prepared, error) {
	return prepareOffline(lab.PersonCamera, 1.0, cast(seed, sz.HighTORStreams), sz.HighTORFrames, tr)
}

// offlineConfig is the pipeline configuration both offline workloads
// (and the warm-up) run under: back-pressured, dynamic batch 10, virtual
// clock with device costs charged.
func offlineConfig(tr *tracing) pipeline.Config {
	cfg := pipeline.DefaultConfig(vclock.NewVirtual())
	cfg.Mode = pipeline.Offline
	cfg.BatchPolicy = pipeline.BatchDynamic
	cfg.BatchSize = 10
	tr.wrapConfig(&cfg)
	return cfg
}

func prepareOffline(camera func(float64) (*lab.Camera, error), tor float64, clips []int64, frames int, tr *tracing) (*prepared, error) {
	cam, trainS, err := trainTimed(camera, tor)
	if err != nil {
		return nil, err
	}
	streams := len(clips)
	t := wallNow()
	specs := mint(cam, clips, frames, detect.NewTinyGrid(detect.DefaultTinyGridConfig()), tr)
	mintUS := us(wallSince(t)) / float64(streams)
	t = wallNow()
	sys := pipeline.New(offlineConfig(tr), specs)
	newUS := us(wallSince(t)) / float64(streams)

	p := &prepared{cam: cam, clips: clips, trainS: trainS, mintUS: mintUS, newUS: newUS,
		attempted: int64(streams) * int64(frames), replayFrames: frames}
	p.run = func() outcome {
		o := newOutcome(p.attempted)
		var rep *pipeline.Report
		o.timed(p.attempted, func() { rep = sys.Run() })
		o.addReport(rep, nil)
		o.Model["model_fps"] = rep.Throughput
		lat := reduceLatencies(recordLatencies(rep, nil))
		o.setLatency(lat)
		o.addSnapshot(sys.Snapshot())
		o.addSpans(rep.Spans)
		o.addUtil(rep)
		for _, sr := range rep.Streams {
			d := make([]pipeline.Disposition, len(sr.Records))
			for i, rec := range sr.Records {
				d[i] = rec.Disposition
			}
			o.Dispositions = append(o.Dispositions, d)
		}
		o.seal()
		return o
	}
	return p, nil
}

// prepareKnee mints every ladder level up front, so set-up carries the
// whole minting cost and a pass is only the four paced runs.
func prepareKnee(seed int64, sz sizes, tr *tracing) (*prepared, error) {
	cam, trainS, err := trainTimed(lab.CarCamera, 0.10)
	if err != nil {
		return nil, err
	}
	type level struct {
		n   int
		sys *pipeline.System
	}
	var levels []level
	var mintWall, newWall time.Duration
	total := 0
	// Stream i plays the same clip at every level.
	clips := cast(seed, sz.Ladder...)
	for _, n := range sz.Ladder {
		t := wallNow()
		specs := mint(cam, clips[:n], sz.KneeFrames, detect.NewTinyGrid(detect.DefaultTinyGridConfig()), tr)
		mintWall += wallSince(t)
		cfg := pipeline.DefaultConfig(vclock.NewVirtual())
		cfg.Mode = pipeline.Online
		// experiments.maxStreamsOpt's rule: the live buffer must sit well
		// inside the probe window or an overload can never surface.
		cfg.IngestBuffer = min(300, max(1, sz.KneeFrames/3))
		tr.wrapConfig(&cfg)
		t = wallNow()
		levels = append(levels, level{n, pipeline.New(cfg, specs)})
		newWall += wallSince(t)
		total += n
	}
	p := &prepared{cam: cam, clips: clips, trainS: trainS, attempted: int64(total) * int64(sz.KneeFrames),
		mintUS: us(mintWall) / float64(total), newUS: us(newWall) / float64(total)}
	p.run = func() outcome {
		o := newOutcome(p.attempted)
		var frames int64
		var elapsed time.Duration
		sustained := 0
		for _, lv := range levels {
			var rep *pipeline.Report
			o.timed(int64(lv.n)*int64(sz.KneeFrames), func() { rep = lv.sys.Run() })
			before := o.OK
			o.addReport(rep, nil)
			frames += rep.TotalFrames
			elapsed += rep.Elapsed
			// Open loop: frame i of every stream falls due at i/FPS
			// whether or not ingest kept up, and latency counts from there.
			lat := reduceLatencies(recordLatencies(rep, func(_ pipeline.StreamReport, idx int, _ pipeline.Record) time.Duration {
				return time.Duration(idx) * time.Second / 30
			}))
			var worstLag time.Duration
			for _, sr := range rep.Streams {
				worstLag = max(worstLag, sr.IngestLag)
			}
			o.Counters[fmt.Sprintf("pipeline.p99_ms_at_%d", lv.n)] = ms(lat.Tail)
			o.Counters[fmt.Sprintf("pipeline.worst_lag_ms_at_%d", lv.n)] = ms(worstLag)
			levelOK := o.OK-before == int64(lv.n)*int64(sz.KneeFrames)
			if rep.Realtime && lat.Tail <= 6*time.Second && levelOK && lv.n > sustained {
				sustained = lv.n
			}
			if lv.n == sz.KneeLevel {
				o.setLatency(lat)
				o.addSnapshot(lv.sys.Snapshot())
				o.addSpans(rep.Spans)
				o.addUtil(rep)
			}
		}
		if elapsed > 0 {
			o.Model["model_fps"] = float64(frames) / elapsed.Seconds()
		}
		o.Model["model_streams_sustained"] = float64(sustained)
		o.seal()
		return o
	}
	return p, nil
}

func prepareFleet(seed int64, sz sizes, tr *tracing) (*prepared, error) {
	cam, trainS, err := trainTimed(lab.CarCamera, 0.10)
	if err != nil {
		return nil, err
	}
	t := wallNow()
	clk := vclock.NewVirtual()
	cfg := cluster.DefaultConfig(clk, sz.FleetInstances)
	cfg.Pipeline.Consolidate = true
	tr.wrapConfig(&cfg.Pipeline)
	// The observers are part of this workload, traced run or not.
	tracer := trace.New(trace.Options{})
	rec := timeline.New(timeline.Options{Tracer: tracer})
	cfg.Tracer = tracer
	lastArrival := time.Duration(sz.FleetStreams-1) * sz.FleetArrivalEvery
	streamDur := time.Duration(sz.FleetFrames) * time.Second / 30
	cfg.Horizon = lastArrival + streamDur + streamDur/2 + 10*time.Second
	ticks := 0
	last := map[int]pipeline.Snapshot{}
	cfg.OnSnapshot = func(instance int, sn pipeline.Snapshot) {
		rec.Observe(instance, sn)
		if instance == 0 {
			ticks++
		}
		last[instance] = sn
	}
	clips := cast(seed, sz.FleetStreams)
	arrivals := make([]cluster.Arrival, sz.FleetStreams)
	for i := range arrivals {
		i := i
		arrivals[i] = cluster.Arrival{
			At: time.Duration(i) * sz.FleetArrivalEvery, ID: i, Frames: sz.FleetFrames,
			Make: tr.wrapMake(i, func(tg *detect.TinyGrid) pipeline.StreamSpec {
				spec := cam.Stream(i, tg, lab.StreamOptions{Seed: clips[i], Frames: sz.FleetFrames})
				tr.wrapSpec(&spec)
				return spec
			}),
		}
	}
	cl := cluster.New(cfg, arrivals)
	p := &prepared{cam: cam, clips: clips, trainS: trainS, newUS: us(wallSince(t)) / float64(sz.FleetStreams),
		attempted: int64(sz.FleetStreams) * int64(sz.FleetFrames)}
	p.run = func() outcome {
		o := newOutcome(p.attempted)
		var rep *cluster.Report
		o.timed(p.attempted, func() { rep = cl.Run() })
		admitted := map[int]time.Duration{}
		for _, e := range rep.Events {
			if _, seen := admitted[e.StreamID]; e.Kind == cluster.EventAdmit && !seen {
				admitted[e.StreamID] = e.At
			}
		}
		// A stream's frame seq falls due seq/FPS after its first admission;
		// a re-forward stalls later frames and that stall counts.
		due := func(sr pipeline.StreamReport, _ int, rec pipeline.Record) time.Duration {
			return admitted[sr.ID] + time.Duration(rec.Seq)*time.Second/30
		}
		var frames int64
		var elapsed time.Duration
		var worst latencyStats
		var worstRep *pipeline.Report
		perStream := map[int]int64{}
		for i, ir := range rep.Instances {
			o.addReport(ir, perStream)
			frames += ir.TotalFrames
			elapsed = max(elapsed, ir.Elapsed)
			if lat := reduceLatencies(recordLatencies(ir, due)); worstRep == nil || lat.Tail > worst.Tail {
				worst, worstRep = lat, ir
			}
			o.addSnapshot(last[i])
		}
		for id := 0; id < sz.FleetStreams; id++ {
			if perStream[id] != int64(sz.FleetFrames) {
				o.breach("stream %d: %d frames ingested across fragments, want %d", id, perStream[id], sz.FleetFrames)
			}
		}
		if n := rep.Drops[pipeline.DropAdmission]; n > 0 {
			o.breach("%d frames refused admission", n)
		}
		o.setLatency(worst)
		o.addUtil(worstRep)
		o.addSpans(tracer.Decomposition(-1))
		if elapsed > 0 {
			o.Model["model_fps"] = float64(frames) / elapsed.Seconds()
		}
		o.Counters["cluster.ticks"] = float64(ticks)
		o.Counters["cluster.events"] = float64(len(rep.Events))
		o.Counters["cluster.reforwards"] = float64(rep.Reforwards())
		o.digestExtra = rep.EventLog()
		if err := rec.Close(); err != nil {
			o.breach("timeline close: %v", err)
		}
		o.seal()
		return o
	}
	return p, nil
}

// warmup is the small untimed run every child makes before its timed
// passes: it fills lab's camera cache, the frame and tensor pools and
// the par pool.
func warmup(cam *lab.Camera, sz sizes) {
	specs := mint(cam, cast(0, 1), sz.WarmupFrames, detect.NewTinyGrid(detect.DefaultTinyGridConfig()), nil)
	pipeline.New(offlineConfig(nil), specs).Run()
}

// --- outcome assembly -------------------------------------------------

func newOutcome(attempted int64) outcome {
	return outcome{Attempted: attempted, Model: map[string]float64{}, Counters: map[string]float64{}}
}

// outcomeAcc is the part of an outcome that only exists while it is
// being assembled.
type outcomeAcc struct {
	acc         core.Accuracy
	digest      []string
	digestExtra string
	ingested    int64
	snmBatches  int64   // SNM batches formed, and
	snmBatched  float64 // frames in them
}

// timed executes one Run of the system as a segment of the pass and
// books what it spent.
func (o *outcome) timed(frames int64, run func()) {
	u := readUsage()
	run()
	o.Segments = append(o.Segments, segment{Frames: frames, cost: u.since()})
}

func (o *outcome) breach(format string, args ...any) {
	if o.Breach == "" {
		o.Breach = fmt.Sprintf(format, args...)
	}
}

var stageNames = [5]string{"ingest", "sdd", "snm", "tyolo", "ref"}

// addReport folds one pipeline report into the outcome: the frame
// ledger (conservation per stream fragment), accuracy, stage counts and
// the digest lines. perStream, when non-nil, collects ingested frames
// per stream id across instance fragments.
func (o *outcome) addReport(rep *pipeline.Report, perStream map[int]int64) {
	if rep.Cancelled || rep.Crashed {
		o.breach("run ended early (cancelled=%v crashed=%v)", rep.Cancelled, rep.Crashed)
	}
	for _, sr := range rep.Streams {
		var decided int64
		for _, n := range sr.Counts {
			decided += n
		}
		good := sr.Counts[pipeline.DropSDD] + sr.Counts[pipeline.DropSNM] +
			sr.Counts[pipeline.DropTYolo] + sr.Counts[pipeline.Detected]
		o.OK += good
		o.ingested += sr.Ingested
		if decided != sr.Ingested {
			o.breach("stream %d: %d dispositions for %d ingested frames", sr.ID, decided, sr.Ingested)
		}
		if perStream != nil {
			perStream[sr.ID] += sr.Ingested
		} else if sr.Ingested != int64(sr.Frames) {
			o.breach("stream %d: ingested %d of %d frames", sr.ID, sr.Ingested, sr.Frames)
		}
		o.acc.Merge(core.Analyze(sr.Records, 1))
		o.digest = append(o.digest, fmt.Sprintf("s%d %v lag=%d", sr.ID, sr.Counts, sr.IngestLag))
	}
	for i, n := range rep.StageProcessed {
		o.Stages[i] += n
	}
	o.Counters["pipeline.ref_canvases"] += float64(rep.RefCanvases)
	o.Counters["pipeline.gpu0_switches"] += float64(rep.GPU0Switches)
	o.digest = append(o.digest, fmt.Sprintf("stages %v canvases %d lat %d %d %d %d %d elapsed %d",
		rep.StageProcessed, rep.RefCanvases, rep.LatencyMean, rep.LatencyP50, rep.LatencyP95,
		rep.LatencyP99, rep.LatencyMax, rep.Elapsed))
}

// recordLatencies lists every decided frame's latency; due, when set,
// replaces the capture stamp with the time the frame fell due.
func recordLatencies(rep *pipeline.Report, due func(sr pipeline.StreamReport, idx int, rec pipeline.Record) time.Duration) []time.Duration {
	var lat []time.Duration
	for _, sr := range rep.Streams {
		for idx, rec := range sr.Records {
			if !rec.Done {
				continue
			}
			from := rec.Captured
			if due != nil {
				from = due(sr, idx, rec)
			}
			lat = append(lat, rec.Decided-from)
		}
	}
	return lat
}

func (o *outcome) setLatency(l latencyStats) {
	o.Model["model_p50_latency_ms"] = ms(l.P50)
	o.Model["model_p99_latency_ms"] = ms(l.Tail)
	o.TailPct, o.TailN = l.TailPct, l.Samples
}

// addSnapshot accumulates the queue feedback counters and SNM batch
// shape from a finished system's last snapshot.
func (o *outcome) addSnapshot(sn pipeline.Snapshot) {
	blocked := sn.RefQ.BlockedPuts
	for _, ss := range sn.Streams {
		blocked += ss.SDDQ.BlockedPuts + ss.SNMQ.BlockedPuts + ss.TYQ.BlockedPuts
	}
	o.Counters["pipeline.blocked_puts"] += float64(blocked)
	o.snmBatches += sn.SNMBatchCount
	o.snmBatched += sn.SNMBatchMean * float64(sn.SNMBatchCount)
}

func (o *outcome) addUtil(rep *pipeline.Report) {
	o.Counters["pipeline.model_util.cpu"] = rep.CPUUtil
	o.Counters["pipeline.model_util.gpu0"] = rep.GPU0Util
	o.Counters["pipeline.model_util.gpu1"] = rep.GPU1Util
}

// addSpans turns the product tracer's wait-vs-service decomposition
// into each tier's share of cumulative frame latency spent waiting for
// it. Without a tracer (the untraced offline and ladder runs) there is
// nothing to add.
func (o *outcome) addSpans(stats []trace.StageStat) {
	var total time.Duration
	wait := map[string]time.Duration{}
	for _, ss := range stats {
		total += ss.Total
		switch ss.Kind {
		case trace.KWaitSDD:
			wait["sdd"] += ss.Total
		case trace.KWaitSNM, trace.KSNMAssemble:
			wait["snm"] += ss.Total
		case trace.KWaitTYolo:
			wait["tyolo"] += ss.Total
		case trace.KWaitRef:
			wait["ref"] += ss.Total
		}
	}
	if total == 0 {
		return
	}
	for _, tier := range []string{"sdd", "snm", "tyolo", "ref"} {
		o.Counters["pipeline.model_wait_share."+tier] = float64(wait[tier]) / float64(total)
	}
}

// seal derives the ratios and the digest once every report is in.
func (o *outcome) seal() {
	if o.ingested != o.Attempted {
		o.breach("%d frames ingested, %d attempted", o.ingested, o.Attempted)
	}
	o.Model["scene_loss_pct"] = 100 * o.acc.SceneLossRate()
	o.Model["frame_error_pct"] = 100 * o.acc.ErrorRate()
	for i, name := range stageNames {
		o.Counters["pipeline.stage_in."+name] = float64(o.Stages[i])
	}
	share := func(pass, in int64) float64 {
		if in == 0 {
			return 0
		}
		return float64(pass) / float64(in)
	}
	o.Counters["filters.sdd_pass_share"] = share(o.Stages[2], o.Stages[1])
	o.Counters["filters.snm_pass_share"] = share(o.Stages[3], o.Stages[2])
	o.Counters["filters.tyolo_pass_share"] = share(o.Stages[4], o.Stages[3])
	if o.snmBatches > 0 {
		o.Counters["filters.snm_batch_mean"] = o.snmBatched / float64(o.snmBatches)
	}
	h := sha256.New()
	for _, line := range o.digest {
		io.WriteString(h, line+"\n")
	}
	keys := make([]string, 0, len(o.Model))
	for k := range o.Model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v\n", k, o.Model[k])
	}
	io.WriteString(h, o.digestExtra)
	o.Digest = fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
