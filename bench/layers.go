package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"ffsva/internal/cluster/sched"
	"ffsva/internal/detect"
	"ffsva/internal/device"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/lab"
	"ffsva/internal/metrics"
	"ffsva/internal/nn"
	"ffsva/internal/obs"
	"ffsva/internal/par"
	"ffsva/internal/pipeline"
	"ffsva/internal/queue"
	"ffsva/internal/timeline"
	"ffsva/internal/trace"
	"ffsva/internal/vclock"
	"ffsva/internal/video"
	"ffsva/internal/vidgen"
)

// fullOpBudget is how long one layer bench measures. Per-layer metrics
// have no bound, so this buys a steady median, not a tight one.
const fullOpBudget = 60 * time.Millisecond

// opBudget is fullOpBudget except in the tests, which shorten every
// layer bench (and the virtual-world benches with it) in proportion.
var opBudget = fullOpBudget

// worldOps scales an operation count of a virtual-world bench with
// opBudget.
func worldOps(full int) int {
	return max(16, int(float64(full)*float64(opBudget)/float64(fullOpBudget)))
}

// timeOp times op from outside: batches sized to a twentieth of the
// budget, repeated until the budget is spent (at least five), median ns
// per call.
func timeOp(budget time.Duration, op func()) float64 {
	t := wallNow()
	op()
	first := wallSince(t)
	batch := 1
	if first > 0 && first < budget/20 {
		batch = int(budget / 20 / first)
	}
	var perOp []float64
	for start := wallNow(); len(perOp) < 5 || wallSince(start) < budget; {
		t := wallNow()
		for i := 0; i < batch; i++ {
			op()
		}
		perOp = append(perOp, float64(wallSince(t))/float64(batch))
	}
	return median(perOp)
}

// layerInputs are frames from the workload's own first stream, kept for
// the whole bench (never released) so every kernel sees the same pixels.
const layerFrames = 64

type layerInputs struct {
	cfg    vidgen.Config
	frames []*frame.Frame
	next   int
}

func newLayerInputs(cam *lab.Camera, clip int64, n int) *layerInputs {
	cfg := cam.Template
	cfg.StreamID = 0
	cfg.Seed = clip
	in := &layerInputs{cfg: cfg}
	src := vidgen.New(cfg)
	for i := 0; i < n; i++ {
		in.frames = append(in.frames, src.Next())
	}
	return in
}

func (in *layerInputs) frame() *frame.Frame {
	f := in.frames[in.next%len(in.frames)]
	in.next++
	return f
}

// layerBench runs every (a)-source layer metric: one public function per
// metric, called in a loop on frames of the given clip. sz only sizes the
// observer benches.
func layerBench(cam *lab.Camera, clip int64, sz sizes) map[string]float64 {
	m := map[string]float64{}
	in := newLayerInputs(cam, clip, layerFrames)
	kernelBench(m, cam, in)
	clockBench(m)
	observerBench(m, sz.ObserverStreams)
	// An empty body over more indices than workers: what remains is the
	// publish, wake-up and join of one sharded loop.
	m["par.for_overhead_ns"] = timeOp(opBudget, func() { par.For(64, 1, func(lo, hi int) {}) })
	m["video.decode_ns"] = videoDecodeBench(in)
	return m
}

func kernelBench(m map[string]float64, cam *lab.Camera, in *layerInputs) {
	src := vidgen.New(in.cfg)
	m["vidgen.next_ns"] = timeOp(opBudget, func() { src.Next().Release() })
	m["vidgen.new_us"] = timeOp(opBudget, func() { vidgen.New(in.cfg) }) / 1e3
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	bg := src.Background()
	m["detect.set_background_us"] = timeOp(opBudget, func() { tg.SetBackground(0, bg) }) / 1e3
	m["lab.mint_us_per_stream"] = timeOp(opBudget, func() {
		cam.Stream(0, tg, lab.StreamOptions{Seed: in.cfg.Seed, Frames: 1})
	}) / 1e3

	g100, g50 := imgproc.NewGray(filters.SDDSize, filters.SDDSize), imgproc.NewGray(filters.SNMSize, filters.SNMSize)
	ref100 := imgproc.Resize(cam.SDD.Ref, filters.SDDSize, filters.SDDSize)
	m["imgproc.resize_100_ns"] = timeOp(opBudget, func() { imgproc.ResizeInto(imgproc.FromFrame(in.frame()), g100) })
	m["imgproc.resize_50_ns"] = timeOp(opBudget, func() { imgproc.ResizeInto(imgproc.FromFrame(in.frame()), g50) })
	m["imgproc.resize_mse_ns"] = timeOp(opBudget, func() { imgproc.ResizeMSE(imgproc.FromFrame(in.frame()), g100, ref100) })
	m["imgproc.mse_ns"] = timeOp(opBudget, func() { imgproc.MSE(g100, ref100) })
	sdd := filters.NewSDD(cam.SDD.Ref, cam.SDD.Delta, filters.MetricMSE)
	m["filters.sdd_ns"] = timeOp(opBudget, func() { sdd.Process(in.frame()) })

	side := tg.InputSize()
	gin, gout := imgproc.Resize(imgproc.FromFrame(in.frames[0]), side, side), imgproc.NewGray(side, side)
	m["imgproc.blur3_ns"] = timeOp(opBudget, func() { imgproc.BoxBlur3Into(gin, gout) })
	m["detect.tinygrid_ns"] = timeOp(opBudget, func() { tg.Detect(in.frame()) })
	ty := filters.NewTYolo(tg, in.cfg.Target, 1)
	m["filters.tyolo_ns"] = timeOp(opBudget, func() { ty.Process(in.frame()) })
	oracle := detect.NewOracle(detect.DefaultOracleConfig())
	m["detect.oracle_ns"] = timeOp(opBudget, func() { oracle.Detect(in.frame()) })

	net := cam.SNM.Net
	x1 := filters.Input(in.frames[0])
	m["nn.infer_b1_ns"] = timeOp(opBudget, func() { net.Infer(x1).Release() })
	const b = 10
	x10 := nn.NewTensor(b, 1, filters.SNMSize, filters.SNMSize)
	for i := 0; i < b; i++ {
		copy(x10.Data[i*len(x1.Data):], filters.Input(in.frames[i]).Data)
	}
	m["nn.infer_b10_ns_per_sample"] = timeOp(opBudget, func() { net.Infer(x10).Release() }) / b
	snm := filters.NewSNM(net, cam.SNM.CLow, cam.SNM.CHigh, 0.5)
	m["filters.snm_ns_per_frame"] = timeOp(opBudget, func() { snm.ProcessBatch(in.frames[:b]) }) / b
	m["frame.pool_ns"] = timeOp(opBudget, func() { frame.NewPooled(in.cfg.W, in.cfg.H).Release() })
}

// clockBench times the virtual-clock machinery every pipeline hop pays:
// a queue handoff between two clock processes, a Sleep with 1, 128 and
// 4096 processes in the timer heap, process creation, and a device
// charge.
func clockBench(m map[string]float64) {
	hops := worldOps(20000)
	m["queue.handoff_ns"] = timeWorld(hops, func(clk *vclock.VirtualClock) {
		q := queue.New[int](clk, "bench", 8)
		clk.Go("producer", func() {
			for i := 0; i < hops; i++ {
				if !q.Put(i) {
					return
				}
			}
			q.Close()
		})
		clk.Go("consumer", func() {
			for {
				if _, ok := q.Get(); !ok {
					return
				}
			}
		})
	})
	for _, procs := range []int{1, 128, 4096} {
		sleeps := max(4, worldOps(40000)/procs)
		m[fmt.Sprintf("vclock.sleep_ns_at_%d", procs)] = timeWorld(procs*sleeps, func(clk *vclock.VirtualClock) {
			for p := 0; p < procs; p++ {
				step := time.Duration(p+1) * time.Microsecond
				clk.Go("sleeper", func() {
					for i := 0; i < sleeps; i++ {
						clk.Sleep(step)
					}
				})
			}
		})
	}
	spawned := worldOps(5000)
	m["vclock.go_us"] = timeWorld(spawned, func(clk *vclock.VirtualClock) {
		for p := 0; p < spawned; p++ {
			clk.Go("noop", func() {})
		}
	}) / 1e3
	uses := worldOps(20000)
	costs := device.Calibrated()
	m["device.use_ns"] = timeWorld(uses, func(clk *vclock.VirtualClock) {
		dev := device.New(clk, "gpu", device.GPU, 1)
		clk.Go("user", func() {
			for i := 0; i < uses; i++ {
				dev.Use(device.ModelSNM, 1, costs)
			}
		})
	})
}

// timeWorld builds a fresh virtual world three times, runs each to
// completion, and returns the median wall ns per operation of the run
// (world construction is outside the timing only where build does it
// before clk.Run; process creation is cheap next to the ops counted).
func timeWorld(ops int, build func(clk *vclock.VirtualClock)) float64 {
	var perOp []float64
	for rep := 0; rep < 3; rep++ {
		clk := vclock.NewVirtual()
		t := wallNow()
		build(clk)
		clk.Run()
		perOp = append(perOp, float64(wallSince(t))/float64(ops))
	}
	return median(perOp)
}

// observerBench times what watching an instance of n live streams
// costs: the snapshot itself, the scheduler's view, the timeline
// recorder, the registry export, the per-frame tracer and one scrape of
// the HTTP endpoint.
func observerBench(m map[string]float64, n int) {
	specs := make([]pipeline.StreamSpec, n)
	for i := range specs {
		specs[i] = pipeline.StreamSpec{ID: i, Frames: 1}
	}
	cfg := pipeline.DefaultConfig(vclock.NewVirtual())
	cfg.Mode = pipeline.Online
	sys := pipeline.New(cfg, specs)
	var sn pipeline.Snapshot
	m["pipeline.snapshot_us_at_1000"] = timeOp(opBudget, func() { sn = sys.Snapshot() }) / 1e3
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	const snaps = 8
	for i := 0; i < snaps; i++ {
		sn = sys.Snapshot()
	}
	runtime.ReadMemStats(&ms)
	m["pipeline.snapshot_allocs_at_1000"] = float64(ms.Mallocs-before) / snaps

	sch, err := sched.New(sched.Config{Cooldown: time.Second})
	if err != nil {
		panic(err) // the zero placement/quota/elastic configs are valid by construction
	}
	owners := make(map[int]int, n)
	for i := 0; i < n; i++ {
		owners[i] = i % 4
	}
	insts := []sched.Instance{{Index: 0, Live: true}, {Index: 1, Live: true}, {Index: 2, Live: true}, {Index: 3, Live: true}}
	m["sched.view_us_at_1000"] = timeOp(opBudget, func() { sch.View(time.Second, insts, owners) }) / 1e3

	tracer := trace.New(trace.Options{})
	rec := timeline.New(timeline.Options{Tracer: tracer})
	at := time.Duration(0)
	m["timeline.observe_us_at_1000"] = timeOp(opBudget, func() {
		at += 250 * time.Millisecond
		sn.At = at
		rec.Observe(0, sn)
	}) / 1e3
	m["timeline.attribute_us"] = timeOp(opBudget, func() { rec.Attribute(-1, 0, 0) }) / 1e3
	_ = rec.Close() // no DumpDir, so there is nothing to flush

	reg := metrics.NewRegistry()
	reg.Counter("frames_ingested_total").Inc()
	lc := reg.LabeledCounter("frames_disposed_total")
	for d := pipeline.DropSDD; d <= pipeline.Detected; d++ {
		lc.With(d.String()).Inc()
	}
	reg.Meter("tyolo_fps", time.Second, 5).Mark(0, 1)
	reg.Histogram("frame_latency").Observe(time.Millisecond)
	reg.IntDist("snm_batch_size").Observe(4)
	m["metrics.export_us"] = timeOp(opBudget, func() { reg.Export(time.Second) }) / 1e3

	var seq int64
	m["trace.frame_ns"] = timeOp(opBudget, func() { seq++; finishFrame(tracer, seq) })
	// Export cost and size after exactly a thousand frames: retention is
	// a bounded sample of them, so this is what leaving the tracer on
	// costs a run at its end.
	const kframe = 1000
	exported := trace.New(trace.Options{})
	for i := int64(0); i < kframe; i++ {
		finishFrame(exported, i)
	}
	var size countingWriter
	m["trace.export_ms_per_kframe"] = timeOp(opBudget, func() {
		size = 0
		if err := exported.WriteTraceEvents(&size); err != nil {
			panic(err) // countingWriter never fails
		}
	}) / 1e6
	m["trace.bytes_per_frame"] = float64(size) / kframe

	m["obs.scrape_metrics_us"] = scrapeBench(sn)
}

// finishFrame is the per-frame tracing a short-lived frame costs the
// pipeline: StartFrame, three spans, Finish.
func finishFrame(tracer *trace.Tracer, seq int64) {
	//lint:allow poolrelease Tracer.Finish below is the record's terminal point: it retains the record or returns it to the pool
	ft := tracer.StartFrame(0, seq, 0, 0)
	ft.AddSpan(trace.KDecode, 0, 1, "cpu", 0)
	sp := ft.StartSpan(trace.KSDD, "cpu", 1)
	sp.End(2)
	ft.AddSpan(trace.KSNMInfer, 2, 3, "gpu0", 4)
	tracer.Finish(ft, "drop-snm", false, 3)
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// scrapeBench is one loopback GET /metrics after a Push. A host without
// a usable loopback interface reports 0 rather than failing the run: the
// metric has no bound and nothing else depends on the socket.
func scrapeBench(sn pipeline.Snapshot) float64 {
	srv := obs.NewServer("127.0.0.1:0", nil)
	if err := srv.Start(); err != nil {
		return 0
	}
	defer srv.Close()
	srv.Push(0, sn)
	client := &http.Client{Timeout: 5 * time.Second}
	failed := false
	ns := timeOp(opBudget, func() {
		resp, err := client.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			failed = true
			return
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			failed = true
		}
		resp.Body.Close()
	})
	client.CloseIdleConnections()
	if failed {
		return 0
	}
	return ns / 1e3
}

// resizeSpeedup is the full-frame resize at the given par width over
// width 1. One worker has nothing to fan out to, so a width-1 child reads
// exactly 1; the parent reports the figure of whichever offline_lowtor
// child ran at min(nproc, 4).
func resizeSpeedup(in *layerInputs, width int) float64 {
	if width == 1 {
		return 1
	}
	dst := imgproc.NewGray(416, 416)
	resize := func() { imgproc.ResizeInto(imgproc.FromFrame(in.frame()), dst) }
	wide := timeOp(opBudget, resize)
	par.SetWorkers(1)
	narrow := timeOp(opBudget, resize)
	par.SetWorkers(width)
	return narrow / wide
}

// videoDecodeBench encodes the input frames into the internal/video
// container in memory and times Reader.Next over them — the alternative
// frame source ROADMAP item 2 proposes.
func videoDecodeBench(in *layerInputs) float64 {
	var buf bytes.Buffer
	w, err := video.NewWriter(&buf, in.cfg.W, in.cfg.H, 30)
	if err != nil {
		panic(err) // dimensions come from a valid vidgen config
	}
	for _, f := range in.frames {
		if err := w.WriteFrame(f); err != nil {
			panic(err) // bytes.Buffer writes cannot fail
		}
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	var perFrame []float64
	for rep := 0; rep < 5; rep++ {
		r, err := video.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			panic(err) // the header was written above
		}
		t := wallNow()
		for range in.frames {
			if _, err := r.Next(); err != nil {
				panic(err)
			}
		}
		perFrame = append(perFrame, float64(wallSince(t))/float64(len(in.frames)))
	}
	return median(perFrame)
}
