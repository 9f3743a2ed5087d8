// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic substrate: Table 1 (workloads), Fig. 3
// and Fig. 4 (throughput and latency vs. number of streams at low and
// extreme TOR, against the YOLOv2 baseline), Fig. 5 (per-filter execution
// ratios), Fig. 6 (scalability vs. TOR and load balance), Fig. 7
// (FilterDegree sensitivity), Fig. 8 (NumberofObjects sensitivity),
// Table 2 (error-frame taxonomy), and Figs. 9/10 (batch mechanisms) —
// plus ablations for FFS-VA's individual design choices.
//
// Absolute numbers come from the calibrated device model; the claims
// under reproduction are the shapes: who wins, by what factor, and where
// the knees fall.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"ffsva/internal/baseline"
	"ffsva/internal/core"
	"ffsva/internal/detect"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
	"ffsva/internal/vidgen"
)

// Scale sizes the experiments. Full mirrors the paper's 5000-frame runs
// where affordable; Quick keeps every experiment's shape while running in
// seconds, for the bench harness.
type Scale struct {
	Name          string
	OnlineFrames  int // per stream, online probes
	OfflineFrames int // per stream, offline runs
	Table2Frames  int
	MaxStreamsCap int   // upper bound of the max-streams search
	Fig3Streams   []int // online sweep points
	Fig4Streams   []int
	Fig6TORs      []float64
	BatchSizes    []int
}

// FullScale mirrors the paper's experiment sizes.
func FullScale() Scale {
	return Scale{
		Name:          "full",
		OnlineFrames:  450,
		OfflineFrames: 1500,
		Table2Frames:  5000,
		MaxStreamsCap: 36,
		Fig3Streams:   []int{1, 2, 4, 8, 16, 24, 28, 30, 32},
		Fig4Streams:   []int{1, 2, 4, 5, 6, 8},
		Fig6TORs:      []float64{0.05, 0.103, 0.2, 0.4, 0.6, 0.8, 1.0},
		BatchSizes:    []int{1, 5, 10, 20, 30, 64},
	}
}

// QuickScale preserves every experiment's shape at a fraction of the
// runtime.
func QuickScale() Scale {
	return Scale{
		Name:          "quick",
		OnlineFrames:  240,
		OfflineFrames: 700,
		Table2Frames:  4000,
		MaxStreamsCap: 36,
		Fig3Streams:   []int{1, 4, 16, 28, 30, 32},
		Fig4Streams:   []int{1, 4, 6, 8},
		Fig6TORs:      []float64{0.05, 0.103, 0.4, 1.0},
		BatchSizes:    []int{1, 10, 30, 64},
	}
}

// Table is a rendered experiment artifact.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders an aligned text table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// runOpts describes one FFS-VA run for the harness.
type runOpts struct {
	workload   core.WorkloadKind
	tor        float64
	streams    int
	frames     int
	mode       pipeline.Mode
	policy     pipeline.BatchPolicy
	batch      int
	numObjects int
	tolerance  int
	fd         float64
	hasFD      bool
	seedBase   int64
	mutate     func(*pipeline.Config)
	// torSpread overrides per-stream TORs (Fig. 6b load balance).
	torSpread []float64
	// compressed swaps the shared TinyGrid for the §5.5 compressed
	// high-precision detector.
	compressed bool
}

// run executes one virtual-clock FFS-VA configuration and returns its
// report plus merged accuracy.
func run(o runOpts) (*pipeline.Report, core.Accuracy, error) {
	cam, err := core.Camera(o.workload, o.tor)
	if err != nil {
		return nil, core.Accuracy{}, err
	}
	clk := vclock.NewVirtual()
	cfg := pipeline.DefaultConfig(clk)
	cfg.Mode = o.mode
	cfg.BatchPolicy = o.policy
	if o.batch > 0 {
		cfg.BatchSize = o.batch
	}
	if o.mutate != nil {
		o.mutate(&cfg)
	}
	var det detect.Detector = detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	if o.compressed {
		det = detect.NewCompressed()
	}
	specs := make([]pipeline.StreamSpec, o.streams)
	for i := range specs {
		opt := lab.StreamOptions{
			Seed:            o.seedBase*1_000_003 + int64(i)*7919 + 101,
			Frames:          o.frames,
			NumberOfObjects: o.numObjects,
			Tolerance:       o.tolerance,
			FilterDegree:    o.fd,
			HasFilterDegree: o.hasFD,
		}
		if o.torSpread != nil {
			opt.TOR = o.torSpread[i%len(o.torSpread)]
		}
		specs[i] = cam.Stream(i, det, opt)
	}
	rep := pipeline.New(cfg, specs).Run()
	var acc core.Accuracy
	minObj := o.numObjects
	if minObj < 1 {
		minObj = 1
	}
	for _, sr := range rep.Streams {
		acc.Merge(core.Analyze(sr.Records, minObj))
	}
	return rep, acc, nil
}

// runBaseline executes the YOLOv2-only system on equivalent streams.
func runBaseline(workload core.WorkloadKind, tor float64, streams, frames int, mode pipeline.Mode) *baseline.Report {
	clk := vclock.NewVirtual()
	cfg := baseline.DefaultConfig(clk)
	cfg.Mode = mode
	target := workload.Target()
	specs := make([]baseline.StreamSpec, streams)
	for i := range specs {
		vcfg := vidgen.Small(int64(7000+i), target, tor)
		vcfg.StreamID = i
		specs[i] = baseline.StreamSpec{
			ID: i, Source: vidgen.New(vcfg), Frames: frames, FPS: 30, Target: target,
		}
	}
	return baseline.New(cfg, specs).Run()
}

// maxStreams binary-searches the largest online stream count that stays
// real-time under the given policy.
func maxStreams(workload core.WorkloadKind, tor float64, frames, cap int, policy pipeline.BatchPolicy) (int, error) {
	return maxStreamsOpt(workload, tor, frames, cap, policy, 0, nil)
}

// maxStreamsOpt is maxStreams with an object-count threshold and an
// extra config mutation.
func maxStreamsOpt(workload core.WorkloadKind, tor float64, frames, cap int, policy pipeline.BatchPolicy, numObjects int, mutate func(*pipeline.Config)) (int, error) {
	ok := func(n int) (bool, error) {
		rep, _, err := run(runOpts{
			workload: workload, tor: tor, streams: n, frames: frames,
			mode: pipeline.Online, policy: policy, seedBase: int64(n),
			numObjects: numObjects,
			// The live buffer must be well inside the probe window or an
			// overload can never surface (the paper tolerates online
			// latencies of a few seconds, so the buffer still spans
			// several seconds at full scale).
			mutate: func(c *pipeline.Config) {
				c.IngestBuffer = min(300, frames/3)
				if mutate != nil {
					mutate(c)
				}
			},
		})
		if err != nil {
			return false, err
		}
		return rep.Realtime, nil
	}
	lo, hi := 0, cap // lo: known-good, hi: first unknown bound
	// Exponential probe up, then binary search.
	n := 2
	for n <= cap {
		good, err := ok(n)
		if err != nil {
			return 0, err
		}
		if !good {
			hi = n
			break
		}
		lo = n
		n *= 2
	}
	if n > cap {
		// Everything probed held; check the cap itself.
		good, err := ok(cap)
		if err != nil {
			return 0, err
		}
		if good {
			return cap, nil
		}
		hi = cap
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		good, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if good {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// maxStreamsBaseline finds the YOLOv2 baseline's real-time stream limit.
func maxStreamsBaseline(workload core.WorkloadKind, tor float64, frames, cap int) int {
	lo := 0
	for n := 1; n <= cap; n++ {
		rep := runBaseline(workload, tor, n, frames, pipeline.Online)
		if !rep.Realtime {
			break
		}
		lo = n
	}
	return lo
}

func fps(v float64) string      { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string      { return fmt.Sprintf("%.2f%%", 100*v) }
func ms(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d)/1e6) }
func itoa(v int) string         { return fmt.Sprintf("%d", v) }
func i64(v int64) string        { return fmt.Sprintf("%d", v) }
