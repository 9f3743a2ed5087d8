package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testSizes is every workload at roughly 1/50 of its real size: the
// stream counts that name metrics (the ladder) stay, frames shrink.
func testSizes() sizes {
	return sizes{
		LowTORStreams: 2, LowTORFrames: 60,
		HighTORStreams: 2, HighTORFrames: 25,
		Ladder: []int{28, 32, 36, 40}, KneeFrames: 6, KneeLevel: 32,
		FleetInstances: 2, FleetStreams: 24, FleetFrames: 6,
		FleetArrivalEvery: time.Millisecond,
		ObserverStreams:   40,
		WarmupFrames:      10,
	}
}

// inProcess runs children inside the test binary at test size.
func inProcess(t *testing.T) func(childOpts, ...string) (childResult, error) {
	t.Helper()
	prevBudget, prevSteps := opBudget, calibSteps
	opBudget, calibSteps = time.Millisecond, 1_000_000
	t.Cleanup(func() { opBudget, calibSteps = prevBudget, prevSteps })
	return func(opt childOpts, _ ...string) (childResult, error) {
		opt.Sizes = testSizes()
		return runChild(opt)
	}
}

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesSpec holds BENCHMARK.json and spec.go together:
// same workloads, same metric names, units, directions and bounds.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	wls := workloads()
	if len(b.Workloads) != len(wls) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(wls))
	}
	for i, w := range wls {
		if b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, b.Workloads[i].Name, w.Name)
		}
	}
	var contract []metricDef
	for _, d := range endToEnd {
		if d.Contract {
			contract = append(contract, d)
		}
	}
	if len(b.EndToEnd) != len(contract) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, spec.go marks %d", len(b.EndToEnd), len(contract))
	}
	for i, d := range contract {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, spec.go %+v", i, got, d)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, got.Bound)
		}
		if got.Bound != d.Bound {
			t.Errorf("%s: BENCHMARK.json bound %v, spec.go %v", d.Name, got.Bound, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, spec.go %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, spec.go %+v", i, got, d)
		}
	}
}

// TestEveryMetricEmittedOnce runs every workload end to end at test size
// and checks the two contract lines: exactly the metrics BENCHMARK.json
// names, each once, with its unit and a finite value, and no failures.
func TestEveryMetricEmittedOnce(t *testing.T) {
	b := readBenchmarkJSON(t)
	spawn := inProcess(t)
	for _, wl := range workloads() {
		ses := &session{Workload: wl.Name, Seed: 3, Seconds: 0.001, Rounds: 1, Trace: -1, Width: 2, WideWidth: 2, Sizes: testSizes(), spawn: spawn}
		doc, err := ses.run()
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		wr := doc.Workloads[wl.Name]
		if !doc.correct() {
			t.Errorf("%s: correctness gate: failed=%d breach=%q", wl.Name, wr.Failed, wr.Breach)
		}
		want := map[string]string{}
		for _, m := range b.EndToEnd {
			want[m.Name] = m.Unit
		}
		checkContractLine(t, wl.Name, doc.contractLine(wl.Name, false), want)
		want = map[string]string{}
		for _, m := range b.PerLayer {
			want[m.Name] = m.Unit
		}
		checkContractLine(t, wl.Name, doc.contractLine(wl.Name, true), want)

		// Every end-to-end metric defined on the workload is printed by
		// name, the others are not.
		var out bytes.Buffer
		doc.print(&out)
		for _, d := range endToEnd {
			_, got := wr.Metrics[d.Name]
			if got != d.definedOn(wl.Name) {
				t.Errorf("%s: %s emitted=%v, defined=%v", wl.Name, d.Name, got, d.definedOn(wl.Name))
			}
			if n := strings.Count(out.String(), "\n"+d.Name+" "); got && n != 1 {
				t.Errorf("%s: %s printed %d times", wl.Name, d.Name, n)
			}
		}
		// The traced run accounts for the frame: the shares sum to 1.
		var sum float64
		for _, l := range frameLayers {
			sum += wr.Layers["bench.frame_share."+l].Value
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: frame shares sum to %v, want 1", wl.Name, sum)
		}
	}
}

func checkContractLine(t *testing.T, workload, line string, want map[string]string) {
	t.Helper()
	var got struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: result line: %v\n%s", workload, err, line)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || !*got.Correct || *got.Attempted < 1 || *got.Failed != 0 {
		t.Errorf("%s: result line header wrong: %s", workload, line[:min(len(line), 120)])
	}
	for name, unit := range want {
		m, ok := got.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing from the result line", workload, name)
		case m.Unit != unit:
			t.Errorf("%s: %s has unit %q, want %q", workload, name, m.Unit, unit)
		case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s: %s has no finite value", workload, name)
		}
	}
	for name := range got.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: result line carries %s, which BENCHMARK.json does not name", workload, name)
		}
	}
}

// TestDigestRepeats is the determinism half of the gate: two children of
// one workload and seed agree on every model result.
func TestDigestRepeats(t *testing.T) {
	spawn := inProcess(t)
	a, err := spawn(childOpts{Workload: wlFleet, Seed: 5, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := spawn(childOpts{Workload: wlFleet, Seed: 5, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == "" || a.Digest != b.Digest {
		t.Errorf("digests %q and %q", a.Digest, b.Digest)
	}
	// The seed must reach the streams (offline_hightor: at test size it
	// is the workload whose frames do not all die at SDD).
	c, err := spawn(childOpts{Workload: wlHighTOR, Seed: 5, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := spawn(childOpts{Workload: wlHighTOR, Seed: 6, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest == d.Digest {
		t.Errorf("seeds 5 and 6 gave the same digest %q: the seed does not reach the streams", c.Digest)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if m := median(vals); m != 5.5 {
		t.Errorf("median = %v", m)
	}
	if q1, q3 := quartiles(vals); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// quantiles([1, 2, 4], n=4) = [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v; want 1, 4", q1, q3)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if s := summarize([]float64{90, 100, 110, 120}); math.Abs(s.spread()-((117.5-92.5)/105)) > 1e-12 {
		t.Errorf("spread = %v", s.spread())
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {7680, 99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Duration(1000-i) * time.Millisecond // unsorted on purpose
	}
	st := reduceLatencies(lat)
	if st.TailPct != 99 || st.Tail != 990*time.Millisecond || st.P50 != 500*time.Millisecond || st.Samples != 1000 {
		t.Errorf("reduceLatencies = %+v", st)
	}
}

// TestFastest: the composed pass takes each segment's least wall and
// least CPU time, wherever they occurred; a pass of another shape (one
// that broke off) is left out.
func TestFastest(t *testing.T) {
	seg := func(frames int64, wall, cpu time.Duration) segment {
		return segment{Frames: frames, cost: cost{Wall: wall, CPU: cpu, Mallocs: 7}}
	}
	passes := [][]segment{
		{seg(100, 10*time.Second, 9*time.Second), seg(300, 40*time.Second, 30*time.Second)},
		{seg(100, 12*time.Second, 8*time.Second), seg(300, 30*time.Second, 31*time.Second)},
		{seg(100, time.Second, time.Second)},
	}
	c, frames := fastest(passes)
	if frames != 400 || c.Wall != 40*time.Second || c.CPU != 38*time.Second {
		t.Errorf("fastest = %+v over %d frames, want 40s wall, 38s CPU over 400", c, frames)
	}
	if m := perFrame(c, frames); m["host_fps"] != 10 || m["host_cpu_us_per_frame"] != 95000 {
		t.Errorf("perFrame = %v", m)
	}
	if c, frames := total(passes[0]); frames != 400 || c.Wall != 50*time.Second || c.Mallocs != 14 {
		t.Errorf("total = %+v over %d frames", c, frames)
	}
	if m := perFrame(fastest(nil)); len(m) != 0 {
		t.Errorf("a workload without a pass has per-frame costs %v", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: union is 10..50
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 4, Parent: 1, Name: "d", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{0: 100 - 40 - 10, 1: 20 - 6, 2: 30, 3: 30, 4: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

// handMade builds a one-workload result document: the three metrics the
// cases vary, and a constant for every other one defined on the workload.
func handMade(fps, allocs []float64, modelFPS float64) *document {
	doc := &document{Workloads: map[string]*workloadResult{}}
	metrics := map[string]metricResult{}
	for _, d := range endToEnd {
		if d.definedOn(wlLowTOR) {
			metrics[d.Name] = metricResult{Unit: d.Unit, summary: summarize([]float64{1, 1, 1})}
		}
	}
	metrics["host_fps"] = metricResult{Unit: "1/s", Kind: "host", summary: summarize(fps)}
	metrics["host_allocs_per_frame"] = metricResult{Unit: "count", Kind: "host", summary: summarize(allocs)}
	metrics["model_fps"] = metricResult{Unit: "1/s", Kind: "model", summary: summarize([]float64{modelFPS, modelFPS, modelFPS})}
	doc.Workloads[wlLowTOR] = &workloadResult{Digest: "d", Metrics: metrics}
	return doc
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, doc *document) string {
		path := filepath.Join(dir, name)
		if err := doc.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", handMade([]float64{990, 1000, 1010}, []float64{20, 20, 20}, 800))

	// A regression: allocations per frame up 10% against a 3% bound.
	var out bytes.Buffer
	code := compareFiles(&out, base, write("regressed.json", handMade([]float64{995, 1000, 1005}, []float64{22, 22, 22}, 800)))
	if code != 1 || !rowHas(out.String(), "host_allocs_per_frame", verdictWorse) || !rowHas(out.String(), "host_fps", verdictSame) {
		t.Errorf("regression: exit %d\n%s", code, out.String())
	}

	// Unresolved: the candidate's host_fps spread (47%) is wider than the
	// 25% bound, so a lower median cannot be called a regression.
	out.Reset()
	code = compareFiles(&out, base, write("noisy.json", handMade([]float64{600, 850, 1000}, []float64{20, 20, 20}, 800)))
	if code != 0 || !rowHas(out.String(), "host_fps", verdictUnresolved) {
		t.Errorf("unresolved: exit %d\n%s", code, out.String())
	}

	// A model metric must repeat exactly.
	out.Reset()
	code = compareFiles(&out, base, write("drifted.json", handMade([]float64{990, 1000, 1010}, []float64{20, 20, 20}, 800.5)))
	if code != 1 || !rowHas(out.String(), "model_fps", verdictDiffers) {
		t.Errorf("model difference: exit %d\n%s", code, out.String())
	}

	// Documents measured at different widths, or lacking a metric the
	// workload defines, cannot be compared.
	out.Reset()
	wide := handMade([]float64{990, 1000, 1010}, []float64{20, 20, 20}, 800)
	wide.Host.Width = 2
	if code = compareFiles(&out, base, write("wide.json", wide)); code != 1 || !strings.Contains(out.String(), "not comparable") {
		t.Errorf("width mismatch: exit %d\n%s", code, out.String())
	}
	out.Reset()
	partial := handMade([]float64{990, 1000, 1010}, []float64{20, 20, 20}, 800)
	delete(partial.Workloads[wlLowTOR].Metrics, "host_peak_rss_mb")
	if code = compareFiles(&out, base, write("partial.json", partial)); code != 1 || !rowHas(out.String(), "host_peak_rss_mb", "missing") {
		t.Errorf("missing metric: exit %d\n%s", code, out.String())
	}

	// An improvement beyond the bound is reported and passes.
	out.Reset()
	code = compareFiles(&out, base, write("faster.json", handMade([]float64{1390, 1400, 1410}, []float64{20, 20, 20}, 800)))
	if code != 0 || !rowHas(out.String(), "host_fps", verdictBetter) {
		t.Errorf("improvement: exit %d\n%s", code, out.String())
	}
}

func rowHas(out, metric, verdict string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[1] == metric && f[2] == verdict {
			return true
		}
	}
	return false
}
