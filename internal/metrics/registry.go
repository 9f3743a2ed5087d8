// Registry-layer metric types: labeled counters, integer
// distributions, and a named registry that exports everything as flat
// samples for the pipeline's periodic observability dumps. The registry
// knows the clock only through the timestamps callers pass in.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// LabeledCounter is a family of counters keyed by a label value, e.g.
// frames_disposed{disposition}. Safe for concurrent use.
type LabeledCounter struct {
	mu sync.Mutex
	m  map[string]*Counter
	// labels lists the keys of m in sorted order, the order exports use.
	labels []string
}

// With returns the counter for the given label, creating it on first use.
func (lc *LabeledCounter) With(label string) *Counter {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.m == nil {
		lc.m = make(map[string]*Counter)
	}
	c := lc.m[label]
	if c == nil {
		c = &Counter{}
		lc.m[label] = c
		i, _ := slices.BinarySearch(lc.labels, label)
		lc.labels = slices.Insert(lc.labels, i, label)
	}
	return c
}

// each calls fn with every label and its count, in sorted label order.
func (lc *LabeledCounter) each(fn func(label string, v int64)) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, l := range lc.labels {
		fn(l, lc.m[l].Value())
	}
}

// IntDist is a distribution of small non-negative integers — the SNM
// batch-size distribution in the pipeline. Safe for concurrent use.
type IntDist struct {
	mu     sync.Mutex
	counts []int64
	n      int64
	sum    int64
	max    int
}

// Observe records one value (negative values are clamped to 0).
func (d *IntDist) Observe(v int) {
	if v < 0 {
		v = 0
	}
	d.mu.Lock()
	for v >= len(d.counts) {
		d.counts = append(d.counts, 0)
	}
	d.counts[v]++
	d.n++
	d.sum += int64(v)
	if v > d.max {
		d.max = v
	}
	d.mu.Unlock()
}

// Count returns the number of observations.
func (d *IntDist) Count() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Mean returns the average observation, or 0 when empty.
func (d *IntDist) Mean() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.n)
}

// Max returns the largest observation.
func (d *IntDist) Max() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.max
}

// Counts returns the per-value counts, indexed by value: prev itself
// when it still holds exactly them, otherwise a new slice. The result is
// read-only, which is what lets a caller hand the same slice out again.
func (d *IntDist) Counts(prev []int64) []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if slices.Equal(prev, d.counts) {
		return prev
	}
	return slices.Clone(d.counts)
}

// Sample is one exported metric value. Labeled counters flatten to one
// sample per label (Name{label}); histograms and distributions flatten to
// suffixed summary samples (name_count, name_mean, ...).
type Sample struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
}

// Registry is a named collection of metrics with a uniform export. It is
// clock-aware: Export takes the current clock time so rate meters resolve
// against it. Registration is safe for concurrent use, but a Meter is
// not, so Export runs where its Meters are marked (a clock process).
// Registration order is preserved in exports.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byName  map[string]*entry

	// scratch is where Export assembles samples; last is the slice it
	// most recently returned, handed out again while nothing differs.
	scratch []Sample
	last    []Sample
}

// entry is one registered metric with its sample names, formatted once.
type entry struct {
	metric any
	// names are the sample names of a fixed-shape metric, in export
	// order; a labeled counter's are in labeled, keyed by label.
	names   []string
	labeled map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// newEntry formats the sample names a metric flattens to.
func newEntry(name string, metric any) *entry {
	e := &entry{metric: metric, names: []string{name}}
	switch metric.(type) {
	case *LabeledCounter:
		e.labeled = make(map[string]string)
	case *IntDist:
		e.names = []string{name + "_count", name + "_mean", name + "_max"}
	case *Histogram:
		e.names = []string{name + "_count", name + "_mean_seconds", name + "_p50_seconds",
			name + "_p95_seconds", name + "_p99_seconds", name + "_max_seconds"}
	}
	return e
}

// register stores a metric under name, panicking on a kind-conflicting
// re-registration; an existing metric of the right type is returned so
// idempotent registration is safe.
func register[T any](r *Registry, name string, build func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byName[name]; ok {
		t, ok := got.metric.(T)
		if !ok {
			panic(fmt.Sprintf("metrics: %s re-registered as a different kind", name))
		}
		return t
	}
	t := build()
	e := newEntry(name, t)
	r.byName[name] = e
	r.entries = append(r.entries, e)
	return t
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return register(r, name, func() *Counter { return &Counter{} })
}

// LabeledCounter returns the named labeled counter, creating it on first
// use.
func (r *Registry) LabeledCounter(name string) *LabeledCounter {
	return register(r, name, func() *LabeledCounter { return &LabeledCounter{} })
}

// IntDist returns the named integer distribution, creating it on first
// use.
func (r *Registry) IntDist(name string) *IntDist {
	return register(r, name, func() *IntDist { return &IntDist{} })
}

// Meter returns the named rate meter, creating it on first use with the
// given slot width and window length.
func (r *Registry) Meter(name string, slot time.Duration, slots int) *Meter {
	return register(r, name, func() *Meter { return NewMeter(slot, slots) })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return register(r, name, func() *Histogram { return NewHistogram() })
}

// Export flattens every registered metric into samples, in registration
// order. now is the current clock time, used to resolve meter rates.
// The result is read-only and shared: while every sample equals the
// previous export's, Export returns that same slice and allocates
// nothing.
func (r *Registry) Export(now time.Duration) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.scratch[:0]
	for _, e := range r.entries {
		n := e.names
		switch m := e.metric.(type) {
		case *Counter:
			out = append(out, Sample{n[0], "counter", float64(m.Value())})
		case *LabeledCounter:
			m.each(func(label string, v int64) {
				name, ok := e.labeled[label]
				if !ok {
					name = fmt.Sprintf("%s{%s}", n[0], label)
					e.labeled[label] = name
				}
				out = append(out, Sample{name, "counter", float64(v)})
			})
		case *IntDist:
			out = append(out,
				Sample{n[0], "dist", float64(m.Count())},
				Sample{n[1], "dist", m.Mean()},
				Sample{n[2], "dist", float64(m.Max())})
		case *Meter:
			out = append(out, Sample{n[0], "meter", m.Rate(now)})
		case *Histogram:
			out = append(out,
				Sample{n[0], "histogram", float64(m.Count())},
				Sample{n[1], "histogram", m.Mean().Seconds()},
				Sample{n[2], "histogram", m.Quantile(0.5).Seconds()},
				Sample{n[3], "histogram", m.Quantile(0.95).Seconds()},
				Sample{n[4], "histogram", m.Quantile(0.99).Seconds()},
				Sample{n[5], "histogram", m.Max().Seconds()})
		}
	}
	r.scratch = out
	if !slices.EqualFunc(out, r.last, sameSample) {
		r.last = slices.Clone(out)
	}
	return r.last
}

// sameSample reports whether two samples render identically: values are
// compared bit for bit, so -0 and NaN are never mistaken for 0 or equal.
func sameSample(a, b Sample) bool {
	return a.Name == b.Name && a.Kind == b.Kind && math.Float64bits(a.Value) == math.Float64bits(b.Value)
}
