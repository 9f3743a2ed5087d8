// Registry-layer metric types: gauges, labeled counters, integer
// distributions, and a named registry that exports everything as flat
// samples for the pipeline's periodic observability dumps. The registry
// knows the clock only through the timestamps callers pass in.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Gauge is a settable instantaneous value, safe for concurrent use.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add adjusts the gauge by d (negative to decrease).
func (g *Gauge) Add(d float64) {
	g.mu.Lock()
	g.v += d
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// LabeledCounter is a family of counters keyed by a label value, e.g.
// frames_disposed{disposition}. Safe for concurrent use.
type LabeledCounter struct {
	mu sync.Mutex
	m  map[string]*Counter
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
	}
	return c
}

// Values returns a copy of the per-label counts.
func (lc *LabeledCounter) Values() map[string]int64 {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make(map[string]int64, len(lc.m))
	for k, c := range lc.m {
		out[k] = c.Value()
	}
	return out
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

// Counts returns a copy of the per-value counts, indexed by value.
func (d *IntDist) Counts() []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int64(nil), d.counts...)
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
	mu    sync.Mutex
	order []string
	items map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: make(map[string]any)}
}

// register stores a metric under name, panicking on a kind-conflicting
// re-registration; an existing metric of the right type is returned so
// idempotent registration is safe.
func register[T any](r *Registry, name string, make func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.items[name]; ok {
		t, ok := got.(T)
		if !ok {
			panic(fmt.Sprintf("metrics: %s re-registered as a different kind", name))
		}
		return t
	}
	t := make()
	r.items[name] = t
	r.order = append(r.order, name)
	return t
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return register(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return register(r, name, func() *Gauge { return &Gauge{} })
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
func (r *Registry) Export(now time.Duration) []Sample {
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	items := make(map[string]any, len(r.items))
	for k, v := range r.items {
		items[k] = v
	}
	r.mu.Unlock()

	var out []Sample
	for _, name := range order {
		switch m := items[name].(type) {
		case *Counter:
			out = append(out, Sample{name, "counter", float64(m.Value())})
		case *Gauge:
			out = append(out, Sample{name, "gauge", m.Value()})
		case *LabeledCounter:
			vals := m.Values()
			labels := make([]string, 0, len(vals))
			for l := range vals {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			for _, l := range labels {
				out = append(out, Sample{fmt.Sprintf("%s{%s}", name, l), "counter", float64(vals[l])})
			}
		case *IntDist:
			out = append(out,
				Sample{name + "_count", "dist", float64(m.Count())},
				Sample{name + "_mean", "dist", m.Mean()},
				Sample{name + "_max", "dist", float64(m.Max())})
		case *Meter:
			out = append(out, Sample{name, "meter", m.Rate(now)})
		case *Histogram:
			out = append(out,
				Sample{name + "_count", "histogram", float64(m.Count())},
				Sample{name + "_mean_seconds", "histogram", m.Mean().Seconds()},
				Sample{name + "_p50_seconds", "histogram", m.Quantile(0.5).Seconds()},
				Sample{name + "_p95_seconds", "histogram", m.Quantile(0.95).Seconds()},
				Sample{name + "_p99_seconds", "histogram", m.Quantile(0.99).Seconds()},
				Sample{name + "_max_seconds", "histogram", m.Max().Seconds()})
		}
	}
	return out
}
