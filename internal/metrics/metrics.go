// Package metrics provides the counters, rate meters and latency
// histograms FFS-VA's pipeline and its evaluation harness report:
// per-filter frame counts (Fig. 5), throughput in FPS (Figs. 3/4/9/10),
// and end-to-end frame latency distributions (Figs. 3/9/10). All types
// take explicit clock timestamps so they work identically under real and
// virtual time.
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count, safe for concurrent
// use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram records duration observations in exponential buckets and
// answers approximate quantile queries. The zero value is not usable;
// call NewHistogram.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
	maxV   atomic.Int64
}

// NewHistogram returns a histogram with ~60 exponential buckets spanning
// 10µs to ~20min, adequate for frame latencies from sub-millisecond
// filtering to multi-second queueing.
func NewHistogram() *Histogram {
	var bounds []time.Duration
	for b := 10 * time.Microsecond; b < 20*time.Minute; b = b * 5 / 4 {
		bounds = append(bounds, b)
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := h.bucket(d)
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
	for {
		cur := h.maxV.Load()
		if int64(d) <= cur || h.maxV.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

func (h *Histogram) bucket(d time.Duration) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if d <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxV.Load()) }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the winning bucket, assuming observations are uniformly spread
// between the bucket's bounds. Returning the bucket's upper bound instead
// (the naive reading) over-reports by up to the bucket ratio — 25% here,
// and worse at low counts where one bucket holds most of the mass. The
// interpolated position is clamped by the observed maximum, so a bucket
// that holds the distribution's tail cannot report beyond it; the
// overflow bucket (beyond the last bound) reports Max.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if cum+c >= target && c > 0 {
			if i >= len(h.bounds) {
				return h.Max()
			}
			lo := time.Duration(0)
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			// All observations are ≤ Max, so when the global maximum falls
			// inside this bucket it is the bucket's true upper edge. (It can
			// only fall below lo when every observation in the first bucket
			// is 0.)
			if mx := h.Max(); mx < hi {
				hi = mx
				if hi < lo {
					lo = hi
				}
			}
			frac := float64(target-cum) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	return h.Max()
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

// Meter measures event rates over a sliding window of fixed-size time
// slots; the pipeline monitor uses it to detect the paper's "T-YOLO
// below 140 FPS for 5 s" spare-capacity signal.
type Meter struct {
	slot  time.Duration
	slots int
	buf   []int64
	base  int64 // slot index of buf[0]
	// first is the slot index of the first Mark ever, or -1. Rate divides
	// by the span actually observed since then, never by unelapsed window.
	first int64
}

// NewMeter creates a meter with the given slot width and window length in
// slots. Meter is not safe for concurrent use: its users are the virtual
// clock's processes, which never run at the same time.
func NewMeter(slot time.Duration, slots int) *Meter {
	if slot <= 0 || slots <= 0 {
		panic("metrics: NewMeter requires positive slot and window")
	}
	return &Meter{slot: slot, slots: slots, buf: make([]int64, slots), base: -1, first: -1}
}

// Mark records n events at time now.
func (m *Meter) Mark(now time.Duration, n int64) {
	idx := int64(now / m.slot)
	if m.first < 0 {
		m.first = idx
	}
	m.advance(idx)
	m.buf[idx-m.base] += n
}

// advance rolls the window forward so idx is representable.
func (m *Meter) advance(idx int64) {
	if m.base < 0 {
		m.base = idx - int64(m.slots) + 1
		if m.base < 0 {
			m.base = 0
		}
	}
	for idx-m.base >= int64(m.slots) {
		copy(m.buf, m.buf[1:])
		m.buf[m.slots-1] = 0
		m.base++
	}
}

// Rate returns events per second over the window ending at now. Before
// the window has filled it divides by the span observed since the first
// Mark (clamped to at least one slot), not the full window — otherwise a
// freshly created meter under-reports by up to slots× and, e.g., the
// cluster manager's 140 FPS spare-capacity check would see false spare
// capacity right after admission.
func (m *Meter) Rate(now time.Duration) float64 {
	idx := int64(now / m.slot)
	m.advance(idx)
	if m.first < 0 {
		return 0
	}
	var total int64
	for _, v := range m.buf {
		total += v
	}
	span := now - time.Duration(m.first)*m.slot
	if span < m.slot {
		span = m.slot
	}
	if window := time.Duration(m.slots) * m.slot; span > window {
		span = window
	}
	return float64(total) / span.Seconds()
}
