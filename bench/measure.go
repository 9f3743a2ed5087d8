package main

import (
	"runtime"
	"syscall"
	"time"
)

// wallNow is the benchmark's one wall-clock read; wallSince derives from
// it, so the detnow suppression below covers every host-time measurement
// in this package.
func wallNow() time.Time {
	//lint:allow detnow host_* metrics are wall-clock costs of the Go code; every read goes through this helper
	return time.Now()
}

func wallSince(t time.Time) time.Duration { return wallNow().Sub(t) }

// usage is one reading of the counters host_* metrics are deltas of.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user+sys of this process
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: wallNow(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// cost is what a timed region spent.
type cost struct {
	Wall    time.Duration `json:"wall_ns"`
	CPU     time.Duration `json:"cpu_ns"`
	Mallocs uint64        `json:"mallocs"`
	Bytes   uint64        `json:"bytes"`
}

// segment is one Run of the system inside a timed pass — the whole pass
// on three workloads, one ladder level on online_knee — with the frames
// it carried. Only the Run itself is inside: assembling the outcome from
// the report is the benchmark's own work and stays out of host_*.
type segment struct {
	Frames int64 `json:"frames"`
	cost
}

// perFrame turns what a timed region spent on so many frames into the
// four per-frame host metrics.
func perFrame(c cost, frames int64) map[string]float64 {
	if frames == 0 || c.Wall == 0 {
		return map[string]float64{} // a pass that never ran (it panicked) has no costs
	}
	n := float64(frames)
	return map[string]float64{
		"host_fps":              n / c.Wall.Seconds(),
		"host_cpu_us_per_frame": us(c.CPU) / n,
		"host_allocs_per_frame": float64(c.Mallocs) / n,
		"host_bytes_per_frame":  float64(c.Bytes) / n,
	}
}

// total is a pass's cost: the sum of its segments.
func total(pass []segment) (c cost, frames int64) {
	for _, s := range pass {
		c.add(s.cost)
		frames += s.Frames
	}
	return c, frames
}

// fastest composes the fastest pass the samples support: segment by
// segment, the least wall time and the least CPU time any pass spent on
// it. On a shared host other tenants only ever slow a run down, in spells
// of seconds to a minute, so the least time is the one reading of a
// segment that was not disturbed, and taking it per segment lets a long
// pass be clean in parts. Allocation counts do not depend on the host and
// are not composed.
func fastest(passes [][]segment) (c cost, frames int64) {
	if len(passes) == 0 {
		return c, 0
	}
	for i, s := range passes[0] {
		wall, cpu := s.Wall, s.CPU
		for _, p := range passes[1:] {
			if len(p) == len(passes[0]) {
				wall, cpu = min(wall, p[i].Wall), min(cpu, p[i].CPU)
			}
		}
		c.Wall += wall
		c.CPU += cpu
		frames += s.Frames
	}
	return c, frames
}

func (u usage) since() cost {
	now := readUsage()
	return cost{
		Wall:    now.wall.Sub(u.wall),
		CPU:     now.cpu - u.cpu,
		Mallocs: now.mallocs - u.mallocs,
		Bytes:   now.bytes - u.bytes,
	}
}

func (c *cost) add(d cost) {
	c.Wall += d.Wall
	c.CPU += d.CPU
	c.Mallocs += d.Mallocs
	c.Bytes += d.Bytes
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// calibSink keeps the spin's result live so the loop is not removed.
var calibSink uint64

// calibSteps is the spin's fixed work; the tests shorten it.
var calibSteps = 50_000_000

// calibrate runs a fixed amount of integer work (~100 ms on the host the
// sizes were chosen on) and returns how long it took. It is the noise
// guard's only input: a slow reading means the shared host is busy now,
// whatever the benchmark is about to measure.
func calibrate() time.Duration {
	t := wallNow()
	x := uint64(88172645463325252)
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return wallSince(t)
}
