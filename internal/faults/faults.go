// Package faults provides deterministic, clock-integrated fault
// injection for the FFS-VA pipeline and cluster: source decode errors,
// frame corruption, device slowdowns and stalls, and whole-instance
// crashes at a chosen virtual time.
//
// A fault plan is data ([]Fault), so the same plan replays identically
// under the virtual clock: stream-level faults key on (stream, source
// sequence number), device-level faults on (device name, clock time),
// and crashes on (instance, clock time). The injector holds no hidden
// randomness — every decision is a pure function of the plan and those
// coordinates — which is what lets the failure tests assert exact frame
// accounting.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind classifies an injected fault.
type Kind int

// Fault kinds.
const (
	// DecodeError makes a stream's frame decode fail for Attempts
	// consecutive tries; the pipeline retries within its budget and
	// abandons the frame (DropError) beyond it.
	DecodeError Kind = iota
	// CorruptFrame delivers the frame with a scrambled pixel plane and
	// the Corrupt flag set; the pipeline rejects it before filtering.
	CorruptFrame
	// DeviceSlow multiplies a device's service times by Factor while the
	// clock is inside [From, Until).
	DeviceSlow
	// DeviceStall freezes a device: work starting inside [From, Until)
	// additionally waits out the rest of the window before computing.
	DeviceStall
	// InstanceCrash kills a whole instance at time From: ingest halts,
	// in-flight frames drain to DropError, and the heartbeat stops so a
	// cluster manager can detect the death and re-forward the streams.
	InstanceCrash
)

// String names the kind (matching the Parse spec prefixes).
func (k Kind) String() string {
	switch k {
	case DecodeError:
		return "decode"
	case CorruptFrame:
		return "corrupt"
	case DeviceSlow:
		return "slow"
	case DeviceStall:
		return "stall"
	case InstanceCrash:
		return "crash"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one scheduled failure. Which fields matter depends on Kind:
// stream-level faults (DecodeError, CorruptFrame) follow a stream across
// instances and ignore Instance; device-level faults and crashes bind to
// one instance.
type Fault struct {
	Kind Kind
	// Stream is the target stream id for stream-level faults; negative
	// matches every stream.
	Stream int
	// SeqFrom/SeqTo is the half-open source-sequence window [SeqFrom,
	// SeqTo) of affected frames.
	SeqFrom, SeqTo int64
	// Attempts is how many consecutive decode attempts fail per affected
	// frame (DecodeError; default 1). More failures than the pipeline's
	// retry budget lose the frame.
	Attempts int
	// Device names the target device for DeviceSlow/DeviceStall: "cpu",
	// "gpu0", "gpu1", "ssd". Empty matches every device.
	Device string
	// Instance selects the target instance for device-level faults and
	// crashes (0 in single-instance runs).
	Instance int
	// From/Until is the active clock window [From, Until); Until is
	// ignored for InstanceCrash (the crash fires at From).
	From, Until time.Duration
	// Factor is the DeviceSlow service-time multiplier (2 = half speed),
	// in (0, 1e6] when parsed.
	Factor float64
}

// maxFactor bounds a DeviceSlow factor: a millionfold slowdown already
// turns a 15 ms inference into four hours, and a larger one is a stall.
const maxFactor = 1e6

// forever is the longest service time an adjustment yields; it saturates
// there instead of wrapping negative.
const forever = time.Duration(math.MaxInt64)

// String renders the fault in Parse syntax.
func (f Fault) String() string {
	switch f.Kind {
	case DecodeError:
		return fmt.Sprintf("decode:stream=%d,seq=%d-%d,attempts=%d", f.Stream, f.SeqFrom, f.SeqTo, f.Attempts)
	case CorruptFrame:
		return fmt.Sprintf("corrupt:stream=%d,seq=%d-%d", f.Stream, f.SeqFrom, f.SeqTo)
	case DeviceSlow:
		return fmt.Sprintf("slow:inst=%d,dev=%s,from=%v,until=%v,x=%g", f.Instance, f.Device, f.From, f.Until, f.Factor)
	case DeviceStall:
		return fmt.Sprintf("stall:inst=%d,dev=%s,from=%v,until=%v", f.Instance, f.Device, f.From, f.Until)
	default:
		return fmt.Sprintf("crash:inst=%d,at=%v", f.Instance, f.From)
	}
}

// StreamLevel reports whether the fault follows a stream rather than an
// instance.
func (f Fault) StreamLevel() bool {
	return f.Kind == DecodeError || f.Kind == CorruptFrame
}

// ForInstance selects the faults one instance must enforce: every
// stream-level fault (streams migrate, so their faults travel with the
// source) plus the device-level faults bound to that instance. Crashes
// are excluded — they are scheduled as clock processes via Crashes, not
// checked per operation.
func ForInstance(plan []Fault, instance int) []Fault {
	var out []Fault
	for _, f := range plan {
		switch {
		case f.StreamLevel():
			out = append(out, f)
		case f.Kind != InstanceCrash && f.Instance == instance:
			out = append(out, f)
		}
	}
	return out
}

// Crash is one scheduled instance death.
type Crash struct {
	Instance int
	At       time.Duration
}

// Crashes extracts the crash schedule from a plan, ordered by (time,
// instance) so callers can spawn timer processes deterministically.
func Crashes(plan []Fault) []Crash {
	var out []Crash
	for _, f := range plan {
		if f.Kind == InstanceCrash {
			out = append(out, Crash{Instance: f.Instance, At: f.From})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Instance < out[j].Instance
	})
	return out
}

// CrashTime returns the earliest scheduled crash of the given instance.
func CrashTime(plan []Fault, instance int) (time.Duration, bool) {
	for _, c := range Crashes(plan) {
		if c.Instance == instance {
			return c.At, true
		}
	}
	return 0, false
}

// Injector answers the pipeline's fault queries for one instance's fault
// set. All methods are pure functions of the plan, so concurrent stage
// processes may call them freely.
type Injector struct {
	faults []Fault
}

// NewInjector builds an injector over a fault set (typically
// ForInstance(plan, i)).
func NewInjector(fs []Fault) *Injector {
	return &Injector{faults: append([]Fault(nil), fs...)}
}

// DecodeFailures returns how many consecutive decode attempts fail for
// the frame (stream, seq) — the largest Attempts among matching
// DecodeError faults, 0 when none match.
func (inj *Injector) DecodeFailures(stream int, seq int64) int {
	n := 0
	for _, f := range inj.faults {
		if f.Kind != DecodeError || !matchStream(f, stream, seq) {
			continue
		}
		a := f.Attempts
		if a <= 0 {
			a = 1
		}
		if a > n {
			n = a
		}
	}
	return n
}

// Corrupts reports whether the frame (stream, seq) is delivered with a
// corrupted payload.
func (inj *Injector) Corrupts(stream int, seq int64) bool {
	for _, f := range inj.faults {
		if f.Kind == CorruptFrame && matchStream(f, stream, seq) {
			return true
		}
	}
	return false
}

// AdjustServiceTime applies active device faults to a nominal service
// time: DeviceSlow multiplies it, DeviceStall prepends the wait until
// the stall window ends. Faults compose in plan order, and the result
// saturates rather than overflow. It is the hook behind
// pipeline.Config.AdjustService.
func (inj *Injector) AdjustServiceTime(dev string, now, dur time.Duration) time.Duration {
	for _, f := range inj.faults {
		if f.Device != "" && f.Device != dev {
			continue
		}
		if now < f.From || now >= f.Until {
			continue
		}
		switch f.Kind {
		case DeviceSlow:
			if d := float64(dur) * f.Factor; d >= float64(forever) {
				dur = forever
			} else if f.Factor > 0 {
				dur = time.Duration(d)
			}
		case DeviceStall:
			if wait := f.Until - now; dur > forever-wait {
				dur = forever
			} else {
				dur += wait
			}
		}
	}
	return dur
}

func matchStream(f Fault, stream int, seq int64) bool {
	if f.Stream >= 0 && f.Stream != stream {
		return false
	}
	return seq >= f.SeqFrom && seq < f.SeqTo
}

// hasStreamFaults reports whether any stream-level fault can ever hit
// the stream, so WrapSource can skip wrapping healthy sources.
func (inj *Injector) hasStreamFaults(stream int) bool {
	for _, f := range inj.faults {
		if f.StreamLevel() && (f.Stream < 0 || f.Stream == stream) {
			return true
		}
	}
	return false
}

// Parse decodes one -inject flag specification:
//
//	crash:inst=1,at=8s
//	slow:dev=gpu0,from=2s,until=10s,x=2[,inst=0]
//	stall:dev=gpu1,from=3s,until=4s[,inst=0]
//	decode:stream=0,seq=100-200[,attempts=3]
//	corrupt:stream=0,seq=100-200
//
// stream=-1 targets every stream; an empty dev targets every device.
// Each kind takes only the keys its String rendering prints (at and from
// are one key), so an accepted spec round-trips. Times must not be
// negative, a device window must end after it starts (and a stall's must
// end), attempts must be
// at least 1, and a slow factor must lie in (0, maxFactor].
func Parse(s string) (Fault, error) {
	kind, rest, found := strings.Cut(s, ":")
	if !found {
		return Fault{}, fmt.Errorf("faults: %q: want kind:key=value,...", s)
	}
	f := Fault{Stream: -1, Attempts: 1, Until: forever}
	switch kind {
	case "decode":
		f.Kind = DecodeError
	case "corrupt":
		f.Kind = CorruptFrame
	case "slow":
		f.Kind = DeviceSlow
	case "stall":
		f.Kind = DeviceStall
	case "crash":
		f.Kind = InstanceCrash
	default:
		return Fault{}, fmt.Errorf("faults: unknown kind %q in %q", kind, s)
	}
	seqSet := false
	for _, kv := range strings.Split(rest, ",") {
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Fault{}, fmt.Errorf("faults: %q: bad pair %q", s, kv)
		}
		if !strings.Contains(kindKeys[f.Kind], " "+k+" ") {
			return Fault{}, fmt.Errorf("faults: %q: unknown key %q for %s", s, k, f.Kind)
		}
		var err error
		switch k {
		case "inst":
			f.Instance, err = strconv.Atoi(v)
		case "stream":
			f.Stream, err = strconv.Atoi(v)
		case "attempts":
			f.Attempts, err = strconv.Atoi(v)
		case "dev":
			f.Device = v
		case "at", "from":
			f.From, err = time.ParseDuration(v)
		case "until":
			f.Until, err = time.ParseDuration(v)
		case "x":
			f.Factor, err = strconv.ParseFloat(v, 64)
		case "seq":
			lo, hi, ok := strings.Cut(v, "-")
			if !ok {
				return Fault{}, fmt.Errorf("faults: %q: seq wants A-B, got %q", s, v)
			}
			if f.SeqFrom, err = strconv.ParseInt(lo, 10, 64); err == nil {
				f.SeqTo, err = strconv.ParseInt(hi, 10, 64)
			}
			seqSet = true
		}
		if err != nil {
			return Fault{}, fmt.Errorf("faults: %q: bad value for %s: %v", s, k, err)
		}
	}
	switch {
	case f.Attempts < 1:
		return Fault{}, fmt.Errorf("faults: %q: attempts must be at least 1", s)
	case f.From < 0 || f.Until < 0:
		return Fault{}, fmt.Errorf("faults: %q: times must not be negative", s)
	}
	switch f.Kind {
	case DecodeError, CorruptFrame:
		if !seqSet || f.SeqTo <= f.SeqFrom {
			return Fault{}, fmt.Errorf("faults: %q: needs a non-empty seq=A-B window", s)
		}
	case DeviceSlow, DeviceStall:
		if f.Until <= f.From || (f.Kind == DeviceStall && f.Until == forever) {
			return Fault{}, fmt.Errorf("faults: %q: needs from < until, and a stall an until", s)
		}
		// Written so a NaN factor fails too.
		if f.Kind == DeviceSlow && !(f.Factor > 0 && f.Factor <= maxFactor) {
			return Fault{}, fmt.Errorf("faults: %q: slow needs 0 < x <= %g", s, float64(maxFactor))
		}
	}
	return f, nil
}

// kindKeys lists, space-delimited, the spec keys each kind takes.
var kindKeys = map[Kind]string{
	DecodeError:   " stream seq attempts ",
	CorruptFrame:  " stream seq ",
	DeviceSlow:    " inst dev from at until x ",
	DeviceStall:   " inst dev from at until ",
	InstanceCrash: " inst at from ",
}
