// Package device models the heterogeneous hardware FFS-VA schedules onto:
// CPUs executing SDDs and frame decode, one GPU shared by the SNMs and
// T-YOLO, and one GPU dedicated to the reference model (paper §3.1.2).
//
// A Device is a capacity-limited resource bound to the virtual clock.
// Stages call Use to occupy a slot for a modeled service time, which
// reproduces the paper's GPU-scale throughput deterministically on any
// host.
// Service times come from a CostModel calibrated to the speeds the paper
// reports for each model.
package device

import (
	"fmt"
	"time"

	"ffsva/internal/vclock"
)

// Kind distinguishes processor types.
type Kind int

// Device kinds.
const (
	CPU Kind = iota
	GPU
	Disk
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case CPU:
		return "cpu"
	case Disk:
		return "disk"
	default:
		return "gpu"
	}
}

// Model identifies which network (or fixed-function task) a device
// executes; switching models on a device has a cost.
type Model int

// Executable models/tasks.
const (
	ModelNone Model = iota
	ModelDecode
	ModelSDD
	ModelSNM
	ModelTYolo
	ModelRef
	// ModelSpill is the storage transfer of one frame to or from the
	// spill store (§5.5 burst remedy).
	ModelSpill
	// ModelPack is the CPU-side crop-and-pack of one candidate box onto
	// a consolidation canvas (object-level consolidation of the
	// reference tier).
	ModelPack
)

// String names the model.
func (m Model) String() string {
	switch m {
	case ModelDecode:
		return "decode"
	case ModelSDD:
		return "sdd"
	case ModelSNM:
		return "snm"
	case ModelTYolo:
		return "t-yolo"
	case ModelRef:
		return "yolov2"
	case ModelSpill:
		return "spill"
	case ModelPack:
		return "pack"
	default:
		return "none"
	}
}

// Cost describes the service-time model of one Model.
type Cost struct {
	// PerFrame is the compute time per frame once the model is active.
	PerFrame time.Duration
	// Activate is charged each time a device switches to this model
	// (weight upload, kernel setup). Batching amortizes it: a batch of n
	// frames pays Activate once — this is exactly why the paper's
	// dynamic batch mechanism exists (§4.3.2).
	Activate time.Duration
	// Resize is the CPU-side preprocessing charged per frame before this
	// model runs (paper §4.1: 40/150/400 µs for SDD/SNM/T-YOLO).
	Resize time.Duration
	// Memory is the device memory the model occupies when resident.
	Memory int64
}

// CostModel maps models to costs.
type CostModel map[Model]Cost

// Calibrated returns the cost model calibrated to the paper's reported
// speeds on the GTX1080 + Xeon testbed:
//
//	SDD    100K FPS standalone at 100×100 (≈20K FPS in-pipeline w/ resize)
//	SNM    5K FPS at 50×50 (≈2K FPS in-pipeline with batching)
//	T-YOLO 220 FPS at 416×416 (≈200 FPS in-pipeline)
//	YOLOv2 67 FPS at 416×416 (2 streams × 30 FPS per GPU, ≈56 in-pipeline)
//	Resize 40/150/400 µs; decode calibrated so a single offline stream
//	tops out near the paper's measured 404 FPS ceiling.
func Calibrated() CostModel {
	return CostModel{
		ModelDecode: {PerFrame: 2200 * time.Microsecond},
		ModelSDD:    {PerFrame: 10 * time.Microsecond, Resize: 40 * time.Microsecond},
		ModelSNM:    {PerFrame: 200 * time.Microsecond, Activate: 4000 * time.Microsecond, Resize: 150 * time.Microsecond, Memory: 200 << 10},
		ModelTYolo:  {PerFrame: 4500 * time.Microsecond, Activate: 600 * time.Microsecond, Resize: 400 * time.Microsecond, Memory: 1200 << 20},
		ModelRef:    {PerFrame: 14900 * time.Microsecond, Activate: 0, Memory: 1700 << 20},
		// One frame to or from the spill store: a few hundred KB per
		// encoded frame at NVMe-class bandwidth, an order of magnitude
		// cheaper than any GPU stage.
		ModelSpill: {PerFrame: 350 * time.Microsecond},
		// One crop's copy into a canvas: a memcpy of a few tens of KB
		// plus packer bookkeeping, far below any inference charge.
		ModelPack: {PerFrame: 50 * time.Microsecond},
	}
}

// Device is a capacity-limited processor bound to a clock.
type Device struct {
	Name  string
	Kind  Kind
	Slots int

	clk  *vclock.VirtualClock
	cond *vclock.Cond

	inUse     int
	lastModel Model
	busy      time.Duration
	switches  int64
	served    int64

	// adjust, when set, post-processes every computed service time
	// before the device sleeps it (fault injection: slowdowns, stalls).
	// It must be fast and not block.
	adjust func(now, dur time.Duration) time.Duration
}

// SetAdjust installs a service-time hook: every Use/UseResize duration
// is passed through fn (with the current clock time) before being
// slept. The faults package uses it to inject device slowdowns and
// stalls; a nil fn removes the hook.
func (d *Device) SetAdjust(fn func(now, dur time.Duration) time.Duration) {
	d.adjust = fn
}

// New creates a device with the given parallel capacity (1 for a GPU
// executing one kernel stream, >1 for a multi-core CPU).
func New(clk *vclock.VirtualClock, name string, kind Kind, slots int) *Device {
	if slots <= 0 {
		panic(fmt.Sprintf("device: %s: non-positive slots", name))
	}
	return &Device{Name: name, Kind: kind, Slots: slots, clk: clk, cond: clk.NewCond()}
}

// Use occupies one slot for the service time of running model over a
// batch of n frames, blocking while the device is saturated. It returns
// the charged duration (excluding queueing delay).
func (d *Device) Use(model Model, n int, cm CostModel) time.Duration {
	if n <= 0 {
		return 0
	}
	c := cm[model]
	dur := time.Duration(n) * c.PerFrame

	for d.inUse >= d.Slots {
		d.cond.Wait()
	}
	d.inUse++
	// Model switches are only meaningful on single-context devices
	// (GPUs); a multi-core CPU runs heterogeneous tasks freely.
	if d.Slots == 1 && model != d.lastModel {
		dur += c.Activate
		d.switches++
		d.lastModel = model
	}
	if d.adjust != nil {
		dur = d.adjust(d.clk.Now(), dur)
	}

	d.clk.Sleep(dur)

	d.inUse--
	d.busy += dur
	d.served += int64(n)
	d.cond.Signal()
	return dur
}

// UseResize charges the CPU-side resize preprocessing for n frames of the
// given model. It is a convenience over Use with the resize duration.
func (d *Device) UseResize(model Model, n int, cm CostModel) time.Duration {
	c := cm[model]
	if c.Resize <= 0 || n <= 0 {
		return 0
	}
	dur := time.Duration(n) * c.Resize

	for d.inUse >= d.Slots {
		d.cond.Wait()
	}
	d.inUse++
	if d.adjust != nil {
		dur = d.adjust(d.clk.Now(), dur)
	}

	d.clk.Sleep(dur)

	d.inUse--
	d.busy += dur
	// Resize work counts toward served like any other service, so
	// Stats().Served reflects the device's full frame accounting.
	d.served += int64(n)
	d.cond.Signal()
	return dur
}

// Invalidate forgets the device's loaded model, so the next Use pays the
// activation cost again. The per-stream-T-YOLO ablation uses it to model
// reloading a different stream's private detection model on every batch.
func (d *Device) Invalidate() {
	d.lastModel = ModelNone
}

// Stats is a snapshot of device accounting.
type Stats struct {
	Busy     time.Duration
	Switches int64
	Served   int64
	// InUse and Slots describe instantaneous occupancy at snapshot time:
	// the pipeline monitor reports InUse/Slots as the device's live load.
	InUse int
	Slots int
}

// Stats returns accumulated accounting plus instantaneous occupancy.
func (d *Device) Stats() Stats {
	return Stats{Busy: d.busy, Switches: d.switches, Served: d.served, InUse: d.inUse, Slots: d.Slots}
}

// Utilization reports busy time divided by capacity × elapsed.
func (d *Device) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(d.Stats().Busy) / (float64(d.Slots) * float64(elapsed))
}
