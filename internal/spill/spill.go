// Package spill implements the paper's §5.5 remedy for sudden TOR
// bursts: "we can temporarily store these video frames in the storage
// system, to be processed later". A Store is a clock-integrated, unbounded,
// disk-backed overflow buffer. When a stream's capture buffer fills, the
// prefetcher diverts frames to the store (paying a storage write) instead
// of blocking, and a drainer re-injects them — in order — once the
// pipeline has room. Ingest therefore never stalls; the burst shows up as
// latency, not as lost real-time capture.
package spill

import (
	"ffsva/internal/device"
	"ffsva/internal/frame"
	"ffsva/internal/vclock"
)

// Stats is a snapshot of store accounting.
type Stats struct {
	Writes   int64
	Reads    int64
	MaxDepth int
}

// Store is one stream's overflow buffer. All streams of a System share
// one storage device, so concurrent spills contend for disk bandwidth.
// A frame from a capturing source is stored undrawn (see
// pipeline.CaptureSource), so the simulated disk costs the host heap its
// capture record, not its pixels.
type Store struct {
	disk  *device.Device
	costs device.CostModel

	avail *vclock.Cond

	q        []*frame.Frame
	inFlight int // frames popped by the drainer but not yet re-injected
	closed   bool
	stats    Stats
}

// New creates a store backed by the given storage device, which every
// transfer charges at costs' ModelSpill entry. A nil disk charges
// nothing.
func New(clk *vclock.VirtualClock, disk *device.Device, costs device.CostModel) *Store {
	return &Store{disk: disk, costs: costs, avail: clk.NewCond()}
}

// Write appends a frame to the store, paying the storage write cost.
func (s *Store) Write(f *frame.Frame) {
	s.charge()
	s.q = append(s.q, f)
	s.stats.Writes++
	if d := len(s.q) + s.inFlight; d > s.stats.MaxDepth {
		s.stats.MaxDepth = d
	}
	s.avail.Signal()
}

// Read removes the oldest frame, blocking until one is available; ok is
// false once the store is closed and drained. The caller must call
// Delivered after the frame has been re-injected downstream, so Pending
// stays accurate for ordering decisions.
func (s *Store) Read() (f *frame.Frame, ok bool) {
	for len(s.q) == 0 && !s.closed {
		s.avail.Wait()
	}
	if len(s.q) == 0 {
		return nil, false
	}
	f = s.q[0]
	s.q[0] = nil
	s.q = s.q[1:]
	s.inFlight++
	s.stats.Reads++
	s.charge()
	return f, true
}

// charge pays one frame's storage transfer.
func (s *Store) charge() {
	if s.disk != nil {
		s.disk.Use(device.ModelSpill, 1, s.costs)
	}
}

// Delivered marks one read frame as re-injected downstream.
func (s *Store) Delivered() { s.inFlight-- }

// Pending counts frames still owed to the pipeline (queued plus in
// flight). While Pending is non-zero, new frames must also spill or they
// would overtake the stored ones.
func (s *Store) Pending() int { return len(s.q) + s.inFlight }

// Close marks the end of input; readers drain the remainder.
func (s *Store) Close() {
	s.closed = true
	s.avail.Broadcast()
}

// Stats returns accumulated accounting.
func (s *Store) Stats() Stats { return s.stats }
