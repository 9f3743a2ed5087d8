package faults

import (
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
)

// FrameSource matches pipeline.FrameSource without importing it.
type FrameSource interface {
	Next() *frame.Frame
}

// WrapSource wraps a stream's frame source with the injector's
// stream-level faults (decode errors, corruption). Sources with no
// matching faults are returned unchanged, so healthy streams pay
// nothing. The wrapper travels with the stream across instance
// migrations, exactly like the underlying source.
func (inj *Injector) WrapSource(src FrameSource, stream int) FrameSource {
	if !inj.hasStreamFaults(stream) {
		return src
	}
	return &Source{inner: src, inj: inj, stream: stream}
}

// Source is a frame source with scheduled decode failures and frame
// corruption. It implements the pipeline's FallibleSource protocol: the
// prefetcher probes DecodeFails before each pull, retrying within its
// budget, and calls Discard to abandon a frame whose failures exhaust
// the budget — the frame slot is consumed (sequence numbers stay
// aligned with the record ledger) but no frame is delivered.
type Source struct {
	inner  FrameSource
	inj    *Injector
	stream int
	// seq is the source sequence number of the next frame; attempts
	// counts the decode failures already surfaced for it.
	seq      int64
	attempts int
}

// DecodeFails reports whether the next decode attempt of the current
// frame fails, consuming one scheduled failure. Not safe for concurrent
// use — only the stream's single prefetcher calls it.
func (s *Source) DecodeFails() bool {
	if s.attempts < s.inj.DecodeFailures(s.stream, s.seq) {
		s.attempts++
		return true
	}
	return false
}

// Next delivers the current frame (a successful decode), applying any
// scheduled corruption.
func (s *Source) Next() *frame.Frame {
	return s.deliver(s.inner.Next())
}

// Capture is Next without drawing, when the inner source can capture
// (see pipeline.CaptureSource); the corruption decision is the same,
// made at capture, and marks the frame — a captured corrupt frame is
// rejected before anything draws it.
func (s *Source) Capture() *frame.Frame {
	return s.deliver(s.capture())
}

// Discard consumes the current frame without delivering it, for frames
// whose decode failed past the retry budget. Nothing is drawn for it
// when the inner source can capture; a drawn frame's plane goes back to
// its pool.
func (s *Source) Discard() {
	if f := s.capture(); f != nil {
		f.Release()
	}
	s.seq++
	s.attempts = 0
}

// capture takes the inner source's next frame, undrawn when it can.
func (s *Source) capture() *frame.Frame {
	if c, ok := s.inner.(interface{ Capture() *frame.Frame }); ok {
		return c.Capture()
	}
	return s.inner.Next()
}

// deliver applies the current frame's scheduled corruption and moves to
// the next frame.
func (s *Source) deliver(f *frame.Frame) *frame.Frame {
	if s.inj.Corrupts(s.stream, s.seq) {
		corrupt(f)
	}
	s.seq++
	s.attempts = 0
	return f
}

// SharedBackground exposes the inner source's trained background so
// cluster re-forwarding can re-seed the target instance's detector
// through the wrapper; see SourceBackground for what it returns.
func (s *Source) SharedBackground() *imgproc.Gray { return SourceBackground(s.inner) }

// SourceBackground returns the source's true background as a plane to
// read, not to write: the viewpoint's shared one when the source offers
// it (SharedBackground — nothing is copied), else a copy (Background),
// nil when the source has neither.
func SourceBackground(src FrameSource) *imgproc.Gray {
	switch src := src.(type) {
	case interface{ SharedBackground() *imgproc.Gray }:
		return src.SharedBackground()
	case interface{ Background() *imgproc.Gray }:
		return src.Background()
	}
	return nil
}

// corrupt deterministically scrambles a frame's payload and marks it,
// modeling a bitstream error that survives the decoder. The XOR pattern
// destroys the spatial structure the filters rely on while keeping the
// damage reproducible. A frame not drawn yet has no payload to scramble
// and is only marked.
func corrupt(f *frame.Frame) {
	f.Corrupt = true
	for i := 0; i < len(f.Pix); i += 3 {
		f.Pix[i] ^= 0xA5
	}
}
