package train

import (
	"ffsva/internal/detect"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/nn"
)

// Sample is what training keeps of one frame — 20 KB, whatever the frame
// weighed: its reference-model labels, the SDDSize² plane the SDD
// reference and δdiff are fitted on, and the normalised SNMSize² input
// the SNM is trained on. Both are derived exactly as the runtime filters
// derive them, so fitted thresholds and weights transfer.
type Sample struct {
	Plane *imgproc.Gray
	Input *nn.Tensor
	// Has is true when the reference model found an object of the set's
	// class.
	Has bool
	// Empty is true when the reference model found nothing at all (a pure
	// background frame, usable for the SDD reference).
	Empty bool
}

// Set is the training corpus of one stream, collected a frame at a time
// in capture order. The §4.1 procedure labels each frame with the
// reference model (YOLOv2 in the paper, the oracle here) for the stream's
// target class, and everything downstream — FitSDD, TrainSNM — reads the
// set, never a frame.
type Set struct {
	Class   frame.Class
	Samples []Sample
	ref     detect.Detector
}

// NewSet returns an empty corpus labelled by ref for class.
func NewSet(ref detect.Detector, class frame.Class) *Set {
	return &Set{Class: class, ref: ref}
}

// Add labels f, keeps its Sample and releases f: a frame handed to the
// set is the set's, and the caller must not touch it afterwards — a
// captured frame's header and truth are recycled for the next capture.
// Release leaves the pixels of frames that are not pooled alone, so any
// source's frames may be added.
func (s *Set) Add(f *frame.Frame) {
	dets := s.ref.Detect(f)
	img := imgproc.FromFrame(f)
	small := imgproc.GetGray(filters.SNMSize, filters.SNMSize)
	imgproc.ResizeInto(img, small)
	s.Samples = append(s.Samples, Sample{
		Plane: imgproc.Resize(img, filters.SDDSize, filters.SDDSize),
		Input: filters.GrayInput(small),
		Has:   detect.Count(dets, s.Class, 0.5) > 0,
		Empty: len(dets) == 0,
	})
	small.Release()
	f.Release()
}

// Source is anything that yields frames in capture order: a
// vidgen.Stream, a pipeline.FrameSource.
type Source interface {
	Next() *frame.Frame
}

// AddFrom adds the next n frames of src.
func (s *Set) AddFrom(src Source, n int) {
	for i := 0; i < n; i++ {
		s.Add(src.Next())
	}
}
