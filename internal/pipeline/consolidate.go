package pipeline

// Object-level consolidation of the reference tier (Rivas et al.,
// "Large-Scale Video Analytics through Object-Level Consolidation"; see
// DESIGN.md §15). Instead of one full-frame reference inference per
// surviving frame, the consolidator gathers survivors from across
// streams, crops T-YOLO's candidate boxes with padding, shelf-packs the
// crops into fixed canvases, and charges one reference inference per
// canvas — multiplying the reference GPU's effective capacity, since a
// canvas typically carries crops from several frames.
//
// Determinism: frames are consumed from the reference queue in arrival
// order (deterministic under the virtual clock), crops are packed
// strictly in that order with a first-come shelf heuristic (no sorting,
// no area heuristics), and the top-up wait is a fixed modeled duration.
// Two seeded runs therefore gather identical rounds, build identical
// canvases, and charge identical device time.

import (
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/device"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/trace"
)

// Consolidation constants (DESIGN.md §15).
const (
	// consolidateCanvas is the square canvas side in pixels, the YOLOv2
	// input.
	consolidateCanvas = 416
	// consolidatePad is the padding added around each candidate crop;
	// padding recovers objects T-YOLO localized loosely.
	consolidatePad = 8
	// consolidateFrames bounds how many frames one round gathers from
	// the reference queue.
	consolidateFrames = 16
	// consolidateWait is the modeled deadline a short round waits for
	// more frames before packing what it has.
	consolidateWait = 2 * time.Millisecond
	// consolidateMinCover is the fraction of a reference detection's box
	// that must fall inside a single crop for the detection to count in
	// the consolidated tally. Objects truncated by crop boundaries below
	// it are the consolidation accuracy cost.
	consolidateMinCover = 0.7
	// refConf is the confidence threshold the reference tier applies
	// when counting target objects, with or without consolidation.
	refConf = 0.5
)

// serveCanvases runs one pack-infer-unpack cycle over a round's live
// frames and their owners (resolveOwners has retired the rest).
func (s *System) serveCanvases(live []*frame.Frame, owners []*streamState) {
	clk := s.cfg.Clock

	// Pack: crop every candidate with padding and shelf-place it onto
	// the open canvas, opening a new canvas when a crop does not fit.
	// The canvas pixels are genuinely assembled (the reference detector
	// is an oracle here, but the geometry and memory traffic are real).
	// Frame i's crops are rects[ends[i-1]:ends[i]].
	packer := imgproc.NewShelfPacker(consolidateCanvas, consolidateCanvas)
	canvases := 1
	dst := imgproc.GetGray(consolidateCanvas, consolidateCanvas)
	for i := range dst.Pix {
		dst.Pix[i] = 0
	}
	rects, ends := s.ref.rects[:0], s.ref.ends[:0]
	packStart := clk.Now()
	for _, f := range live {
		g := imgproc.FromFrame(f)
		for _, c := range f.Cands {
			r, ok := imgproc.PadRect(imgproc.Rect{X: c.X, Y: c.Y, W: c.W, H: c.H}, consolidatePad, f.W, f.H)
			if !ok {
				continue
			}
			// A crop larger than the canvas is clamped to it; the
			// coverage test below charges the truncation honestly.
			r.W = min(r.W, consolidateCanvas)
			r.H = min(r.H, consolidateCanvas)
			x, y, placed := packer.Place(r.W, r.H)
			if !placed {
				// Canvas full: open a fresh one (the full one is charged
				// with the rest in the inference phase).
				canvases++
				packer = imgproc.NewShelfPacker(consolidateCanvas, consolidateCanvas)
				for j := range dst.Pix {
					dst.Pix[j] = 0
				}
				x, y, _ = packer.Place(r.W, r.H)
			}
			imgproc.CropInto(dst, g, r, x, y)
			rects = append(rects, r)
		}
		ends = append(ends, len(rects))
	}
	s.ref.rects, s.ref.ends = rects, ends
	s.cpu.Use(device.ModelPack, len(rects), s.cfg.Costs)
	packEnd := clk.Now()
	for _, f := range live {
		f.Trace.AddSpan(trace.KPack, packStart, packEnd, s.cpu.Name, len(live))
	}

	// Infer: one reference charge per canvas, not per frame — this is
	// the whole consolidation dividend.
	refStart := clk.Now()
	for k := 0; k < canvases; k++ {
		s.canvasCtr.Inc()
		s.gpu1.Use(device.ModelRef, 1, s.cfg.Costs)
	}
	refEnd := clk.Now()

	// Unpack: translate canvas-level detections back into per-frame,
	// per-stream counts. The reference oracle detects on the full frame;
	// the crop-coverage clip models what a detector that only saw the
	// packed crops could have found — an object not covered by any crop
	// (or truncated below consolidateMinCover by a crop boundary) is lost
	// to consolidation, which is exactly the accuracy delta the lab
	// scores.
	from := 0
	for i, f := range live {
		st := owners[i]
		f.Trace.AddSpan(trace.KRef, refStart, refEnd, s.gpu1.Name, len(live))
		s.ref.dets = detect.AppendDetect(s.ref.dets[:0], s.cfg.Ref, f)
		dets := s.ref.dets
		fullCount := detect.Count(dets, st.spec.Target, refConf)
		mine := rects[from:ends[i]]
		from = ends[i]
		count := 0
		for _, d := range dets {
			if d.Class != st.spec.Target || d.Conf < refConf {
				continue
			}
			if imgproc.CoverFrac(d.Box, mine) >= consolidateMinCover {
				count++
			}
		}
		t0 := clk.Now()
		f.Trace.AddSpan(trace.KUnpack, t0, t0, s.cpu.Name, len(mine))
		s.refServed.Inc()
		s.finishCounts(st, f, Detected, count, fullCount)
	}
	dst.Release()
}
