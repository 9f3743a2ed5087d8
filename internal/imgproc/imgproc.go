// Package imgproc implements the image operations FFS-VA's filters are
// built from: resizing, frame-difference metrics (MSE / NRMSE / SAD),
// binarization, connected components, and small utility transforms. All
// operations work on 8-bit grayscale images, which is the only channel
// the paper's filters consume.
package imgproc

import (
	"encoding/binary"
	"fmt"
	"math"

	"ffsva/internal/frame"
	"ffsva/internal/par"
)

// Gray is an 8-bit grayscale image in row-major order.
type Gray struct {
	W, H int
	Pix  []uint8
	// pooled marks Pix as borrowed from the image pool; Release returns
	// it there.
	pooled bool
}

// NewGray allocates a zeroed grayscale image.
func NewGray(w, h int) *Gray {
	return &Gray{W: w, H: h, Pix: make([]uint8, w*h)}
}

// grayPix recycles pixel planes across pooled Gray images. The filters
// resize every frame to the same few shapes (100×100 for SDD, 50×50 for
// SNM, 208×208 for T-YOLO), so exact-length buckets make the steady
// state allocation-free.
var grayPix par.SlicePool[uint8]

// PoolStats returns how many image planes the pool has handed out and
// taken back — pooled Gray images and ConnectedComponents' visited
// planes — so tests can assert that every plane a run borrowed went
// back. The counts are cumulative and process-global: compare deltas.
func PoolStats() (gets, puts int64) { return grayPix.Stats() }

// GetGray returns a pooled w×h image whose pixels are NOT cleared; it is
// for kernels that overwrite every pixel (resize targets, diff outputs).
// Release it with Gray.Release when done.
func GetGray(w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic("imgproc: GetGray: non-positive size")
	}
	return &Gray{W: w, H: h, Pix: grayPix.Get(w * h), pooled: true}
}

// Release returns a pooled image's pixel plane for reuse. It is a no-op
// on images not obtained from the pool (NewGray allocations, FromFrame
// views), so callers can release unconditionally. After Release the
// image must not be used.
func (g *Gray) Release() {
	if g == nil || !g.pooled || g.Pix == nil {
		return
	}
	grayPix.Put(g.Pix)
	g.Pix = nil
	g.pooled = false
}

// FromFrame wraps a frame's pixel buffer as a Gray without copying.
func FromFrame(f *frame.Frame) *Gray {
	return &Gray{W: f.W, H: f.H, Pix: f.Pix}
}

// At returns the pixel at (x, y).
func (g *Gray) At(x, y int) uint8 { return g.Pix[y*g.W+x] }

// Set writes the pixel at (x, y).
func (g *Gray) Set(x, y int, v uint8) { g.Pix[y*g.W+x] = v }

// Clone returns a deep copy.
func (g *Gray) Clone() *Gray {
	out := NewGray(g.W, g.H)
	copy(out.Pix, g.Pix)
	return out
}

// sameSize panics unless a and b have identical dimensions; distance
// metrics are only defined on equal-size images.
func sameSize(op string, a, b *Gray) {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("imgproc: %s: size mismatch %dx%d vs %dx%d", op, a.W, a.H, b.W, b.H))
	}
}

// Resize scales src into a new w×h image using bilinear interpolation.
// This is the resize step the paper charges 40/150/400 µs for ahead of
// SDD/SNM/T-YOLO respectively.
func Resize(src *Gray, w, h int) *Gray {
	dst := NewGray(w, h)
	ResizeInto(src, dst)
	return dst
}

// colTap is one output column's pair of source columns and their
// bilinear weights. They depend only on the two widths, so a resize
// works them out once per call, not once per pixel.
type colTap struct {
	x0, x1 int32
	fx, gx float64 // weight of x1 and of x0; gx is 1-fx
}

// tapPool holds the per-call column taps and sumPool the blur's column
// sums, so neither kernel allocates.
var (
	tapPool par.SlicePool[colTap]
	sumPool par.SlicePool[uint16]
)

// sourcePair maps output index i of an n-wide axis onto its two source
// indices on a srcN-wide axis and the weight f of the second, clamped at
// both borders; ratio is srcN/n.
func sourcePair(i int, ratio float64, srcN int) (i0, i1 int, f float64) {
	s := (float64(i)+0.5)*ratio - 0.5
	i0 = int(math.Floor(s))
	f = s - float64(i0)
	i1 = i0 + 1
	if i0 < 0 {
		i0, i1, f = 0, 0, 0
	}
	if i1 >= srcN {
		i1 = srcN - 1
		if i0 > i1 {
			i0 = i1
		}
	}
	return i0, i1, f
}

// resizer is one src→dst bilinear resize: the source plane and the
// column taps. It is a plain value — the row kernel takes what it needs
// from it, so a caller's *Gray never has to outlive the call.
//
// The arithmetic is frozen: every output pixel is
//
//	top = r0[x0]*(1-fx) + r0[x1]*fx
//	bot = r1[x0]*(1-fx) + r1[x1]*fx
//	v   = top*(1-fy) + bot*fy
//
// in float64, in this order, each product and sum rounded on its own (no
// fused multiply-add), then rounded half away from zero into a uint8.
// The SDD distances, the SNM inputs and the detector's boxes all hang on
// these bits, and the committed goldens pin them.
type resizer struct {
	pix    []uint8
	sw, sh int
	yRatio float64
	taps   []colTap
}

// newResizer works out the taps of a src→(w,h) resize into pooled
// scratch; release returns it.
func newResizer(src *Gray, w, h int) resizer {
	r := resizer{pix: src.Pix, sw: src.W, sh: src.H,
		yRatio: float64(src.H) / float64(h), taps: tapPool.Get(w)}
	xRatio := float64(src.W) / float64(w)
	for x := range r.taps {
		x0, x1, fx := sourcePair(x, xRatio, src.W)
		r.taps[x] = colTap{x0: int32(x0), x1: int32(x1), fx: fx, gx: 1 - fx}
	}
	return r
}

func (r resizer) release() { tapPool.Put(r.taps) }

// row writes output row y into dst, one row of the target width.
func (r resizer) row(y int, dst []uint8) {
	y0, y1, fy := sourcePair(y, r.yRatio, r.sh)
	gy := 1 - fy
	r0 := r.pix[y0*r.sw : y0*r.sw+r.sw]
	r1 := r.pix[y1*r.sw : y1*r.sw+r.sw]
	taps := r.taps[:len(dst)]
	for x := range dst {
		t := &taps[x]
		top := float64(r0[t.x0])*t.gx + float64(r0[t.x1])*t.fx
		bot := float64(r1[t.x0])*t.gx + float64(r1[t.x1])*t.fx
		dst[x] = roundToUint8(top*gy + bot*fy)
	}
}

// roundToUint8 is uint8(math.Round(v)) of v clamped to [0, 255], without
// the call. For 0.5 <= v < 255, uint8(v+0.5) is round-half-away: from
// v >= 1 on, 0.5 is a multiple of ulp(v), so the sum is exact unless it
// crosses into the next binade — and there it can only round onto or
// above the power of two it crossed, an integer, which truncates to
// itself; in [0.5, 1) every sum lies in [1, 1.5] and truncates to 1.
// The one input v+0.5 gets wrong is below 0.5 — 0.49999999999999994
// sums to exactly 1 — and that range returns 0 before the sum is formed.
func roundToUint8(v float64) uint8 {
	if !(v >= 0.5) {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// ResizeInto scales src into dst (sized by dst.W×dst.H), overwriting
// every pixel, so dst may be a dirty pooled image.
func ResizeInto(src, dst *Gray) {
	w, h := dst.W, dst.H
	if w <= 0 || h <= 0 {
		panic("imgproc: Resize: non-positive target size")
	}
	if src.W == w && src.H == h {
		copy(dst.Pix, src.Pix)
		return
	}
	r := newResizer(src, w, h)
	for y := 0; y < h; y++ {
		r.row(y, dst.Pix[y*w:(y+1)*w])
	}
	r.release()
}

// ResizeMSE scales src into dst exactly as ResizeInto does and, in the
// same pass, returns the mean squared error between the fresh dst and
// ref, scoring each output row while it is still hot in cache. dst and
// ref must both be dst.W×dst.H. The row sums are exact integers, so the
// result is bitwise-identical to ResizeInto followed by MSE.
//
// No filter calls it: SDD compensates luminance, which needs the whole
// resized image before its offset pass. It stays only because the
// benchmark times it by name (DESIGN.md §9).
func ResizeMSE(src, dst, ref *Gray) float64 {
	sameSize("ResizeMSE", dst, ref)
	w, h := dst.W, dst.H
	if w <= 0 || h <= 0 {
		panic("imgproc: ResizeMSE: non-positive target size")
	}
	if src.W == w && src.H == h {
		copy(dst.Pix, src.Pix)
		return MSE(dst, ref)
	}
	r := newResizer(src, w, h)
	var sum uint64
	for y := 0; y < h; y++ {
		row := dst.Pix[y*w : (y+1)*w]
		r.row(y, row)
		sum += sumSquaredDiff(row, ref.Pix[y*w:(y+1)*w])
	}
	r.release()
	return float64(sum) / float64(len(dst.Pix))
}

// sumSquaredDiff returns Σ(a[i]−b[i])² over two equal-length planes.
func sumSquaredDiff(a, b []uint8) uint64 {
	b = b[:len(a)]
	var sum uint64
	for i, v := range a {
		d := int(v) - int(b[i])
		sum += uint64(d * d)
	}
	return sum
}

// ResizeNearest scales src into a new w×h image with nearest-neighbor
// sampling; cheaper and used where interpolation quality is irrelevant.
func ResizeNearest(src *Gray, w, h int) *Gray {
	if w <= 0 || h <= 0 {
		panic("imgproc: ResizeNearest: non-positive target size")
	}
	dst := NewGray(w, h)
	for y := 0; y < h; y++ {
		sy := y * src.H / h
		for x := 0; x < w; x++ {
			sx := x * src.W / w
			dst.Pix[y*w+x] = src.Pix[sy*src.W+sx]
		}
	}
	return dst
}

// MSE returns the mean squared pixel error between two equal-size images.
// It is SDD's default distance metric (paper §3.2.1). The sum is an exact
// integer (every squared 8-bit diff is ≤ 255²), divided once.
func MSE(a, b *Gray) float64 {
	sameSize("MSE", a, b)
	return float64(sumSquaredDiff(a.Pix, b.Pix)) / float64(len(a.Pix))
}

// NRMSE returns the root of MSE normalized by the 8-bit dynamic range, in
// [0, 1].
func NRMSE(a, b *Gray) float64 {
	return math.Sqrt(MSE(a, b)) / 255.0
}

// SAD returns the sum of absolute differences between two equal-size
// images. Like MSE, the integer sum is exact.
func SAD(a, b *Gray) float64 {
	sameSize("SAD", a, b)
	bp := b.Pix[:len(a.Pix)]
	var sum uint64
	for i, v := range a.Pix {
		d := int(v) - int(bp[i])
		if d < 0 {
			d = -d
		}
		sum += uint64(d)
	}
	return float64(sum)
}

// AbsDiff writes |a−b| per pixel into a new image.
func AbsDiff(a, b *Gray) *Gray {
	sameSize("AbsDiff", a, b)
	out := NewGray(a.W, a.H)
	AbsDiffInto(a, b, out)
	return out
}

// AbsDiffInto writes |a−b| per pixel into out, overwriting every pixel,
// so out may be a dirty pooled image.
func AbsDiffInto(a, b, out *Gray) {
	sameSize("AbsDiff", a, b)
	sameSize("AbsDiff", a, out)
	bp, op := b.Pix[:len(a.Pix)], out.Pix[:len(a.Pix)]
	for i, v := range a.Pix {
		d := int(v) - int(bp[i])
		if d < 0 {
			d = -d
		}
		op[i] = uint8(d)
	}
}

// MeanStd returns the mean and standard deviation of the image pixels.
func MeanStd(g *Gray) (mean, std float64) {
	if len(g.Pix) == 0 {
		return 0, 0
	}
	var sum float64
	for _, p := range g.Pix {
		sum += float64(p)
	}
	mean = sum / float64(len(g.Pix))
	var sq float64
	for _, p := range g.Pix {
		d := float64(p) - mean
		sq += d * d
	}
	std = math.Sqrt(sq / float64(len(g.Pix)))
	return mean, std
}

// Binarize returns a mask with 1 where g exceeds thresh and 0 elsewhere.
func Binarize(g *Gray, thresh uint8) *Gray {
	out := NewGray(g.W, g.H)
	BinarizeInto(g, thresh, out)
	return out
}

// BinarizeInto writes the threshold mask into out, overwriting every
// pixel, so out may be a dirty pooled image.
func BinarizeInto(g *Gray, thresh uint8, out *Gray) {
	sameSize("Binarize", g, out)
	dst := out.Pix[:len(g.Pix)]
	for i, p := range g.Pix {
		if p > thresh {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// BoxBlur3 applies a 3×3 box filter, used to suppress sensor noise before
// binarization in the grid detector.
func BoxBlur3(g *Gray) *Gray {
	out := NewGray(g.W, g.H)
	BoxBlur3Into(g, out)
	return out
}

// BoxBlur3Into writes the 3×3 box filter of g into out, overwriting
// every pixel, so out may be a dirty pooled image. Each output pixel is
// the integer mean of the neighbours that exist — 9 inside, 6 on an
// edge, 4 in a corner.
func BoxBlur3Into(g, out *Gray) {
	sameSize("BoxBlur3", g, out)
	w, h := g.W, g.H
	in, dst := g.Pix, out.Pix
	if w < 3 || h < 3 {
		blurSmall(in, dst, w, h)
		return
	}
	blurRows(in, dst, w, h)
}

// blurRows blurs a plane at least 3×3: per output row, the column sums
// of the two or three source rows around it, then a 3-wide window over
// those sums.
func blurRows(in, dst []uint8, w, h int) {
	col := sumPool.Get(w)
	for y := 0; y < h; y++ {
		top, bot := max(y-1, 0), min(y+1, h-1)
		a := in[top*w : top*w+w]
		b := in[bot*w : bot*w+w]
		rows := uint32(bot - top + 1)
		if rows == 3 {
			m := in[y*w : y*w+w]
			for x := range col {
				col[x] = uint16(a[x]) + uint16(m[x]) + uint16(b[x])
			}
		} else {
			for x := range col {
				col[x] = uint16(a[x]) + uint16(b[x])
			}
		}
		o := dst[y*w : y*w+w]
		o[0] = uint8(uint32(col[0]+col[1]) / (rows * 2))
		o[w-1] = uint8(uint32(col[w-2]+col[w-1]) / (rows * 2))
		inner := o[1 : w-1]
		left, mid, right := col[:len(inner)], col[1:1+len(inner)], col[2:2+len(inner)]
		if rows == 3 {
			for x := range inner {
				inner[x] = uint8(uint32(left[x]+mid[x]+right[x]) / 9)
			}
		} else {
			for x := range inner {
				inner[x] = uint8(uint32(left[x]+mid[x]+right[x]) / 6)
			}
		}
	}
	sumPool.Put(col)
}

// blurSmall is the neighbour-by-neighbour filter, for planes too narrow
// or too short for the column-sum sweep.
func blurSmall(in, dst []uint8, w, h int) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var sum, n int
			for yy := max(y-1, 0); yy <= min(y+1, h-1); yy++ {
				for xx := max(x-1, 0); xx <= min(x+1, w-1); xx++ {
					sum += int(in[yy*w+xx])
					n++
				}
			}
			dst[y*w+x] = uint8(sum / n)
		}
	}
}

// Rect is an axis-aligned rectangle in pixel coordinates.
type Rect struct {
	X, Y, W, H int
}

// Area returns the rectangle's area in pixels.
func (r Rect) Area() int { return r.W * r.H }

// IoU returns the intersection-over-union of two rectangles in [0, 1].
func IoU(a, b Rect) float64 {
	ix := max(a.X, b.X)
	iy := max(a.Y, b.Y)
	ix2 := min(a.X+a.W, b.X+b.W)
	iy2 := min(a.Y+a.H, b.Y+b.H)
	iw := ix2 - ix
	ih := iy2 - iy
	if iw <= 0 || ih <= 0 {
		return 0
	}
	inter := iw * ih
	union := a.Area() + b.Area() - inter
	if union <= 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// stackPool holds ConnectedComponents' work stack.
var stackPool par.SlicePool[int32]

// ConnectedComponents labels 4-connected regions of non-zero pixels in
// mask and returns the bounding box and pixel count of each region with at
// least minArea pixels. Regions are returned in scan order of their first
// pixel, so output is deterministic. The visited plane and the work
// stack are pooled: a mask with nothing in it allocates nothing.
func ConnectedComponents(mask *Gray, minArea int) []Component {
	n := len(mask.Pix)
	if n == 0 {
		return nil
	}
	pix, w, h := mask.Pix, mask.W, mask.H
	visited := grayPix.Get(n)
	clear(visited)
	// The stack holds (x, y) pairs. A pixel is pushed once, when it is
	// marked, so it never holds more than the plane.
	stack := stackPool.Get(2 * n)
	var comps []Component
	for start := 0; start < n; start++ {
		// A foreground mask is mostly background: step over eight empty
		// pixels at a time.
		for start+8 <= n && binary.LittleEndian.Uint64(pix[start:]) == 0 {
			start += 8
		}
		if start == n || pix[start] == 0 || visited[start] != 0 {
			continue
		}
		minX, minY := w, h
		maxX, maxY := -1, -1
		count := 0
		top := 0
		push := func(x, y int) {
			if idx := y*w + x; pix[idx] != 0 && visited[idx] == 0 {
				visited[idx] = 1
				stack[top], stack[top+1] = int32(x), int32(y)
				top += 2
			}
		}
		push(start%w, start/w)
		for top > 0 {
			top -= 2
			x, y := int(stack[top]), int(stack[top+1])
			count++
			minX, maxX = min(minX, x), max(maxX, x)
			minY, maxY = min(minY, y), max(maxY, y)
			// 4-connectivity.
			if x > 0 {
				push(x-1, y)
			}
			if x < w-1 {
				push(x+1, y)
			}
			if y > 0 {
				push(x, y-1)
			}
			if y < h-1 {
				push(x, y+1)
			}
		}
		if count >= minArea {
			comps = append(comps, Component{
				Rect:   Rect{X: minX, Y: minY, W: maxX - minX + 1, H: maxY - minY + 1},
				Pixels: count,
			})
		}
	}
	stackPool.Put(stack)
	grayPix.Put(visited)
	return comps
}

// Component is one connected foreground region.
type Component struct {
	Rect   Rect
	Pixels int // number of foreground pixels (≤ Rect.Area())
}
