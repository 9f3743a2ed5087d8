package imgproc

// Crop-and-pack geometry for object-level consolidation (Rivas et al.):
// candidate boxes are cropped out of their source frames with padding
// and shelf-packed into fixed-size canvases, so one reference inference
// covers crops from many streams. Everything here is pure integer
// geometry in caller order — no sorting, no randomness — which is what
// keeps consolidated runs byte-deterministic.

// ClampRect clamps r to the w×h bounds, returning the intersection and
// whether it is non-empty.
func ClampRect(r Rect, w, h int) (Rect, bool) {
	x0, y0 := r.X, r.Y
	x1, y1 := r.X+r.W, r.Y+r.H
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > w {
		x1 = w
	}
	if y1 > h {
		y1 = h
	}
	if x1 <= x0 || y1 <= y0 {
		return Rect{}, false
	}
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}, true
}

// PadRect grows r by pad on every side and clamps it to the w×h bounds.
func PadRect(r Rect, pad, w, h int) (Rect, bool) {
	return ClampRect(Rect{X: r.X - pad, Y: r.Y - pad, W: r.W + 2*pad, H: r.H + 2*pad}, w, h)
}

// CropInto copies the src pixels under sr (already clamped to src) to
// dst with its top-left corner at (dx, dy); the copy is clipped against
// dst's bounds.
func CropInto(dst *Gray, src *Gray, sr Rect, dx, dy int) {
	for row := 0; row < sr.H; row++ {
		dyRow := dy + row
		if dyRow < 0 || dyRow >= dst.H {
			continue
		}
		srcOff := (sr.Y+row)*src.W + sr.X
		n := sr.W
		x := dx
		if x < 0 {
			srcOff -= x
			n += x
			x = 0
		}
		if x+n > dst.W {
			n = dst.W - x
		}
		if n <= 0 {
			continue
		}
		copy(dst.Pix[dyRow*dst.W+x:dyRow*dst.W+x+n], src.Pix[srcOff:srcOff+n])
	}
}

// ShelfPacker bins rectangles into a fixed canvas with the classic
// shelf heuristic: items fill the current shelf left to right; an item
// that does not fit opens a new shelf below, whose height is that
// item's. Items are placed strictly in the order offered — first-fit
// would pack tighter but would make the layout depend on the full batch,
// and deterministic caller order is the property consolidation needs.
type ShelfPacker struct {
	W, H    int
	shelfY  int // top of the current shelf
	shelfH  int // height of the current shelf
	cursorX int // next free x on the current shelf
}

// NewShelfPacker returns a packer over an empty w×h canvas.
func NewShelfPacker(w, h int) *ShelfPacker {
	return &ShelfPacker{W: w, H: h}
}

// Place reserves a w×h slot, returning its top-left corner. ok is false
// when the item does not fit on this canvas (the caller opens a fresh
// canvas); an item larger than the canvas itself never fits and must be
// clamped by the caller first.
func (p *ShelfPacker) Place(w, h int) (x, y int, ok bool) {
	if w <= 0 || h <= 0 || w > p.W || h > p.H {
		return 0, 0, false
	}
	if p.cursorX+w <= p.W && p.shelfY+h <= p.H {
		x, y = p.cursorX, p.shelfY
		p.cursorX += w
		if h > p.shelfH {
			// Growing the open shelf is safe: nothing has been placed
			// below it yet, and the check above proved the taller item
			// still fits the canvas.
			p.shelfH = h
		}
		return x, y, true
	}
	// Open a new shelf below the current one.
	ny := p.shelfY + p.shelfH
	if ny+h > p.H {
		return 0, 0, false
	}
	p.shelfY, p.shelfH, p.cursorX = ny, h, w
	return 0, ny, true
}

// CoverFrac returns the fraction of r's area covered by the best single
// rectangle in rects (no union: an object split across two crops is
// honestly truncated, which is exactly the accuracy cost consolidation
// must account for). Empty r returns 0.
func CoverFrac(r Rect, rects []Rect) float64 {
	if r.W <= 0 || r.H <= 0 {
		return 0
	}
	best := 0
	for _, c := range rects {
		x0, y0 := max(r.X, c.X), max(r.Y, c.Y)
		x1, y1 := min(r.X+r.W, c.X+c.W), min(r.Y+r.H, c.Y+c.H)
		if x1 > x0 && y1 > y0 {
			if a := (x1 - x0) * (y1 - y0); a > best {
				best = a
			}
		}
	}
	return float64(best) / float64(r.W*r.H)
}
