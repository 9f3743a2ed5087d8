// Package video implements the stored-video substrate for FFS-VA's
// offline case (the paper analyzes multi-gigabyte recorded files): a
// compact, self-contained container for grayscale surveillance footage
// with embedded ground-truth annotations.
//
// The codec exploits exactly the property FFS-VA itself exploits — a
// fixed viewpoint changes little frame to frame: periodic keyframes are
// PackBits-compressed raw frames, and the frames between them are
// PackBits-compressed byte differences (mod 256) from the previous
// frame, zero wherever a pixel did not change. Coding is lossless.
// Annotations (object boxes, scene ids, illumination) ride along per
// frame so a file round-trips everything the trainer and the accuracy
// accounting need.
//
// No run reads its frames from this container: decoding costs about
// three times rendering a synthetic frame. The benchmark times the
// decoder (video.decode_ns).
package video

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"ffsva/internal/frame"
)

// Magic identifies the container format ("FFS-VA Video, version 1").
const Magic = uint32(0xFF5A7601)

// KeyframeInterval is how often a full frame is stored; a reader can
// only start decoding at a keyframe, so this bounds resync cost.
const KeyframeInterval = 150

const (
	frameKey   = 0
	frameDelta = 1
)

// Header describes a stored stream.
type Header struct {
	W, H int
	FPS  int
	// Frames is the total frame count, patched at Close when the sink is
	// an io.WriteSeeker; zero when the stream was written to any other.
	Frames int64
}

// Writer encodes frames to an underlying stream.
type Writer struct {
	bw     *bufio.Writer
	w      io.Writer
	hdr    Header
	prev   []uint8 // previous frame, the base of the next delta
	n      int64
	closed bool
}

// NewWriter begins a stream on w. Frame dimensions are fixed per file.
func NewWriter(w io.Writer, width, height, fps int) (*Writer, error) {
	if width <= 0 || height <= 0 || width > math.MaxUint16 || height > math.MaxUint16 {
		return nil, fmt.Errorf("video: invalid dimensions %dx%d", width, height)
	}
	wr := &Writer{bw: bufio.NewWriterSize(w, 1<<16), w: w, hdr: Header{W: width, H: height, FPS: fps}}
	if err := wr.writeHeader(0); err != nil {
		return nil, err
	}
	return wr, nil
}

func (w *Writer) writeHeader(frames int64) error {
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	binary.LittleEndian.PutUint16(hdr[4:], uint16(w.hdr.W))
	binary.LittleEndian.PutUint16(hdr[6:], uint16(w.hdr.H))
	binary.LittleEndian.PutUint16(hdr[8:], uint16(w.hdr.FPS))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(frames))
	_, err := w.bw.Write(hdr[:])
	return err
}

// WriteFrame appends one frame; its dimensions must match the header.
func (w *Writer) WriteFrame(f *frame.Frame) error {
	if w.closed {
		return errors.New("video: write after Close")
	}
	if f.W != w.hdr.W || f.H != w.hdr.H {
		return fmt.Errorf("video: frame %dx%d in %dx%d stream", f.W, f.H, w.hdr.W, w.hdr.H)
	}
	var kind byte = frameKey
	payload := f.Pix
	if w.prev != nil && w.n%KeyframeInterval != 0 {
		kind = frameDelta
		delta := make([]uint8, len(f.Pix))
		for i := range delta {
			if f.Pix[i] == w.prev[i] {
				continue
			}
			delta[i] = f.Pix[i] - w.prev[i] // wraps mod 256, as the reader's add does
			w.prev[i] = f.Pix[i]
		}
		payload = delta
	} else {
		if w.prev == nil {
			w.prev = make([]uint8, len(f.Pix))
		}
		copy(w.prev, f.Pix) // keyframes are exact anchors
	}
	packed := packBits(payload)
	if err := w.bw.WriteByte(kind); err != nil {
		return err
	}
	var sz [4]byte
	binary.LittleEndian.PutUint32(sz[:], uint32(len(packed)))
	if _, err := w.bw.Write(sz[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(packed); err != nil {
		return err
	}
	if err := writeAnnotation(w.bw, f.Truth); err != nil {
		return err
	}
	w.n++
	return nil
}

// Frames reports how many frames have been written.
func (w *Writer) Frames() int64 { return w.n }

// Close flushes the stream. If the underlying writer is an io.WriteSeeker
// the header's frame count is patched in place.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if ws, ok := w.w.(io.WriteSeeker); ok {
		if _, err := ws.Seek(12, io.SeekStart); err != nil {
			return err
		}
		var cnt [8]byte
		binary.LittleEndian.PutUint64(cnt[:], uint64(w.n))
		if _, err := ws.Write(cnt[:]); err != nil {
			return err
		}
		if _, err := ws.Seek(0, io.SeekEnd); err != nil {
			return err
		}
	}
	return nil
}

// Reader decodes a stream written by Writer.
type Reader struct {
	br   *bufio.Reader
	hdr  Header
	prev []uint8
	n    int64
}

// NewReader parses the header and prepares to decode frames.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [20]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("video: short header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != Magic {
		return nil, errors.New("video: bad magic")
	}
	rd := &Reader{br: br}
	rd.hdr.W = int(binary.LittleEndian.Uint16(hdr[4:]))
	rd.hdr.H = int(binary.LittleEndian.Uint16(hdr[6:]))
	rd.hdr.FPS = int(binary.LittleEndian.Uint16(hdr[8:]))
	rd.hdr.Frames = int64(binary.LittleEndian.Uint64(hdr[12:]))
	if rd.hdr.W <= 0 || rd.hdr.H <= 0 {
		return nil, fmt.Errorf("video: invalid dimensions %dx%d", rd.hdr.W, rd.hdr.H)
	}
	return rd, nil
}

// Header returns the stream's metadata.
func (r *Reader) Header() Header { return r.hdr }

// Next decodes the next frame; it returns io.EOF at end of stream.
func (r *Reader) Next() (*frame.Frame, error) {
	kind, err := r.br.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, err
	}
	var sz [4]byte
	if _, err := io.ReadFull(r.br, sz[:]); err != nil {
		return nil, fmt.Errorf("video: truncated frame: %w", err)
	}
	packed := make([]byte, binary.LittleEndian.Uint32(sz[:]))
	if _, err := io.ReadFull(r.br, packed); err != nil {
		return nil, fmt.Errorf("video: truncated frame payload: %w", err)
	}
	payload, err := unpackBits(packed, r.hdr.W*r.hdr.H)
	if err != nil {
		return nil, err
	}
	f := frame.New(r.hdr.W, r.hdr.H)
	switch kind {
	case frameKey:
		copy(f.Pix, payload)
	case frameDelta:
		if r.prev == nil {
			return nil, errors.New("video: delta frame before any keyframe")
		}
		for i := range f.Pix {
			f.Pix[i] = r.prev[i] + payload[i] // wrapping add mirrors the encoder
		}
	default:
		return nil, fmt.Errorf("video: unknown frame kind %d", kind)
	}
	ann, err := readAnnotation(r.br)
	if err != nil {
		return nil, err
	}
	f.Truth = ann
	f.Seq = r.n
	if r.prev == nil {
		r.prev = make([]uint8, len(f.Pix))
	}
	copy(r.prev, f.Pix)
	r.n++
	return f, nil
}

// writeAnnotation serializes ground truth (possibly nil).
func writeAnnotation(w *bufio.Writer, a *frame.Annotation) error {
	if a == nil {
		return w.WriteByte(0)
	}
	if err := w.WriteByte(1); err != nil {
		return err
	}
	var buf [10]byte
	binary.LittleEndian.PutUint16(buf[0:], uint16(len(a.Boxes)))
	binary.LittleEndian.PutUint64(buf[2:], uint64(a.SceneID))
	if _, err := w.Write(buf[:]); err != nil {
		return err
	}
	// Illumination offset quantized to half-levels in [-64, 64).
	lum := int8(math.Round(a.Lum * 2))
	if err := w.WriteByte(byte(lum)); err != nil {
		return err
	}
	for _, b := range a.Boxes {
		var bb [10]byte
		binary.LittleEndian.PutUint16(bb[0:], uint16(b.X))
		binary.LittleEndian.PutUint16(bb[2:], uint16(b.Y))
		binary.LittleEndian.PutUint16(bb[4:], uint16(b.W))
		binary.LittleEndian.PutUint16(bb[6:], uint16(b.H))
		bb[8] = byte(b.Class)
		bb[9] = byte(math.Round(b.Visible * 255))
		if _, err := w.Write(bb[:]); err != nil {
			return err
		}
	}
	return nil
}

// readAnnotation deserializes ground truth (possibly nil).
func readAnnotation(r *bufio.Reader) (*frame.Annotation, error) {
	has, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("video: truncated annotation: %w", err)
	}
	if has == 0 {
		return nil, nil
	}
	var buf [10]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return nil, fmt.Errorf("video: truncated annotation: %w", err)
	}
	n := int(binary.LittleEndian.Uint16(buf[0:]))
	ann := &frame.Annotation{SceneID: int64(binary.LittleEndian.Uint64(buf[2:]))}
	lum, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	ann.Lum = float64(int8(lum)) / 2
	for i := 0; i < n; i++ {
		var bb [10]byte
		if _, err := io.ReadFull(r, bb[:]); err != nil {
			return nil, fmt.Errorf("video: truncated box: %w", err)
		}
		ann.Boxes = append(ann.Boxes, frame.Box{
			X:       int(binary.LittleEndian.Uint16(bb[0:])),
			Y:       int(binary.LittleEndian.Uint16(bb[2:])),
			W:       int(binary.LittleEndian.Uint16(bb[4:])),
			H:       int(binary.LittleEndian.Uint16(bb[6:])),
			Class:   frame.Class(bb[8]),
			Visible: float64(bb[9]) / 255,
		})
	}
	return ann, nil
}

// packBits compresses with the classic PackBits run-length scheme:
// a control byte c in [0,127] means "literal run of c+1 bytes follows";
// c in [129,255] means "repeat the next byte 257−c times"; 128 is unused.
func packBits(src []byte) []byte {
	out := make([]byte, 0, len(src)/8+16)
	i := 0
	for i < len(src) {
		// Measure the run starting at i.
		run := 1
		for i+run < len(src) && src[i+run] == src[i] && run < 128 {
			run++
		}
		if run >= 3 {
			out = append(out, byte(257-run), src[i])
			i += run
			continue
		}
		// Literal: collect until the next run of >= 3 or 128 bytes.
		start := i
		i += run
		for i < len(src) && i-start < 128 {
			run = 1
			for i+run < len(src) && src[i+run] == src[i] && run < 128 {
				run++
			}
			if run >= 3 {
				break
			}
			i += run
		}
		if i-start > 128 {
			i = start + 128
		}
		out = append(out, byte(i-start-1))
		out = append(out, src[start:i]...)
	}
	return out
}

// unpackBits reverses packBits into exactly want bytes.
func unpackBits(src []byte, want int) ([]byte, error) {
	out := make([]byte, 0, want)
	i := 0
	for i < len(src) {
		c := src[i]
		i++
		switch {
		case c <= 127:
			n := int(c) + 1
			if i+n > len(src) {
				return nil, errors.New("video: corrupt literal run")
			}
			out = append(out, src[i:i+n]...)
			i += n
		case c >= 129:
			if i >= len(src) {
				return nil, errors.New("video: corrupt repeat run")
			}
			n := 257 - int(c)
			for k := 0; k < n; k++ {
				out = append(out, src[i])
			}
			i++
		default:
			return nil, errors.New("video: reserved control byte 128")
		}
		if len(out) > want {
			return nil, fmt.Errorf("video: decoded %d bytes, want %d", len(out), want)
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("video: decoded %d bytes, want %d", len(out), want)
	}
	return out, nil
}
