package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// paramBits returns every parameter value's bit pattern, in order.
func paramBits(n *Net) []uint32 {
	var bits []uint32
	for _, p := range n.Params() {
		for _, v := range p.Val.Data {
			bits = append(bits, math.Float32bits(v))
		}
	}
	return bits
}

// FuzzLoadWeights: LoadWeights never panics; when it fails, every
// parameter is bit-identical to before the call; when it succeeds,
// SaveWeights writes back exactly the bytes that were loaded.
func FuzzLoadWeights(f *testing.F) {
	target := func() *Net { return snmNet(rand.New(rand.NewSource(11)), 12) }
	var saved bytes.Buffer
	if err := snmNet(rand.New(rand.NewSource(12)), 12).SaveWeights(&saved); err != nil {
		f.Fatal(err)
	}
	file := saved.Bytes()
	f.Add(file)
	// Truncated inside the second parameter: the first one is whole.
	first := target().Params()[0].Val.Len()
	f.Add(file[:8+4+4*first+4+8])
	// The second parameter's size disagrees with the network's.
	mismatch := bytes.Clone(file)
	at := 8 + 4 + 4*first
	binary.LittleEndian.PutUint32(mismatch[at:], binary.LittleEndian.Uint32(mismatch[at:])+1)
	f.Add(mismatch)
	f.Add(append(bytes.Clone(file), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		net := target()
		before := paramBits(net)
		if err := net.LoadWeights(bytes.NewReader(data)); err != nil {
			if after := paramBits(net); !slices.Equal(before, after) {
				t.Fatalf("failed load (%v) changed the network's parameters", err)
			}
			return
		}
		var out bytes.Buffer
		if err := net.SaveWeights(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("loaded %d bytes, saved back %d different ones", len(data), out.Len())
		}
	})
}
