package lab

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestTrainedArtefactsGolden pins, bit for bit, what training the two lab
// cameras produces: FNV-64a over the SDD reference's 10,000 bytes and
// then every float32 of the SNM's parameters (little-endian bits, in
// Params order), and the bit patterns of δdiff, clow and chigh. The
// values were recorded at commit 3464112, before ISSUE 21 touched the
// trainer; every model_* figure, model_digest and event log in the repo
// hangs on them. A mismatch means training changed a bit — fix the
// trainer, don't re-record.
func TestTrainedArtefactsGolden(t *testing.T) {
	for _, tc := range []struct {
		name               string
		camera             func(float64) (*Camera, error)
		artefacts          uint64
		delta, clow, chigh uint64
	}{
		// δ 51.08102187500261, clow 9.21784248930635e-06, chigh 0.02105695754289627
		{"car", CarCamera, 0x2c51021771cf4aa8, 0x40498a5eecbfb2cb, 0x3ee354caa0000000, 0x3f958ff480000000},
		// δ 1.8749790999995564, clow 0.09455177187919617, chigh 0.8159404993057251
		{"person", PersonCamera, 0x5afa4b16b74d743e, 0x3ffdffea15b2e7de, 0x3fb8348b80000000, 0x3fea1c2f40000000},
	} {
		cam, err := tc.camera(0.1)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(cam.SDD.Ref.Pix)
		var b [4]byte
		for _, p := range cam.SNM.Net.Params() {
			for _, v := range p.Val.Data {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
		}
		if got := h.Sum64(); got != tc.artefacts {
			t.Errorf("%s: SDD reference + SNM weights hash %016x, golden %016x", tc.name, got, tc.artefacts)
		}
		for _, f := range []struct {
			name string
			got  float64
			want uint64
		}{{"delta", cam.SDD.Delta, tc.delta}, {"clow", cam.SNM.CLow, tc.clow}, {"chigh", cam.SNM.CHigh, tc.chigh}} {
			if math.Float64bits(f.got) != f.want {
				t.Errorf("%s: %s = %v (%016x), golden %v (%016x)", tc.name, f.name,
					f.got, math.Float64bits(f.got), math.Float64frombits(f.want), f.want)
			}
		}
	}
}
