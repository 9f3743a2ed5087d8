package filters

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ffsva/internal/frame"
	"ffsva/internal/vidgen"
)

// sddDigest is the FNV-64a of LastDistance's bits and the verdict over
// the first n frames of a stream, through an SDD seeded with the true
// background. The distances depend on the resize and on the reference's
// whole EMA history, so one digest covers both.
func sddDigest(cfg vidgen.Config, n int, metric Metric, delta float64) (digest uint64, passed int64) {
	s := vidgen.New(cfg)
	sdd := NewSDD(s.Background(), delta, metric)
	h := fnv.New64a()
	var word [8]byte
	for i := 0; i < n; i++ {
		f := s.Next()
		v := sdd.Process(f)
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(sdd.LastDistance()))
		h.Write(word[:])
		h.Write([]byte{byte(v)})
		f.Release()
	}
	return h.Sum64(), sdd.Stats().Passed
}

// TestSDDGolden pins the difference detector's distances and verdicts to
// digests recorded before Process and the resize were rewritten (ISSUE
// 14), on the low-TOR car stream where most frames drop and so update
// the reference.
func TestSDDGolden(t *testing.T) {
	cfg := vidgen.Small(1, frame.ClassCar, 0.1)
	for _, tc := range []struct {
		name       string
		metric     Metric
		delta      float64
		want       uint64
		wantPassed int64
	}{
		{"mse", MetricMSE, 40, goldenSDDMSE, goldenSDDMSEPassed},
		{"sad", MetricSAD, 30000, goldenSDDSAD, goldenSDDSADPassed},
	} {
		got, passed := sddDigest(cfg, 400, tc.metric, tc.delta)
		if got != tc.want || passed != tc.wantPassed {
			t.Errorf("%s: digest %016x with %d passed, want %016x with %d",
				tc.name, got, passed, tc.want, tc.wantPassed)
		}
	}
}

// Recorded at commit bfffb9b (the parent of the kernel rewrite).
const (
	goldenSDDMSE       uint64 = 0x35684586b53912ac
	goldenSDDMSEPassed int64  = 68
	goldenSDDSAD       uint64 = 0x087654f268789e4d
	goldenSDDSADPassed int64  = 65
)
