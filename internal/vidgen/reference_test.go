package vidgen

import (
	"math/rand"
	"testing"
)

// addNoiseReference is the render loop's noise pass as it stood before
// ISSUE 14 replaced its two clamp branches with a table: the definition
// of the bytes addNoise must produce.
func addNoiseReference(pix []uint8, st uint32, ilum, amp int) uint32 {
	mask := uint32(1)
	for mask < uint32(amp) {
		mask <<= 1
	}
	mask--
	half := int(mask) / 2
	n := len(pix)
	for i := 0; i < n; {
		st ^= st << 13
		st ^= st >> 17
		st ^= st << 5
		r := st
		for k := 0; k < 4 && i < n; k++ {
			v := int(pix[i]) + ilum + int(r&mask) - half
			r >>= 8
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			pix[i] = uint8(v)
			i++
		}
	}
	return st
}

// TestAddNoiseMatchesReference covers plane lengths on both sides of
// the four-byte noise word, amplitudes whose mask fits a byte and one
// whose mask does not, and offsets that saturate either end.
func TestAddNoiseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 1023, 320 * 240} {
		for _, amp := range []int{1, 2, 4, 5, 100, 256, 300} {
			for _, ilum := range []int{0, -6, 8, -300, 300} {
				want := make([]uint8, n)
				for i := range want {
					want[i] = uint8(rng.Intn(256))
				}
				got := append([]uint8(nil), want...)
				st := rng.Uint32() | 1
				wantSt := addNoiseReference(want, st, ilum, amp)
				gotSt := addNoise(got, st, ilum, amp)
				if gotSt != wantSt {
					t.Fatalf("n=%d amp=%d ilum=%d: state %#x, want %#x", n, amp, ilum, gotSt, wantSt)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d amp=%d ilum=%d: pixel %d = %d, want %d", n, amp, ilum, i, got[i], want[i])
					}
				}
			}
		}
	}
}
