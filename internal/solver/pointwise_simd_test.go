//go:build amd64 && !semnoasm && !race

package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Every pointwise kernel's AVX2 loop is held to its Go loop bit for bit,
// signed zeros included, on random operands and on operands laced with
// signed zeros, infinities, NaNs and subnormals, at every length from 0
// to 130 and from bases at every 32-byte alignment. What is not pinned is
// which NaN comes out when two meet: x86 returns the first operand's, and
// the Go compiler is free to commute a scalar add or multiply, so any NaN
// equals any NaN.

var pwSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 2.5e-308, -1e-310, 1e308, -1e308, 1, -1,
}

// pwOperand draws a random value, or with density d in (0, 8) a special
// one about every d-th time.
func pwOperand(rng *rand.Rand, d int) float64 {
	if d > 0 && rng.Intn(d) == 0 {
		return pwSpecials[rng.Intn(len(pwSpecials))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
}

// pwKernelsAgree runs kernel k over n points both ways: the Go loop over
// all of them, and the AVX2 loop over n&^3 followed by the Go loop over
// the rest, as the wrappers do. Each stream starts 0-3 values into its
// own array, so the bases take every 32-byte alignment, and is followed by
// guard values no loop may touch.
func pwKernelsAgree(rng *rand.Rand, k, n, density int) error {
	const guard = 4
	kern := pwKernels[k]
	orig := make([][]float64, kern.streams)
	offs := make([]int, kern.streams)
	for j := range orig {
		offs[j] = rng.Intn(4)
		orig[j] = make([]float64, offs[j]+n+guard)
		for i := range orig[j] {
			orig[j][i] = pwOperand(rng, density)
		}
	}
	scalars := make([]float64, kern.scalars)
	for i := range scalars {
		scalars[i] = pwOperand(rng, density)
	}
	streams := func(from int) ([][]float64, [][]float64) {
		back, s := make([][]float64, len(orig)), make([][]float64, len(orig))
		for j := range orig {
			back[j] = append([]float64(nil), orig[j]...)
			s[j] = back[j][offs[j]+from : offs[j]+n]
		}
		return back, s
	}
	want, ws := streams(0)
	kern.goLoop(ws, scalars)

	m := n &^ 3
	got, gs := streams(0)
	kern.avx2(gs, scalars, m)
	for j := range got {
		if i := pwDiff(got[j][offs[j]+m:], orig[j][offs[j]+m:]); i >= 0 {
			return fmt.Errorf("%s n=%d: the AVX2 loop over %d points wrote stream %d at point %d", kern.name, n, m, j, m+i)
		}
	}
	for j := range gs {
		gs[j] = gs[j][m:]
	}
	kern.goLoop(gs, scalars)
	for j := range got {
		if i := pwDiff(got[j], want[j]); i >= 0 {
			g, w := got[j][i], want[j][i]
			return fmt.Errorf("%s n=%d: stream %d differs at point %d: AVX2 %v (%#x), Go %v (%#x)",
				kern.name, n, j, i-offs[j], g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	return nil
}

// pwDiff returns the first index at which got and want differ by
// Float64bits, any two NaNs alike, or -1.
func pwDiff(got, want []float64) int {
	for i, w := range want {
		g := got[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// TestPointwiseKernelsAgree is the table: every kernel at every length
// from 0 to 130, on random operands and on operands laced with specials.
func TestPointwiseKernelsAgree(t *testing.T) {
	if !pwSIMD {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(40))
	for k := range pwKernels {
		for n := 0; n <= 130; n++ {
			for _, density := range []int{0, 3} {
				if err := pwKernelsAgree(rng, k, n, density); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// FuzzPointwiseKernels is the differential fuzzer behind the table:
// random kernel, length, special-value density and seed.
func FuzzPointwiseKernels(f *testing.F) {
	if !pwSIMD {
		f.Skip("no AVX2 on this host")
	}
	f.Add(int64(1), uint8(0), uint8(17), uint8(0))
	f.Add(int64(2), uint8(5), uint8(128), uint8(2))
	f.Add(int64(3), uint8(17), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, rk, rn, density uint8) {
		rng := rand.New(rand.NewSource(seed))
		if err := pwKernelsAgree(rng, int(rk)%len(pwKernels), int(rn)%131, int(density)%8); err != nil {
			t.Fatal(err)
		}
	})
}
