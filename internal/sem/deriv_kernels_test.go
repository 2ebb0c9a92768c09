package sem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The r/s kernels of one order — hand loop, generated Go, AVX2 — differ
// in instruction selection only, so they are held to each other bit for
// bit on hostile inputs as well as random ones. Two things are not
// pinned, because neither the Go compiler nor IEEE 754 pins them:
//
//   - which NaN comes out when several go in (x86 returns the first
//     operand's payload, and the compiler is free to commute), so any NaN
//     equals any NaN;
//   - against the hand loops only, the sign of an exact zero: dudrOpt and
//     dudsOpt start their partial sums from +0, the generated kernels
//     (Go and AVX2 alike) from the lane's first product, so a sum of
//     nothing but -0 terms is +0 there and -0 here. Between the generated
//     Go kernel and the AVX2 kernel the sign of zero is compared too:
//     that is where assembly and compiled Go could part.

// specials are the values the seeded inputs are laced with.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 2.5e-308, -1e-310, 1e308, -1e308,
}

// seedSpecials overwrites about one value in every of u with a special.
func seedSpecials(rng *rand.Rand, u []float64, every int) {
	for i := range u {
		if rng.Intn(every) == 0 {
			u[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// diffBits returns the first index at which got and want differ — by
// Float64bits, any two NaNs alike, and with anyZero also +0 like -0 —
// or -1.
func diffBits(got, want []float64, anyZero bool) int {
	for i, w := range want {
		g := got[i]
		switch {
		case math.Float64bits(g) == math.Float64bits(w):
		case math.IsNaN(g) && math.IsNaN(w):
		case anyZero && g == 0 && w == 0:
		default:
			return i
		}
	}
	return -1
}

// derivKernelsAgree runs every r and s kernel of order n over nel
// elements of u with operator d and reports the first disagreement.
func derivKernelsAgree(d []float64, n int, u []float64, nel int) error {
	n3 := n * n * n
	hand := [2]axisFunc{DirR: dudrOpt, DirS: dudsOpt}
	want := make([]float64, nel*n3)
	got := make([]float64, nel*n3)
	run := func(fn axisFunc, op []float64) []float64 {
		for i := range got {
			got[i] = 12345 // a kernel must write every output
		}
		fn(op, n, u, got, nel)
		return got
	}
	for _, dir := range []Direction{DirR, DirS} {
		hand[dir](d, n, u, want, nel)
		if i := diffBits(run(derivResolve(dir, Optimized, n), d), want, true); i >= 0 {
			return fmt.Errorf("n=%d nel=%d %v: resolved kernel differs from the hand loop at %d: %x vs %x",
				n, nel, dir, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
		simd, ok := derivSIMD(dir)
		if n < derivGenMinN || n > derivGenMaxN || !ok {
			continue
		}
		gen := derivRGen[n]
		if dir == DirS {
			gen = derivSGen[n]
		}
		copy(want, run(gen, d))
		if i := diffBits(run(simd.fn, d), want, false); i >= 0 {
			return fmt.Errorf("n=%d nel=%d %v: the AVX2 kernel differs from the generated Go one at %d: %x vs %x",
				n, nel, dir, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
		if simd.fnT == nil {
			continue
		}
		if i := diffBits(run(simd.fnT, Transpose(d, n, n)), want, false); i >= 0 {
			return fmt.Errorf("n=%d nel=%d %v: the AVX2 kernel given the transpose differs from the generated Go one at %d",
				n, nel, dir, i)
		}
	}
	return nil
}

// TestDerivKernelsAgree is the table: every order from below the
// generated range to above it, one and several elements, on random data,
// on data laced with signed zeros, infinities, NaNs and denormals (in
// the field, and in field and operator both), on an all -0 field, where
// every product is a signed zero, and under an all-ones operator on it,
// where every product is -0 (the case the hand loops answer with +0).
func TestDerivKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	negZero := math.Copysign(0, -1)
	for n := 2; n <= 20; n++ {
		ref := NewRef1D(n)
		for _, nel := range []int{1, 3} {
			u := randSlice(rng, nel*n*n*n)
			check := func(what string, d, u []float64) {
				t.Helper()
				if err := derivKernelsAgree(d, n, u, nel); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			check("random", ref.D, u)
			seedSpecials(rng, u, 6)
			check("seeded field", ref.D, u)
			d := append([]float64(nil), ref.D...)
			seedSpecials(rng, d, 4)
			check("seeded field and operator", d, u)
			for i := range u {
				u[i] = negZero
			}
			check("all -0 field", ref.D, u)
			for i := range d {
				d[i] = 1
			}
			check("all -0 products", d, u)
		}
	}
}

// FuzzDerivKernels is the differential fuzzer behind the table: random
// order, element count, special-value density and seed.
func FuzzDerivKernels(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0), uint8(0))
	f.Add(int64(2), uint8(3), uint8(2), uint8(3))
	f.Add(int64(3), uint8(14), uint8(1), uint8(1))
	f.Add(int64(4), uint8(255), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, rn, rnel, density uint8) {
		n := 2 + int(rn)%19
		nel := 1 + int(rnel)%3
		rng := rand.New(rand.NewSource(seed))
		d := randSlice(rng, n*n)
		u := randSlice(rng, nel*n*n*n)
		if every := int(density) % 8; every > 0 {
			seedSpecials(rng, u, every)
			seedSpecials(rng, d, 2*every)
		}
		if err := derivKernelsAgree(d, n, u, nel); err != nil {
			t.Fatal(err)
		}
	})
}
