package sem

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Every kernel MxM can pick shares one correctness bar: bit identity
// with mxmBasic, each kernel called directly. Everything here asserts
// exact Float64bits equality, never tolerances.

func TestMxMGenExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 1; k <= mxmGenMaxK; k++ {
		for _, mn := range [][2]int{{1, 1}, {k, k}, {k*k + 1, k}, {13, 6}, {6, 17}} {
			m, n := mn[0], mn[1]
			a := randSlice(rng, m*k)
			b := randSlice(rng, k*n)
			want := make([]float64, m*n)
			mxmBasic(a, m, b, k, want, n)
			got := make([]float64, m*n)
			mxmGen(a, m, b, k, got, n)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("k=%d m=%d n=%d: c[%d] not bit-identical", k, m, n, i)
				}
			}
		}
	}
	// Range boundary: k above the generated range has no kernel.
	defer func() {
		if recover() == nil {
			t.Fatalf("mxmGen ran k=%d, above its range", mxmGenMaxK+1)
		}
	}()
	k := mxmGenMaxK + 1
	mxmGen(make([]float64, 2*k), 2, make([]float64, k*2), k, make([]float64, 4), 2)
}

// TestMxMKernelsExact runs every block shape of the assembly — 4 x 8 and
// 4 x 4 register blocks, the clamped last row and column blocks that
// recompute their neighbours' elements, and the one-row path for one or
// two leftover rows and for m < 4 or n < 4 — against mxmBasic, and the
// portable kernels over the same grid. For the kernels that start from +0
// (the assembly, fused+unroll) A is laced with signed zeros so an all -0
// product row tells a +0 start from a first-product start; the generated
// kernels start from the first product and differ from mxmBasic there by
// design (TestMxMSignedZero). Three sentinel cells after C catch any
// store past m x n.
func TestMxMKernelsExact(t *testing.T) {
	const guard = 3
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	var ns []int
	for n := 1; n <= 17; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 25, 64, 100, 225, 226)
	rng := rand.New(rand.NewSource(13))
	for m := 1; m <= 20; m++ {
		for k := 1; k <= 17; k++ {
			for _, kn := range mxmCandidates(k)[1:] {
				a := randSlice(rng, m*k)
				if kn.name != "generated" {
					for i := 0; i < m*k; i += 3 {
						a[i] = math.Copysign(0, float64(i%2)-0.5)
					}
				}
				for _, n := range ns {
					b := randSlice(rng, k*n)
					want := make([]float64, m*n)
					mxmBasic(a, m, b, k, want, n)
					buf := make([]float64, m*n+guard)
					for i := range buf {
						buf[i] = sentinel
					}
					kn.fn(a, m, b, k, buf[:m*n:m*n], n)
					for i := range want {
						if math.Float64bits(buf[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s m=%d k=%d n=%d: c[%d] = %x, want %x (not bit-identical)",
								kn.name, m, k, n, i, math.Float64bits(buf[i]), math.Float64bits(want[i]))
						}
					}
					for i := m * n; i < len(buf); i++ {
						if math.Float64bits(buf[i]) != math.Float64bits(sentinel) {
							t.Fatalf("%s m=%d k=%d n=%d: wrote past C at %d", kn.name, m, k, n, i)
						}
					}
				}
			}
		}
	}
}

// mxmWant is the kernel MxM runs at reduction size k on this build — the
// static dispatch production relies on: AVX2 at every k where the host
// has it, else the generated kernel up to k = 16 and fused+unroll above.
func mxmWant(k int) (mxmFunc, string) {
	switch {
	case HasSIMD():
		return mxmAVX2, "simd"
	case k <= mxmGenMaxK:
		return mxmGen, "generated"
	}
	return mxmFusedUnroll, "fused+unroll"
}

// TestMxMEffectiveNames pins the static dispatch at every k production
// can send it: the kernel mxmKernel hands out and the name MxMEffective
// reports for it (the name keys TestViscousRHSGolden's rows).
func TestMxMEffectiveNames(t *testing.T) {
	ptr := func(f mxmFunc) uintptr { return reflect.ValueOf(f).Pointer() }
	for k := 1; k <= 24; k++ {
		wantFn, want := mxmWant(k)
		if got := MxMEffective(k); got != want {
			t.Errorf("k=%d (AVX2=%v): effective %q, want %q", k, HasSIMD(), got, want)
		}
		if fn, _ := mxmKernel(k); ptr(fn) != ptr(wantFn) {
			t.Errorf("k=%d (AVX2=%v): mxmKernel picked a kernel other than %s", k, HasSIMD(), want)
		}
	}
}

// TestMxMSignedZero pins the one corner where the kernels MxM can pick
// are not interchangeable: an output whose products are all -0. The AVX2
// kernel and fused+unroll accumulate from +0 and give +0; the generated
// kernels start from the first product and give -0. So the sign follows
// the build's dispatch: +0 at every k with AVX2, else -0 for k <= 16 and
// +0 above.
func TestMxMSignedZero(t *testing.T) {
	const m, n = 5, 7
	for k := 1; k <= 24; k++ {
		a := make([]float64, m*k)
		for i := range a {
			a[i] = math.Copysign(0, -1)
		}
		b := make([]float64, k*n)
		for i := range b {
			b[i] = 1
		}
		c := make([]float64, m*n)
		MxM(a, m, b, k, c, n)
		_, name := mxmWant(k)
		wantNeg := name == "generated"
		for i, v := range c {
			if v != 0 || math.Signbit(v) != wantNeg {
				t.Fatalf("k=%d (%s): c[%d] = %x, want a zero with sign bit %v",
					k, name, i, math.Float64bits(v), wantNeg)
			}
		}
	}
}

// TestMxMRejectsNonPositiveDims pins the shape-guard bugfix: m=0 used
// to silently no-op over garbage slices, and negative dims whose
// pairwise products are positive (m=-1, k=-1 gives m*k=1) slipped past
// the pure length checks.
func TestMxMRejectsNonPositiveDims(t *testing.T) {
	a := make([]float64, 16)
	b := make([]float64, 16)
	c := make([]float64, 16)
	cases := []struct {
		name    string
		m, k, n int
	}{
		{"m=0", 0, 2, 2},
		{"k=0", 2, 0, 2},
		{"n=0", 2, 2, 0},
		{"m,k negative", -1, -1, 2},
		{"k,n negative", 2, -1, -1},
		{"all negative", -2, -2, -2},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MxM did not panic", tc.name)
				}
			}()
			MxM(a, tc.m, b, tc.k, c, tc.n)
		}()
	}
}

// FuzzMxMKernels pits each kernel MxM can pick in this build — the AVX2
// assembly where present, the generated kernels for k <= 16 and
// fused+unroll — against mxmBasic across random shapes with m != n and
// k in [1, 20], each called directly. All accumulate in ascending l, so
// every one must be bit-identical.
func FuzzMxMKernels(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(9), uint8(7))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0))
	f.Add(int64(3), uint8(16), uint8(19), uint8(3))
	f.Add(int64(4), uint8(255), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, rm, rk, rn uint8) {
		m := int(rm)%24 + 1
		k := int(rk)%20 + 1
		n := int(rn)%24 + 1
		if n == m {
			n = n%24 + 1 // never equal to n in [1, 24]
		}
		rng := rand.New(rand.NewSource(seed))
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		want := make([]float64, m*n)
		mxmBasic(a, m, b, k, want, n)
		for _, kn := range mxmCandidates(k)[1:] {
			c := make([]float64, m*n)
			kn.fn(a, m, b, k, c, n)
			for i := range c {
				if math.Float64bits(c[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s m=%d k=%d n=%d: c[%d] = %x, want %x (not bit-identical)",
						kn.name, m, k, n, i, math.Float64bits(c[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}
