package sem

import (
	"math"
	"math/rand"
	"testing"
)

// The generated and SIMD variants share one correctness bar: bit
// identity with MxMBasic. Everything here asserts exact Float64bits
// equality, never tolerances.

func TestMxMGeneratedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 1; k <= mxmGenMaxK; k++ {
		for _, mn := range [][2]int{{1, 1}, {k, k}, {k*k + 1, k}, {13, 6}, {6, 17}} {
			m, n := mn[0], mn[1]
			a := randSlice(rng, m*k)
			b := randSlice(rng, k*n)
			want := make([]float64, m*n)
			MxM(MxMBasic, a, m, b, k, want, n)
			got := make([]float64, m*n)
			if !mxmGen(a, m, b, k, got, n) {
				t.Fatalf("k=%d has no generated kernel", k)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("k=%d m=%d n=%d: c[%d] not bit-identical", k, m, n, i)
				}
			}
		}
	}
	// Dispatch boundary: k above the generated range reports false.
	k := mxmGenMaxK + 1
	if mxmGen(make([]float64, 2*k), 2, make([]float64, k*2), k, make([]float64, 4), 2) {
		t.Fatalf("k=%d unexpectedly generated", k)
	}
}

// TestMxMSIMDExact runs every block shape of the assembly — 4 x 8 and
// 4 x 4 register blocks, the clamped last row and column blocks that
// recompute their neighbours' elements, and the one-row path for one or
// two leftover rows and for m < 4 or n < 4 — against MxMBasic. A is
// laced with signed zeros so an all -0 product row tells a +0 start from
// a first-product start, and three sentinel cells after C catch any
// store past m x n.
func TestMxMSIMDExact(t *testing.T) {
	if !HasSIMD() {
		// The fallback path: MxMSIMD must still be correct (it degrades
		// to generated/fused+unroll), and mxmSIMD must refuse.
		if mxmSIMD(make([]float64, 4), 2, make([]float64, 4), 2, make([]float64, 4), 2) {
			t.Fatal("mxmSIMD reported success without AVX2")
		}
	}
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
			a := randSlice(rng, m*k)
			// Without AVX2, MxMSIMD runs the generated kernels, which start
			// from the first product: on -0 they differ from MxMBasic by
			// design (DESIGN.md), so only the assembly is held to signed zeros.
			if HasSIMD() {
				for i := 0; i < m*k; i += 3 {
					a[i] = math.Copysign(0, float64(i%2)-0.5)
				}
			}
			for _, n := range ns {
				b := randSlice(rng, k*n)
				want := make([]float64, m*n)
				MxM(MxMBasic, a, m, b, k, want, n)
				buf := make([]float64, m*n+guard)
				for i := range buf {
					buf[i] = sentinel
				}
				MxM(MxMSIMD, a, m, b, k, buf[:m*n:m*n], n)
				for i := range want {
					if math.Float64bits(buf[i]) != math.Float64bits(want[i]) {
						t.Fatalf("m=%d k=%d n=%d: c[%d] = %x, want %x (not bit-identical)",
							m, k, n, i, math.Float64bits(buf[i]), math.Float64bits(want[i]))
					}
				}
				for i := m * n; i < len(buf); i++ {
					if math.Float64bits(buf[i]) != math.Float64bits(sentinel) {
						t.Fatalf("m=%d k=%d n=%d: wrote past C at %d", m, k, n, i)
					}
				}
			}
		}
	}
}

// mxmSIMDWant is the kernel MxM(MxMSIMD, ...) runs at reduction size k
// on this build — the static dispatch production relies on: AVX2 at
// every k where the host has it, else the generated kernel up to k = 16
// and fused+unroll above.
func mxmSIMDWant(k int) string {
	switch {
	case HasSIMD():
		return "simd"
	case k <= mxmGenMaxK:
		return "generated"
	}
	return "fused+unroll"
}

// TestMxMEffectiveNames is the regression test for the kernelbench -mxm
// labeling bug: a variant outside its specialization range must report
// the fallback that actually runs, not its own name. It also pins the
// static dispatch of MxMSIMD at every k production can send it.
func TestMxMEffectiveNames(t *testing.T) {
	for k := 1; k <= mxmGenMaxK; k++ {
		if got := MxMEffective(MxMGenerated, k); got != "generated" {
			t.Errorf("generated k=%d: effective %q", k, got)
		}
	}
	if got := MxMEffective(MxMGenerated, mxmGenMaxK+1); got != "fused+unroll" {
		t.Errorf("generated k=%d: effective %q, want fused+unroll", mxmGenMaxK+1, got)
	}
	for k := 1; k <= 24; k++ {
		if got, want := MxMEffective(MxMSIMD, k), mxmSIMDWant(k); got != want {
			t.Errorf("simd k=%d (AVX2=%v): effective %q, want %q", k, HasSIMD(), got, want)
		}
	}
	names := map[MxMVariant]string{
		MxMGenerated: "generated", MxMSIMD: "simd",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}

// TestMxMSIMDSignedZero pins the one corner where the kernels MxMSIMD
// can resolve to are not interchangeable: an output whose products are
// all -0. The AVX2 kernel and fused+unroll accumulate from +0 and give
// +0; the generated kernels start from the first product and give -0.
// So the sign follows the build's dispatch: +0 at every k with AVX2,
// else -0 for k <= 16 and +0 above.
func TestMxMSIMDSignedZero(t *testing.T) {
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
		MxM(MxMSIMD, a, m, b, k, c, n)
		wantNeg := mxmSIMDWant(k) == "generated"
		for i, v := range c {
			if v != 0 || math.Signbit(v) != wantNeg {
				t.Fatalf("k=%d (%s): c[%d] = %x, want a zero with sign bit %v",
					k, mxmSIMDWant(k), i, math.Float64bits(v), wantNeg)
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
		for _, v := range MxMVariants {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: MxM(%v) did not panic", tc.name, v)
					}
				}()
				MxM(v, a, tc.m, b, tc.k, c, tc.n)
			}()
		}
	}
}

func TestMxMBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m, k, n, nel := 25, 5, 5, 7
	a := randSlice(rng, nel*m*k)
	b := randSlice(rng, k*n)
	want := make([]float64, nel*m*n)
	for e := 0; e < nel; e++ {
		MxM(MxMBasic, a[e*m*k:(e+1)*m*k], m, b, k, want[e*m*n:(e+1)*m*n], n)
	}
	for _, v := range MxMVariants {
		got := make([]float64, nel*m*n)
		ops := MxMBatch(v, a, m, b, k, got, n, nel)
		if v != MxMUnroll {
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v: batch not bit-identical at %d", v, i)
				}
			}
		}
		if ops != mxmOps(m, n, k).Times(int64(nel)) {
			t.Fatalf("%v: batch ops = %+v", v, ops)
		}
	}
}

// FuzzMxMVariants pits every variant against MxMBasic across random
// shapes with m != n and k in [1, 20]. All order-preserving variants —
// fused, fused+unroll, generated, simd — must be
// bit-identical; MxMUnroll is the one variant whose defined semantics
// reassociate the reduction (4-way partial sums), so it alone is
// checked against a tolerance.
func FuzzMxMVariants(f *testing.F) {
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
		MxM(MxMBasic, a, m, b, k, want, n)
		for _, v := range MxMVariants {
			if v == MxMBasic {
				continue
			}
			c := make([]float64, m*n)
			MxM(v, a, m, b, k, c, n)
			for i := range c {
				if v == MxMUnroll {
					if math.Abs(c[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
						t.Fatalf("%v m=%d k=%d n=%d: c[%d] = %v, want %v", v, m, k, n, i, c[i], want[i])
					}
				} else if math.Float64bits(c[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v m=%d k=%d n=%d: c[%d] = %x, want %x (not bit-identical)",
						v, m, k, n, i, math.Float64bits(c[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}
