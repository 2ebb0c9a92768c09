package sem

import (
	"math"
	"math/rand"
	"testing"
)

func TestTensorApply3Identity(t *testing.T) {
	n := 5
	id := make([]float64, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	rng := rand.New(rand.NewSource(4))
	u := randSlice(rng, n*n*n)
	w := make([]float64, n*n*n)
	scratch := make([]float64, TensorScratchLen(n, n, n, n, n, n))
	TensorApply3(id, n, n, id, n, n, id, n, n, u, w, scratch)
	for i := range w {
		if math.Abs(w[i]-u[i]) > 1e-12 {
			t.Fatalf("identity tensor apply altered data at %d", i)
		}
	}
}

// TestTensorApply3MatchesDirectSum holds TensorApply3 bit for bit to
// three mxmBasic passes in stage order — the first on A transposed — at
// rectangular shapes (m1 != n1, including both dealiasing directions),
// and the smallest of them to the O(n^6) direct formula, which pins what
// the stages compute.
func TestTensorApply3MatchesDirectSum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sh := range [][6]int{
		{3, 4, 2, 2, 3, 4},
		{5, 6, 7, 9, 4, 3},
		{10, 10, 10, 15, 15, 15},
		{15, 15, 15, 10, 10, 10},
	} {
		n1, n2, n3, m1, m2, m3 := sh[0], sh[1], sh[2], sh[3], sh[4], sh[5]
		a := randSlice(rng, m1*n1)
		b := randSlice(rng, m2*n2)
		c := randSlice(rng, m3*n3)
		u := randSlice(rng, n1*n2*n3)
		w := make([]float64, m1*m2*m3)
		scratch := make([]float64, TensorScratchLen(m1, n1, m2, n2, m3, n3))
		ops := TensorApply3(a, m1, n1, b, m2, n2, c, m3, n3, u, w, scratch)
		if want := tensorApplyOps(m1, n1, m2, n2, m3, n3); ops != want {
			t.Fatalf("%v: ops = %+v, want %+v", sh, ops, want)
		}

		t1 := make([]float64, m1*n2*n3)
		mxmBasic(u, n2*n3, Transpose(a, m1, n1), n1, t1, m1)
		t2 := make([]float64, m1*m2*n3)
		for k := 0; k < n3; k++ {
			mxmBasic(b, m2, t1[k*m1*n2:], n2, t2[k*m1*m2:], m1)
		}
		want := make([]float64, m1*m2*m3)
		mxmBasic(c, m3, t2, n3, want, m1*m2)
		for i := range want {
			if math.Float64bits(w[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: w[%d] = %v, want %v (not bit-identical)", sh, i, w[i], want[i])
			}
		}
		if n1*n2*n3 > 24 {
			continue
		}
		for kk := 0; kk < m3; kk++ {
			for jj := 0; jj < m2; jj++ {
				for ii := 0; ii < m1; ii++ {
					direct := 0.0
					for k := 0; k < n3; k++ {
						for j := 0; j < n2; j++ {
							for i := 0; i < n1; i++ {
								direct += a[ii*n1+i] * b[jj*n2+j] * c[kk*n3+k] * u[i+n1*j+n1*n2*k]
							}
						}
					}
					got := w[ii+m1*jj+m1*m2*kk]
					if math.Abs(got-direct) > 1e-10*(1+math.Abs(direct)) {
						t.Fatalf("tensor apply wrong at (%d,%d,%d): %v want %v", ii, jj, kk, got, direct)
					}
				}
			}
		}
	}
}

func TestDealiasRoundTripExact(t *testing.T) {
	// ToFine then FromFine must reproduce polynomial data exactly
	// (interpolation of a degree < N polynomial is lossless both ways).
	for _, n := range []int{3, 5, 8, 10} {
		ref := NewRef1D(n)
		u := fillField(ref, 1, func(x, y, z float64) float64 {
			return 1 + x + x*y - z*z + x*y*z
		})
		orig := append([]float64(nil), u...)
		uf := make([]float64, ref.NF*ref.NF*ref.NF)
		scratch := make([]float64, ref.DealiasScratchLen())
		ops := ref.DealiasRoundTrip(u, 1, uf, scratch)
		for i := range u {
			if math.Abs(u[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip changed data at %d: %v -> %v", n, i, orig[i], u[i])
			}
		}
		if ops.Flops() <= 0 {
			t.Fatal("dealias must report work")
		}
	}
}

func TestToFineInterpolatesExactly(t *testing.T) {
	ref := NewRef1D(5)
	u := fillField(ref, 1, func(x, y, z float64) float64 { return x*x + y - 2*z })
	uf := make([]float64, ref.NF*ref.NF*ref.NF)
	scratch := make([]float64, ref.DealiasScratchLen())
	ref.ToFine(u, uf, scratch)
	nf := ref.NF
	for k := 0; k < nf; k++ {
		for j := 0; j < nf; j++ {
			for i := 0; i < nf; i++ {
				want := ref.XF[i]*ref.XF[i] + ref.XF[j] - 2*ref.XF[k]
				got := uf[i+nf*j+nf*nf*k]
				if math.Abs(got-want) > 1e-10 {
					t.Fatalf("fine mesh value at (%d,%d,%d) = %v, want %v", i, j, k, got, want)
				}
			}
		}
	}
}

func TestTensorApplyPanicsOnSmallScratch(t *testing.T) {
	n := 4
	id := make([]float64, n*n)
	defer func() {
		if recover() == nil {
			t.Fatal("undersized scratch must panic")
		}
	}()
	TensorApply3(id, n, n, id, n, n, id, n, n,
		make([]float64, n*n*n), make([]float64, n*n*n), make([]float64, 1))
}
