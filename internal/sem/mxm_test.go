package sem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// mxmRef is an independent reference implementation for validation.
func mxmRef(a []float64, m int, b []float64, k int, n int) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for l := 0; l < k; l++ {
			for j := 0; j < n; j++ {
				c[i*n+j] += a[i*k+l] * b[l*n+j]
			}
		}
	}
	return c
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// namedMxM is one mxm kernel under test, called directly.
type namedMxM struct {
	name string
	fn   mxmFunc
}

// mxmCandidates lists the reference mxmBasic first, then every kernel
// mxmKernel can pick for reduction size k in this build — the AVX2
// assembly only where the build and the host have it — so each is tested
// on its own rather than only through the dispatch.
func mxmCandidates(k int) []namedMxM {
	ks := []namedMxM{{"basic", mxmBasic}, {"fused+unroll", mxmFusedUnroll}}
	if k <= mxmGenMaxK {
		ks = append(ks, namedMxM{"generated", mxmGen})
	}
	if hasAVX2 {
		ks = append(ks, namedMxM{"simd", mxmAVX2})
	}
	return ks
}

// mxmEntry is MxM in the kernel signature, for tables that mix the two.
func mxmEntry(a []float64, m int, b []float64, k int, c []float64, n int) {
	MxM(a, m, b, k, c, n)
}

func TestMxMKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {8, 8, 8}, {9, 9, 9}, {10, 10, 10},
		{12, 9, 11}, {7, 10, 9}, {10, 25, 7}, {13, 1, 13}, {16, 16, 16}, {25, 25, 25}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		want := mxmRef(a, m, b, k, n)
		for _, kn := range mxmCandidates(k) {
			c := make([]float64, m*n)
			kn.fn(a, m, b, k, c, n)
			for i := range c {
				if math.Abs(c[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
					t.Fatalf("%s (%dx%dx%d): c[%d] = %v, want %v", kn.name, m, k, n, i, c[i], want[i])
				}
			}
		}
		ops := MxM(a, m, b, k, make([]float64, m*n), n)
		if ops.Mul != int64(m)*int64(n)*int64(k) {
			t.Errorf("Mul = %d, want %d", ops.Mul, m*n*k)
		}
		if ops.Store != int64(m)*int64(n) {
			t.Errorf("Store = %d", ops.Store)
		}
	}
}

func TestMxMKernelsAgreeProperty(t *testing.T) {
	f := func(seed int64, rm, rk, rn uint8) bool {
		m := int(rm)%12 + 1
		k := int(rk)%20 + 1
		n := int(rn)%12 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		want := mxmRef(a, m, b, k, n)
		for _, kn := range mxmCandidates(k) {
			c := make([]float64, m*n)
			kn.fn(a, m, b, k, c, n)
			for i := range c {
				if math.Abs(c[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMxMIdentity(t *testing.T) {
	n := 6
	id := make([]float64, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	rng := rand.New(rand.NewSource(2))
	b := randSlice(rng, n*n)
	for _, kn := range append(mxmCandidates(n), namedMxM{"MxM", mxmEntry}) {
		c := make([]float64, n*n)
		kn.fn(id, n, b, n, c, n)
		for i := range c {
			if c[i] != b[i] {
				t.Fatalf("%s: identity multiply altered data", kn.name)
			}
		}
	}
}

func TestMxMShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undersized operands must panic")
		}
	}()
	MxM(make([]float64, 3), 2, make([]float64, 4), 2, make([]float64, 4), 2)
}

// BenchmarkMxM times the reference loop against the kernel MxM picks in
// this build (the row is named after it) on the derivative's shape,
// (n x n) * (n x n^2), at the paper's small orders.
func BenchmarkMxM(b *testing.B) {
	for _, n := range []int{5, 10, 16, 25} {
		rng := rand.New(rand.NewSource(2))
		d := randSlice(rng, n*n)
		u := randSlice(rng, n*n*n)
		du := make([]float64, n*n*n)
		rows := []namedMxM{
			{"basic", mxmBasic},
			{MxMEffective(n), mxmEntry},
		}
		for _, r := range rows {
			b.Run(fmt.Sprintf("%s/N=%d", r.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r.fn(d, n, u, n, du, n*n)
				}
				flops := 2 * float64(n*n*n*n) * float64(b.N)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "Gflop/s")
			})
		}
	}
}

func TestOpCountArithmetic(t *testing.T) {
	a := OpCount{Mul: 1, Add: 2, Load: 3, Store: 4}
	b := OpCount{Mul: 10, Add: 20, Load: 30, Store: 40}
	s := a.Plus(b)
	if s != (OpCount{11, 22, 33, 44}) {
		t.Fatalf("Plus = %+v", s)
	}
	if a.Times(3) != (OpCount{3, 6, 9, 12}) {
		t.Fatalf("Times = %+v", a.Times(3))
	}
	if a.Flops() != 3 {
		t.Fatalf("Flops = %d", a.Flops())
	}
}
