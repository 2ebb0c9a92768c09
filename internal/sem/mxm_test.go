package sem

import (
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

func TestMxMVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {8, 8, 8}, {9, 9, 9}, {10, 10, 10},
		{12, 9, 11}, {7, 10, 9}, {10, 25, 7}, {13, 1, 13}, {16, 16, 16}, {25, 25, 25}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		want := mxmRef(a, m, b, k, n)
		for _, v := range MxMVariants {
			c := make([]float64, m*n)
			ops := MxM(v, a, m, b, k, c, n)
			for i := range c {
				if math.Abs(c[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
					t.Fatalf("%v (%dx%dx%d): c[%d] = %v, want %v", v, m, k, n, i, c[i], want[i])
				}
			}
			if ops.Mul != int64(m)*int64(n)*int64(k) {
				t.Errorf("%v: Mul = %d, want %d", v, ops.Mul, m*n*k)
			}
			if ops.Store != int64(m)*int64(n) {
				t.Errorf("%v: Store = %d", v, ops.Store)
			}
		}
	}
}

func TestMxMVariantsAgreeProperty(t *testing.T) {
	f := func(seed int64, rm, rk, rn uint8) bool {
		m := int(rm)%12 + 1
		k := int(rk)%12 + 1
		n := int(rn)%12 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		want := mxmRef(a, m, b, k, n)
		for _, v := range MxMVariants {
			c := make([]float64, m*n)
			MxM(v, a, m, b, k, c, n)
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
	for _, v := range MxMVariants {
		c := make([]float64, n*n)
		MxM(v, id, n, b, n, c, n)
		for i := range c {
			if c[i] != b[i] {
				t.Fatalf("%v: identity multiply altered data", v)
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
	MxM(MxMBasic, make([]float64, 3), 2, make([]float64, 4), 2, make([]float64, 4), 2)
}

func TestMxMVariantStrings(t *testing.T) {
	names := map[MxMVariant]string{
		MxMBasic: "basic", MxMUnroll: "unroll", MxMFused: "fused", MxMFusedUnroll: "fused+unroll",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
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
