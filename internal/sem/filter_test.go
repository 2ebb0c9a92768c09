package sem

import (
	"math"
	"math/rand"
	"testing"
)

func TestVandermondeLegendre(t *testing.T) {
	x := GLLNodes(4)
	v := VandermondeLegendre(x)
	// Column 0 is P_0 = 1; column 1 is P_1 = x.
	for i := 0; i < 4; i++ {
		if v[i*4+0] != 1 {
			t.Fatalf("V[%d,0] = %v", i, v[i*4+0])
		}
		if math.Abs(v[i*4+1]-x[i]) > 1e-14 {
			t.Fatalf("V[%d,1] = %v, want %v", i, v[i*4+1], x[i])
		}
	}
}

func TestInvertRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 5, 9} {
		a := randSlice(rng, n*n)
		for i := 0; i < n; i++ {
			a[i*n+i] += float64(n) // diagonally dominant => nonsingular
		}
		inv := invert(a, n)
		prod := make([]float64, n*n)
		mxmBasic(a, n, inv, n, prod, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod[i*n+j]-want) > 1e-9 {
					t.Fatalf("n=%d: A*inv(A)[%d,%d] = %v", n, i, j, prod[i*n+j])
				}
			}
		}
	}
}

func TestInvertSingularPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("singular matrix must panic")
		}
	}()
	invert([]float64{1, 2, 2, 4}, 2)
}

func TestFilterPreservesLowModes(t *testing.T) {
	n := 8
	x := GLLNodes(n)
	cutoff := 5
	f := FilterMatrix(x, cutoff, 1.0)
	// Any polynomial of degree < cutoff must pass through unchanged.
	for p := 0; p < cutoff; p++ {
		u := make([]float64, n)
		for i := range u {
			u[i] = LegendreP(p, x[i])
		}
		out := make([]float64, n)
		mxmBasic(f, n, u, n, out, 1)
		for i := range out {
			if math.Abs(out[i]-u[i]) > 1e-10 {
				t.Fatalf("mode %d altered: %v -> %v", p, u[i], out[i])
			}
		}
	}
}

func TestFilterDampsHighestMode(t *testing.T) {
	n := 8
	x := GLLNodes(n)
	f := FilterMatrix(x, 4, 1.0)
	// The highest mode (k = n-1) has sigma = 0 with strength 1.
	u := make([]float64, n)
	for i := range u {
		u[i] = LegendreP(n-1, x[i])
	}
	out := make([]float64, n)
	mxmBasic(f, n, u, n, out, 1)
	for i := range out {
		if math.Abs(out[i]) > 1e-9 {
			t.Fatalf("highest mode survived filtering: out[%d] = %v", i, out[i])
		}
	}
}

func TestFilterElementsBlend(t *testing.T) {
	n := 6
	ref := NewRef1D(n)
	f := FilterMatrix(ref.X, 3, 1.0)
	// A low-degree field is invariant under the filter, so any blend
	// weight must leave it unchanged.
	u := fillField(ref, 2, func(x, y, z float64) float64 { return 1 + x + y*z })
	orig := append([]float64(nil), u...)
	scratch := make([]float64, FilterScratchLen(n))
	ops := FilterElements(f, n, u, 2, 0.7, scratch)
	for i := range u {
		if math.Abs(u[i]-orig[i]) > 1e-9 {
			t.Fatalf("low-degree field changed at %d: %v -> %v", i, orig[i], u[i])
		}
	}
	if ops.Flops() <= 0 {
		t.Fatal("filter must report work")
	}
}

func TestFilterElementsReducesRoughness(t *testing.T) {
	n := 7
	ref := NewRef1D(n)
	f := FilterMatrix(ref.X, 3, 1.0)
	rng := rand.New(rand.NewSource(13))
	u := randSlice(rng, n*n*n)
	// Roughness proxy: sum of squared differences of adjacent nodes.
	rough := func(v []float64) float64 {
		r := 0.0
		for i := 1; i < len(v); i++ {
			d := v[i] - v[i-1]
			r += d * d
		}
		return r
	}
	before := rough(u)
	scratch := make([]float64, FilterScratchLen(n))
	FilterElements(f, n, u, 1, 1.0, scratch)
	if after := rough(u); after >= before {
		t.Fatalf("filter did not smooth random data: %v -> %v", before, after)
	}
}

func TestFilterZeroStrengthIsIdentity(t *testing.T) {
	n := 5
	x := GLLNodes(n)
	f := FilterMatrix(x, 1, 0)
	rng := rand.New(rand.NewSource(14))
	u := randSlice(rng, n)
	out := make([]float64, n)
	mxmBasic(f, n, u, n, out, 1)
	for i := range out {
		if math.Abs(out[i]-u[i]) > 1e-10 {
			t.Fatalf("zero-strength filter altered data at %d", i)
		}
	}
}
