package sem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pool"
)

// fillField evaluates f at every LGL point of nel identical elements.
func fillField(ref *Ref1D, nel int, f func(x, y, z float64) float64) []float64 {
	n := ref.N
	u := make([]float64, nel*n*n*n)
	for e := 0; e < nel; e++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					u[e*n*n*n+i+n*j+n*n*k] = f(ref.X[i], ref.X[j], ref.X[k])
				}
			}
		}
	}
	return u
}

func TestDerivVariantsAgree(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 11, 16} {
		ref := NewRef1D(n)
		nel := 3
		rng := rand.New(rand.NewSource(int64(n)))
		u := randSlice(rng, nel*n*n*n)
		for _, dir := range []Direction{DirR, DirS, DirT} {
			basic := make([]float64, len(u))
			opt := make([]float64, len(u))
			Deriv(dir, Basic, ref, u, basic, nel)
			Deriv(dir, Optimized, ref, u, opt, nel)
			for i := range basic {
				if math.Abs(basic[i]-opt[i]) > 1e-9*(1+math.Abs(basic[i])) {
					t.Fatalf("n=%d %v: basic and optimized disagree at %d: %v vs %v",
						n, dir, i, basic[i], opt[i])
				}
			}
		}
	}
}

func TestDerivExactOnPolynomials(t *testing.T) {
	ref := NewRef1D(7)
	nel := 2
	// f = x^3 y^2 z, whose derivatives are polynomial and representable.
	u := fillField(ref, nel, func(x, y, z float64) float64 { return x * x * x * y * y * z })
	wantR := fillField(ref, nel, func(x, y, z float64) float64 { return 3 * x * x * y * y * z })
	wantS := fillField(ref, nel, func(x, y, z float64) float64 { return 2 * x * x * x * y * z })
	wantT := fillField(ref, nel, func(x, y, z float64) float64 { return x * x * x * y * y })

	for _, v := range []KernelVariant{Basic, Optimized} {
		for dir, want := range map[Direction][]float64{DirR: wantR, DirS: wantS, DirT: wantT} {
			got := make([]float64, len(u))
			Deriv(dir, v, ref, u, got, nel)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("%v %v: wrong derivative at %d: %v want %v", v, dir, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDerivOfConstantIsZero(t *testing.T) {
	ref := NewRef1D(9)
	u := fillField(ref, 1, func(x, y, z float64) float64 { return 4.25 })
	for _, dir := range []Direction{DirR, DirS, DirT} {
		got := make([]float64, len(u))
		Deriv(dir, Optimized, ref, u, got, 1)
		for i := range got {
			if math.Abs(got[i]) > 1e-10 {
				t.Fatalf("%v of constant = %v at %d", dir, got[i], i)
			}
		}
	}
}

func TestGrad3LinearField(t *testing.T) {
	ref := NewRef1D(6)
	nel := 4
	u := fillField(ref, nel, func(x, y, z float64) float64 { return 2*x - 3*y + 5*z })
	n3 := ref.N * ref.N * ref.N
	ur := make([]float64, nel*n3)
	us := make([]float64, nel*n3)
	ut := make([]float64, nel*n3)
	ops := Grad3FusedPool(nil, ref, u, ur, us, ut, nel)
	for i := range ur {
		if !almost(ur[i], 2, 1e-10) || !almost(us[i], -3, 1e-10) || !almost(ut[i], 5, 1e-10) {
			t.Fatalf("grad of linear field wrong at %d: %v %v %v", i, ur[i], us[i], ut[i])
		}
	}
	wantFlops := int64(3 * 2 * nel * n3 * ref.N)
	if ops.Flops() != wantFlops {
		t.Fatalf("Grad3FusedPool flops = %d, want %d", ops.Flops(), wantFlops)
	}
	// The solver charges the hw model per direction with DerivOps.
	if ops != DerivOps(ref.N, nel).Times(3) {
		t.Fatalf("Grad3FusedPool ops %+v != 3x DerivOps", ops)
	}
}

func TestDerivMatchesMxMConstruction(t *testing.T) {
	// dudr over one element must equal the mxm formulation
	// (D applied to u viewed as N x N^2 column-major).
	n := 8
	ref := NewRef1D(n)
	rng := rand.New(rand.NewSource(3))
	u := randSlice(rng, n*n*n)
	got := make([]float64, n*n*n)
	Deriv(DirR, Optimized, ref, u, got, 1)
	// Reference via mxm: (u as row-major N^2 x N) * D^T.
	want := make([]float64, n*n*n)
	MxM(MxMFusedUnroll, u, n*n, ref.Dt, n, want, n)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
			t.Fatalf("deriv != mxm at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestDerivOpCountsScaleWithElements(t *testing.T) {
	ref := NewRef1D(5)
	u1 := make([]float64, 125)
	d1 := make([]float64, 125)
	one := Deriv(DirR, Basic, ref, u1, d1, 1)
	u4 := make([]float64, 4*125)
	d4 := make([]float64, 4*125)
	four := Deriv(DirR, Basic, ref, u4, d4, 4)
	if four != one.Times(4) {
		t.Fatalf("op counts don't scale: %+v vs 4*%+v", four, one)
	}
}

func TestDerivPanicsOnShortSlices(t *testing.T) {
	ref := NewRef1D(4)
	defer func() {
		if recover() == nil {
			t.Fatal("short slices must panic")
		}
	}()
	Deriv(DirR, Basic, ref, make([]float64, 10), make([]float64, 10), 1)
}

// TestDerivRejectsBadDirection: an out-of-range Direction used to fall
// through Deriv's switch — du untouched, a full derivOps returned and
// charged — while ApplyDir panicked. Every entry now rejects it, as
// they do an unknown variant.
func TestDerivRejectsBadDirection(t *testing.T) {
	ref := NewRef1D(4)
	u, du := make([]float64, 64), make([]float64, 64)
	p := pool.New(2)
	defer p.Close()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	for _, dir := range []Direction{-1, 3} {
		for _, v := range []KernelVariant{Basic, Optimized} {
			mustPanic(fmt.Sprintf("Deriv(%d, %v)", int(dir), v), func() { Deriv(dir, v, ref, u, du, 1) })
			mustPanic(fmt.Sprintf("DerivPool(%d, %v)", int(dir), v), func() { DerivPool(p, dir, v, ref, u, du, 1) })
		}
		mustPanic(fmt.Sprintf("ApplyDir(%d)", int(dir)), func() { ApplyDir(dir, ref.D, 4, u, du, 1) })
	}
	mustPanic("Deriv(variant 7)", func() { Deriv(DirR, KernelVariant(7), ref, u, du, 1) })
}

func TestDirectionAndVariantStrings(t *testing.T) {
	if DirR.String() != "dudr" || DirS.String() != "duds" || DirT.String() != "dudt" {
		t.Fatal("direction names wrong")
	}
	if Basic.String() != "basic" || Optimized.String() != "optimized" {
		t.Fatal("variant names wrong")
	}
}

func TestDerivLinearityProperty(t *testing.T) {
	// Property: Deriv(a*u + b*v) == a*Deriv(u) + b*Deriv(v).
	ref := NewRef1D(6)
	n3 := 216
	f := func(seed int64, ra, rb int8) bool {
		a, b := float64(ra)/16, float64(rb)/16
		rng := rand.New(rand.NewSource(seed))
		u := randSlice(rng, n3)
		v := randSlice(rng, n3)
		mix := make([]float64, n3)
		for i := range mix {
			mix[i] = a*u[i] + b*v[i]
		}
		du := make([]float64, n3)
		dv := make([]float64, n3)
		dmix := make([]float64, n3)
		Deriv(DirS, Optimized, ref, u, du, 1)
		Deriv(DirS, Optimized, ref, v, dv, 1)
		Deriv(DirS, Optimized, ref, mix, dmix, 1)
		for i := range dmix {
			want := a*du[i] + b*dv[i]
			if math.Abs(dmix[i]-want) > 1e-8*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
