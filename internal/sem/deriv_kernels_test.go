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
		if n < derivGenMinN || n > derivGenMaxN {
			continue
		}
		cands := derivCandidates(dir, n)
		copy(want, run(cands[0].fn, d))
		for _, k := range cands[1:] {
			if i := diffBits(run(k.fn, d), want, false); i >= 0 {
				return fmt.Errorf("n=%d nel=%d %v: %s differs from %s at %d: %x vs %x",
					n, nel, dir, k.name, cands[0].name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			if k.fnT == nil {
				continue
			}
			if i := diffBits(run(k.fnT, Transpose(d, n, n)), want, false); i >= 0 {
				return fmt.Errorf("n=%d nel=%d %v: %s given the transpose differs from %s at %d",
					n, nel, dir, k.name, cands[0].name, i)
			}
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

// TestTuneDeriv tunes two orders of the r/s table and checks that every
// candidate verified exact, the winner is what Deriv then runs, and
// orders without generated kernels are skipped.
func TestTuneDeriv(t *testing.T) {
	defer derivAutoTab.Store(defaultDerivTable())
	results := TuneDeriv([]int{3, 5, 12, 17}, 2, 5)
	if len(results) != 4 {
		t.Fatalf("got %d results, want r and s at n=5 and n=12", len(results))
	}
	for _, res := range results {
		if res.Winner == "" {
			t.Fatalf("n=%d %v: no winner", res.N, res.Dir)
		}
		for _, c := range res.Candidates {
			if !c.Exact {
				t.Fatalf("n=%d %v: candidate %s is not bit-exact", res.N, res.Dir, c.Name)
			}
		}
		if got := derivAutoTab.Load().k[res.Dir][res.N].name; got != res.Winner {
			t.Fatalf("n=%d %v: Deriv runs %q after tuning, winner was %q", res.N, res.Dir, got, res.Winner)
		}
	}
}

// TestMxMTuneShapesMatchCallers pins the tuner's shape list to the code
// that dispatches through the MxMAuto table: with a recording kernel in
// every table slot, Deriv along t, ApplyDir along s and a dealiasing
// round trip at every order must call exactly the shapes mxmTuneShapes
// lists for each k — no more (a shape nobody runs would skew the summed
// time) and no fewer.
func TestMxMTuneShapesMatchCallers(t *testing.T) {
	saved := mxmAutoTab.Load()
	defer mxmAutoTab.Store(saved)
	called := map[int]map[[3]int]bool{}
	rec := &mxmTable{}
	for k := 1; k <= mxmGenMaxK; k++ {
		called[k] = map[[3]int]bool{}
		rec.fn[k], rec.name[k] = func(a []float64, m int, b []float64, k int, c []float64, n int) {
			called[k][[3]int{m, k, n}] = true
			mxmBasic(a, m, b, k, c, n)
		}, "recording"
	}
	mxmAutoTab.Store(rec)

	for n := 2; n <= mxmGenMaxK; n++ {
		for _, ref := range []*Ref1D{NewRef1D(n), NewRef1DGauss(n)} {
			u := make([]float64, n*n*n)
			du := make([]float64, n*n*n)
			Deriv(DirT, Optimized, ref, u, du, 1)
			ApplyDir(DirS, ref.Dt, n, u, du, 1)
			ApplyDir(DirT, ref.Dt, n, u, du, 1)
			uf := make([]float64, ref.NF*ref.NF*ref.NF)
			ref.DealiasRoundTrip(u, 1, uf, make([]float64, ref.DealiasScratchLen()))
		}
	}
	// N=1 is not a valid order, so nothing calls k=1.
	for k := 2; k <= mxmGenMaxK; k++ {
		listed := map[[3]int]bool{}
		for _, s := range mxmTuneShapes(k) {
			if s[1] != k {
				t.Errorf("k=%d: tune shape %v has another reduction size", k, s)
			}
			if listed[s] {
				t.Errorf("k=%d: tune shape %v listed twice", k, s)
			}
			listed[s] = true
			if !called[k][s] {
				t.Errorf("k=%d: tune shape %v is one no caller runs", k, s)
			}
		}
		for s := range called[k] {
			if !listed[s] {
				t.Errorf("k=%d: callers run %v, which the tuner does not measure", k, s)
			}
		}
	}
}
