package sem

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/pool"
)

// The hand-written reference loops the one kernel path is held to,
// bit for bit: dudrOpt and dudsOpt (grad.go, also the production
// fallback outside the generated range) and the two below, which state
// the ascending-l accumulation order independently of the mxm kernels
// production resolves to.

// dudtOpt is the paper's Figure 5 t-direction loop: fused plane
// streaming — output plane k accumulates scaled input planes in ascending
// l, all accesses unit stride, the plane sweep unrolled by four. This is
// the transformation that buys the paper's 2.31x.
func dudtOpt(d []float64, n int, u, du []float64, nel int) {
	n2 := n * n
	m4 := n2 - n2%4
	for p := 0; p < nel*n; p++ {
		e, k := p/n, p%n
		dst := du[p*n2 : (p+1)*n2]
		for i := range dst {
			dst[i] = 0
		}
		dk := d[k*n : k*n+n]
		for l := 0; l < n; l++ {
			dkl := dk[l]
			src := u[(e*n+l)*n2 : (e*n+l+1)*n2]
			for i := 0; i < m4; i += 4 {
				dst[i] += dkl * src[i]
				dst[i+1] += dkl * src[i+1]
				dst[i+2] += dkl * src[i+2]
				dst[i+3] += dkl * src[i+3]
			}
			for i := m4; i < n2; i++ {
				dst[i] += dkl * src[i]
			}
		}
	}
}

// refApplyS is the fused (j-l-i streaming) s-direction apply: dst rows
// accumulate scaled source rows in ascending l.
func refApplyS(d []float64, n int, u, du []float64, nel int) {
	n2 := n * n
	for k := 0; k < nel*n; k++ {
		slab := n2 * k
		for j := 0; j < n; j++ {
			dst := du[slab+n*j : slab+n*j+n]
			for i := range dst {
				dst[i] = 0
			}
			for l := 0; l < n; l++ {
				djl := d[j*n+l]
				for i, v := range u[slab+n*l : slab+n*l+n] {
					dst[i] += djl * v
				}
			}
		}
	}
}

// TestAxisKernelsBitIdentical is the one bit-identity table of the
// derivative path: at every order from below the generated range to
// above it, in every direction, for one and several elements and at
// pool widths 1..3, every entry point equals the hand-written reference
// loops by Float64bits and reports the structural count.
func TestAxisKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	derivRef := [3]axisFunc{DirR: dudrOpt, DirS: dudsOpt, DirT: dudtOpt}
	applyRef := [3]axisFunc{DirR: dudrOpt, DirS: refApplyS, DirT: dudtOpt}
	dirs := []Direction{DirR, DirS, DirT}
	for n := 2; n <= 20; n++ {
		ref := NewRef1D(n)
		n3 := n * n * n
		for _, nel := range []int{1, 3} {
			u := randSlice(rng, nel*n3)
			var want [3][]float64
			for _, dir := range dirs {
				want[dir] = make([]float64, nel*n3)
				derivRef[dir](ref.D, n, u, want[dir], nel)
			}
			wantOps := derivOps(n, nel)
			got := make([]float64, nel*n3)
			check := func(name string, dir Direction, ops OpCount, want []float64) {
				t.Helper()
				if ops != wantOps {
					t.Fatalf("n=%d nel=%d %s %v: ops %+v, want %+v", n, nel, name, dir, ops, wantOps)
				}
				sameBits(t, fmt.Sprintf("n=%d nel=%d %s %v", n, nel, name, dir), got, want)
			}

			for _, dir := range dirs {
				check("Deriv", dir, Deriv(dir, Optimized, ref, u, got, nel), want[dir])
				for name, mat := range map[string][]float64{"D": ref.D, "Dt": ref.Dt} {
					w := make([]float64, nel*n3)
					applyRef[dir](mat, n, u, w, nel)
					check("ApplyDir("+name+")", dir, ApplyDir(dir, mat, n, u, got, nel), w)
				}
			}
			for _, width := range []int{1, 2, 3} {
				p := pool.New(width)
				for _, dir := range dirs {
					check(fmt.Sprintf("DerivPool/%d", width), dir,
						DerivPool(p, dir, Optimized, ref, u, got, nel), want[dir])
				}
				fr := make([]float64, nel*n3)
				fs := make([]float64, nel*n3)
				ft := make([]float64, nel*n3)
				if ops := Grad3FusedPool(p, ref, u, fr, fs, ft, nel); ops != wantOps.Times(3) {
					t.Fatalf("n=%d nel=%d Grad3FusedPool/%d: ops %+v", n, nel, width, ops)
				}
				for dir, f := range [][]float64{fr, fs, ft} {
					sameBits(t, fmt.Sprintf("n=%d nel=%d Grad3FusedPool/%d %v", n, nel, width, Direction(dir)),
						f, want[dir])
				}
				p.Close()
			}
		}
	}
}

// TestDerivResolve pins what the single entry runs: along r and s at
// every N in [4, 16] the AVX2 kernel when the host has one (and the
// build is not a -race one) — not the generated scalar kernel — and the
// generated kernel otherwise, never the hand-written fallback; the mxm table along t; the fallback
// only outside that range; and the untransformed loops for Basic.
func TestDerivResolve(t *testing.T) {
	ptr := func(f axisFunc) uintptr { return reflect.ValueOf(f).Pointer() }
	for n := 1; n <= 24; n++ {
		want := [3]axisFunc{DirR: dudrOpt, DirS: dudsOpt, DirT: applyTMxM}
		if n >= derivGenMinN && n <= derivGenMaxN {
			want[DirR], want[DirS] = derivRGen[n], derivSGen[n]
			if want[DirR] == nil || ptr(want[DirR]) == ptr(dudrOpt) ||
				want[DirS] == nil || ptr(want[DirS]) == ptr(dudsOpt) {
				t.Fatalf("n=%d: no generated kernel in the table", n)
			}
			for _, dir := range []Direction{DirR, DirS} {
				simd, ok := derivSIMD(dir)
				if ok != (HasSIMD() && !raceEnabled) {
					t.Fatalf("derivSIMD(%v) = %v with HasSIMD() = %v, race detector %v", dir, ok, HasSIMD(), raceEnabled)
				}
				if ok {
					if ptr(simd.fn) == ptr(want[dir]) {
						t.Fatalf("n=%d %v: the AVX2 kernel is the generated scalar one", n, dir)
					}
					want[dir] = simd.fn
				}
			}
		}
		basic := [3]axisFunc{DirR: dudrBasic, DirS: dudsBasic, DirT: dudtBasic}
		for _, dir := range []Direction{DirR, DirS, DirT} {
			if ptr(derivResolve(dir, Optimized, n)) != ptr(want[dir]) {
				t.Errorf("n=%d %v: Optimized resolved to the wrong kernel", n, dir)
			}
			if ptr(derivResolve(dir, Basic, n)) != ptr(basic[dir]) {
				t.Errorf("n=%d %v: Basic resolved to the wrong kernel", n, dir)
			}
		}
	}
}

// TestFig5KernelOptimizationShape gates the Figures 5-6 claims on the
// paper's two loop structures — dud?Basic (Figure 6) against the
// hand-written fusion + unroll-by-four loops (Figure 5) — at the paper's
// N=5: large dudt gain, no duds gain. (The generated kernels
// Deriv(Optimized) runs at this order also unroll the reduction
// completely, which the paper did not study and which does help duds.)
func TestFig5KernelOptimizationShape(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-ratio assertions are meaningless under the race detector")
	}
	const n, nel, steps, reps = 5, 1024, 20, 3
	ref := NewRef1D(n)
	u := make([]float64, nel*n*n*n)
	for i := range u {
		u[i] = float64(i%17) * 0.1
	}
	du := make([]float64, len(u))
	timeIt := func(fn axisFunc) float64 {
		// Warm up, then time; the fastest repetition is the one other
		// test binaries sharing the host disturbed least.
		fn(ref.D, n, u, du, nel)
		best := math.Inf(1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			for s := 0; s < steps; s++ {
				fn(ref.D, n, u, du, nel)
			}
			best = math.Min(best, time.Since(start).Seconds())
		}
		return best
	}
	dudtGain := timeIt(dudtBasic) / timeIt(dudtOpt)
	dudsGain := timeIt(dudsBasic) / timeIt(dudsOpt)
	if dudtGain < 1.5 {
		t.Errorf("dudt optimization gain = %.2fx, want the paper's large gain (~2.3x)", dudtGain)
	}
	if dudsGain > 1.6 {
		t.Errorf("duds optimization gain = %.2fx, but fusion is impossible for duds (paper: ~1.0x)", dudsGain)
	}
	if dudtGain < dudsGain {
		t.Errorf("dudt gain (%.2fx) must exceed duds gain (%.2fx)", dudtGain, dudsGain)
	}
}
