package sem

import (
	"fmt"
	"math"
)

// The derivative kernels. Within an element, u holds N^3 values indexed
// u[i + N*j + N*N*k]; the partial derivatives with respect to the
// reference coordinates (r,s,t) are tensor contractions with the 1D
// derivative matrix D along the i, j, and k index respectively:
//
//	dudr[i,j,k] = sum_l D[i,l] u[l,j,k]
//	duds[i,j,k] = sum_l D[j,l] u[i,l,k]
//	dudt[i,j,k] = sum_l D[k,l] u[i,j,l]
//
// Each is an O(N^4) operation per element — the ax_ kernel that dominates
// CMT-bone's execution profile (Figure 4). The Basic variants are plain
// dot-product loop nests; the Optimized variants carry the loop fusion
// and unrolling CMT-bone inherits from Nek5000 (Section V). As the paper
// observes, the transformations help dudt greatly (contiguous plane
// streaming replaces stride-N^2 dot products), help dudr only slightly
// (its access is already contiguous), and cannot be applied to duds
// (stride-N access pattern forbids fusion), so duds gets unrolling only.
// The production kernels are generated per order from those same loop
// structures (see "One kernel path" below).

// KernelVariant selects the derivative-kernel loop structure.
type KernelVariant int

// Derivative kernel variants.
const (
	// Basic is the untransformed loop nest (paper Figure 6).
	Basic KernelVariant = iota
	// Optimized applies the loop fusion + unroll transformations
	// inherited from Nek5000 (paper Figure 5).
	Optimized
)

// String implements fmt.Stringer.
func (v KernelVariant) String() string {
	switch v {
	case Basic:
		return "basic"
	case Optimized:
		return "optimized"
	}
	return fmt.Sprintf("KernelVariant(%d)", int(v))
}

// Direction names a reference coordinate.
type Direction int

// Reference coordinate directions.
const (
	DirR Direction = iota
	DirS
	DirT
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case DirR:
		return "dudr"
	case DirS:
		return "duds"
	case DirT:
		return "dudt"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// derivOps is the structural cost of one direction's derivative for nel
// elements: N^3 outputs, each a length-N dot product.
func derivOps(n, nel int) OpCount {
	n3 := int64(n) * int64(n) * int64(n)
	per := OpCount{
		Mul:   n3 * int64(n),
		Add:   n3 * int64(n),
		Load:  2 * n3 * int64(n),
		Store: n3,
	}
	return per.Times(int64(nel))
}

// DerivOps is the structural cost of one direction's derivative for nel
// elements of order n — exported so call sites that compute several
// directions in one call (Grad3FusedPool, the element-resident volume
// pipeline) can still charge the hw model per direction, keeping
// modeled time identical to one sweep per direction.
func DerivOps(n, nel int) OpCount {
	return derivOps(n, nel)
}

// One kernel path. Every production "apply an n x n operator along an
// axis" — Deriv, DerivPool, ElemDeriv, ApplyDir, Grad3FusedPool, and
// through them the solver's flux divergence and gradients and Nekbone's
// ax — resolves its kernel here, once per call, and runs it over the
// whole batch of elements:
//
//   - r and s, N in [4, 16]: the AVX2 kernel internal/sem/gen emits
//     (deriv_avx2_amd64.s) where the build has it and the host has AVX2,
//     else the Go kernel it emits from the same dot products
//     (deriv_gen.go). The two are bit-identical on every input;
//   - t at every N: the direction is a plain row-major product
//     du(n x n^2) = D(n x n) u(n x n^2) with ascending-l accumulation, so
//     it runs MxM's kernel (AVX2, generated or fused+unroll);
//   - r and s outside [4, 16]: the hand-written dudrOpt / dudsOpt loops,
//     which are also the reference the bit-identity tests compare the
//     generated kernels against.
//
// r and s keep the 4-lane partial-sum grouping of dudrOpt / dudsOpt
// (lane p sums the terms with l = p mod 4, lanes combine left to right)
// because that is the accumulation order every recorded result — the
// solver's physics, the kernel-path and volume goldens, benchmark/golden
// — was produced with; a strictly ascending dot product (what the mxm kernels
// compute) rounds differently. That is also why the AVX2 kernel puts
// four outputs, not four terms, in a vector: each lane then walks the
// scalar expression tree, multiply and add kept separate. (One corner
// the hand loops do not share with the generated kernels, Go or AVX2:
// their partial sums start from +0 rather than from the lane's first
// product, so an output whose every term is -0 is +0 there and -0 here.)
// The Basic variant stays what the paper's Figure 6 measures: the
// untransformed loop nests below.

// axisFunc applies the n x n row-major operator d along one reference
// axis of nel contiguous N^3 elements. du must not alias u.
type axisFunc func(d []float64, n int, u, du []float64, nel int)

// derivKernel is an AVX2 r or s kernel (derivSIMD).
type derivKernel struct {
	fn axisFunc
	// fnT, where set (r only), is fn taking the operator transposed, for
	// a caller that has the transpose at hand (ElemDeriv: Ref1D.Dt).
	fnT axisFunc
}

// derivResolve maps (direction, variant, order) to the kernel Deriv runs.
func derivResolve(dir Direction, v KernelVariant, n int) axisFunc {
	if dir < DirR || dir > DirT {
		panic(fmt.Sprintf("sem: bad direction %d", int(dir)))
	}
	switch v {
	case Basic:
		return [...]axisFunc{dudrBasic, dudsBasic, dudtBasic}[dir]
	case Optimized:
		switch {
		case dir == DirT:
			return applyTMxM
		case n >= derivGenMinN && n <= derivGenMaxN:
			if k, ok := derivSIMD(dir); ok {
				return k.fn
			}
			if dir == DirR {
				return derivRGen[n]
			}
			return derivSGen[n]
		case dir == DirR:
			return dudrOpt
		}
		return dudsOpt
	}
	panic(fmt.Sprintf("sem: bad kernel variant %d", int(v)))
}

// ElemDeriv is Deriv with validation and kernel resolution done once,
// for callers that differentiate one element at a time while it is
// cache-resident (the solver's volume pipeline) instead of sweeping a
// whole batch per direction.
type ElemDeriv struct {
	n   int
	fn  [3]axisFunc
	op  [3][]float64 // the operator as fn[dir] takes it
	d   []float64    // the operator, row-major (FaceApply)
	dt  []float64    // and transposed
	sum [3]sumOrder  // how fn[dir] sums each output's terms
	// mxmT is set when fn[DirT] is MxM's kernel (Optimized), and simd
	// when fn[DirR] and fn[DirS] are the AVX2 kernels: FaceApply then runs
	// them on the face's points too.
	mxmT, simd bool
}

// sumOrder is how a derivative kernel sums an output's n terms: in four
// lanes (lane p the terms with l = p mod 4 below n - n%4, the lanes
// combined left to right, then the rest) or strictly ascending, every
// partial sum starting from start — +0, or -0 where the kernel starts
// from its first product (-0 + x is x for every x).
type sumOrder struct {
	lanes bool
	start float64
}

// NewElemDeriv resolves the three kernels Deriv(dir, v, ref, ...) runs.
func NewElemDeriv(v KernelVariant, ref *Ref1D) ElemDeriv {
	k := ElemDeriv{n: ref.N, d: ref.D, dt: ref.Dt, mxmT: v == Optimized, simd: v == Optimized && faceSIMD(ref.N)}
	first := math.Copysign(0, -1)
	for dir := DirR; dir <= DirT; dir++ {
		k.fn[dir], k.op[dir] = derivResolve(dir, v, ref.N), ref.D
		switch gen := ref.N >= derivGenMinN && ref.N <= derivGenMaxN; {
		case v == Basic, dir == DirT: // the loop nests (Optimized t: FaceApply runs MxM)
		default: // the generated kernels or the hand loops dudrOpt/dudsOpt
			k.sum[dir].lanes = true
			if gen {
				k.sum[dir].start = first
			}
		}
	}
	if v == Optimized && ref.N >= derivGenMinN && ref.N <= derivGenMaxN {
		// An r kernel that wants the operator transposed gets Ref1D's
		// copy rather than transposing D anew for every element.
		if r, ok := derivSIMD(DirR); ok {
			k.fn[DirR], k.op[DirR] = r.fnT, ref.Dt
		}
	}
	return k
}

// Apply differentiates the single element u (N^3 values) along dir into
// du, bit-identical to Deriv on that element. du must not alias u.
func (k *ElemDeriv) Apply(dir Direction, u, du []float64) {
	n3 := k.n * k.n * k.n
	k.fn[dir](k.op[dir], k.n, u[:n3], du[:n3], 1)
}

// FaceApply sets du (N^2 values, in GatherFace's order) to face f's
// points of Apply(dir, u), bit for bit, without the rest: along the
// face's normal one row of the operator over every line through the
// face, reading the element u (N^3 terms); within the face plane the
// operator over tr, face f's points of u (GatherFace's; N^3 terms). It
// runs the kernel Apply runs where that kernel takes a face's shape —
// MxM along t (mxmT), the AVX2 r/s kernels (simd) — and otherwise sums
// each output in that kernel's order from its start (sum). tmp takes N^2
// values; neither it nor du may alias u or tr.
func (k *ElemDeriv) FaceApply(dir Direction, f int, u, tr, du, tmp []float64) {
	n := k.n
	n2 := n * n
	du, tmp = du[:n2], tmp[:n2]
	normal := dir == Direction(FaceDir(f))
	var t faceTerms
	if normal { // row i0 of D along every line through the face
		i0 := (n - 1) * (f % 2)
		t = faceTerms{n: n, u: u[:n2*n], w: k.d[i0*n:][:n], st: [3]int{1, n, n2}[dir]}
		_, t.sp, t.sq = faceLayout(n, f)
	} else {
		// Within the face: its p points run along the lower of the two
		// other directions, its q points along the higher.
		alongP := dir == DirR || dir == DirS && FaceDir(f) == 0
		t = faceTerms{n: n, u: tr[:n2], w: k.d, sp: 1, sq: n, alongP: alongP, alongQ: !alongP}
		if alongP {
			t.w = k.dt
		}
	}
	switch {
	case k.mxmT && dir == DirT && normal: // the lines run across planes of u
		MxM(t.w, 1, t.u, n, du, n2)
	case k.mxmT && dir == DirT: // along q: D times the face
		MxM(k.d, n, t.u, n, du, n)
	case !k.simd || dir == DirT:
		k.sum[dir].sum(&t, du, tmp)
	case normal && dir == DirR: // each line is a row of u
		rowDotsAVX2(n, t.w, t.u, du)
	case normal: // the lines run down the columns of each plane
		planeRowsAVX2(n, t.w, 0, t.u, n2, du, n, 1)
	case t.alongP: // the face times D^T
		planeRowsAVX2(n, t.u, 0, k.dt, 0, du, 1, n)
	default: // D times the face
		planeRowsAVX2(n, k.d, 0, t.u, 0, du, 1, n)
	}
}

// faceTerms is the l-th term of every point of a face derivative: w[l]
// times the point's line of u (the normal; face point (p, q) of u at
// sp*p + sq*q, its line stepping st), or, on the face's own points u
// (sp = 1, sq = N), D[p][l] (w = D^T) times point (l, q) (alongP) or
// D[q][l] (w = D) times point (p, l) (alongQ).
type faceTerms struct {
	n, sp, sq, st  int
	alongP, alongQ bool
	w, u           []float64
}

// add adds term l of every point onto dst.
func (t *faceTerms) add(dst []float64, l int) {
	n, u, sp, sq := t.n, t.u, t.sp, t.sq
	for q := 0; q < n; q++ {
		row := dst[n*q:][:n]
		switch {
		case t.alongP:
			w, x := t.w[l*n:][:n], u[sp*l+sq*q]
			for p := range row {
				row[p] += w[p] * x
			}
		case t.alongQ:
			w, x := t.w[q*n+l], u[sq*l:]
			for p := range row {
				row[p] += w * x[sp*p]
			}
		default:
			w, x := t.w[l], u[t.st*l+sq*q:]
			for p := range row {
				row[p] += w * x[sp*p]
			}
		}
	}
}

// sum sets dst to the sum of t's n terms at every point, in order o,
// with tmp for the lanes.
func (o sumOrder) sum(t *faceTerms, dst, tmp []float64) {
	n, n4 := t.n, 0
	if o.lanes {
		n4 = n - n%4
	}
	for p := 0; p < min(n4, 4); p++ {
		lane := dst
		if p > 0 {
			lane = tmp
		}
		fill(lane, o.start)
		for l := p; l < n4; l += 4 {
			t.add(lane, l)
		}
		if p > 0 {
			for i, v := range tmp {
				dst[i] += v
			}
		}
	}
	if n4 == 0 {
		fill(dst, o.start)
	}
	for l := n4; l < n; l++ {
		t.add(dst, l)
	}
}

// fill sets every value of x to v.
func fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// checkAxis validates one axis-apply call up front, on the caller's
// goroutine, so misuse panics at the call site rather than inside a
// kernel or a pool helper.
func checkAxis(what string, mat []float64, n int, u, du []float64, nel int) {
	n3 := n * n * n
	if len(mat) < n*n {
		panic(fmt.Sprintf("sem: operator needs %d entries, got %d", n*n, len(mat)))
	}
	if nel < 0 || len(u) < nel*n3 || len(du) < nel*n3 {
		panic(fmt.Sprintf("sem: %s needs %d values, got u=%d du=%d", what, nel*n3, len(u), len(du)))
	}
}

// Deriv computes the derivative of u along dir into du for nel elements
// of N^3 points each, using the selected kernel variant, and returns the
// structural operation count. u and du must hold nel*N^3 values.
// Deriv(dir, Optimized, ...) is the single production entry for the
// operation; see derivResolve for what it runs.
func Deriv(dir Direction, v KernelVariant, ref *Ref1D, u, du []float64, nel int) OpCount {
	return DerivPool(nil, dir, v, ref, u, du, nel)
}

// applyBlocks computes du_b = d * u_b for each of the given number of
// consecutive row-major (n x cols) blocks with MxM's kernel for k = n:
// strictly ascending-l accumulation, bit-identical to mxmBasic.
func applyBlocks(d []float64, n int, u, du []float64, blocks, cols int) {
	fn, _ := mxmKernel(n)
	sz := n * cols
	for b := 0; b < blocks; b++ {
		fn(d, n, u[b*sz:(b+1)*sz], n, du[b*sz:(b+1)*sz], cols)
	}
}

// applySMxM applies d along s: each of an element's n slabs is one
// (n x n) block.
func applySMxM(d []float64, n int, u, du []float64, nel int) {
	applyBlocks(d, n, u, du, nel*n, n)
}

// applyTMxM applies d along t: each element is one (n x n^2) block.
func applyTMxM(d []float64, n int, u, du []float64, nel int) {
	applyBlocks(d, n, u, du, nel, n*n)
}

// The Basic kernels: plain dot-product loop nests.

// dudrBasic: naive dot products; u access is contiguous in l already.
func dudrBasic(d []float64, n int, u, du []float64, nel int) {
	for c := 0; c < nel*n*n; c++ {
		base := n * c
		for i := 0; i < n; i++ {
			s := 0.0
			for l := 0; l < n; l++ {
				s += d[i*n+l] * u[base+l]
			}
			du[base+i] = s
		}
	}
}

// dudsBasic: naive dot products with stride-n access into u.
func dudsBasic(d []float64, n int, u, du []float64, nel int) {
	n2 := n * n
	for k := 0; k < nel*n; k++ {
		slab := n2 * k
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				s := 0.0
				for l := 0; l < n; l++ {
					s += d[j*n+l] * u[slab+i+n*l]
				}
				du[slab+i+n*j] = s
			}
		}
	}
}

// dudtBasic: naive dot products with stride-n^2 access — each inner
// iteration touches a different plane, thrashing the cache.
func dudtBasic(d []float64, n int, u, du []float64, nel int) {
	n2 := n * n
	for e := 0; e < nel; e++ {
		off := e * n * n2
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					s := 0.0
					for l := 0; l < n; l++ {
						s += d[k*n+l] * u[off+i+n*j+n2*l]
					}
					du[off+i+n*j+n2*k] = s
				}
			}
		}
	}
}

// The hand-written Optimized loops for r and s: the fallback for orders
// without a generated kernel and the reference those kernels are tested
// against. (The paper's third transformation — dudt's fused plane
// streaming, its 2.31x — is exactly mxmFusedUnroll's loop, which is what
// applyTMxM runs for N > 16 on a build without AVX2; the hand-written
// form, dudtOpt, is kept in axis_test.go as the reference.)

// dudrOpt: column-sliced with the reduction unrolled by four. The access
// pattern is the same as basic (already unit stride), so the gain is the
// modest unrolling win the paper reports (1.03x).
func dudrOpt(d []float64, n int, u, du []float64, nel int) {
	n4 := n - n%4
	for c := 0; c < nel*n*n; c++ {
		uc := u[c*n : c*n+n]
		dc := du[c*n : c*n+n]
		for i := 0; i < n; i++ {
			di := d[i*n : i*n+n]
			var s0, s1, s2, s3 float64
			for l := 0; l < n4; l += 4 {
				s0 += di[l] * uc[l]
				s1 += di[l+1] * uc[l+1]
				s2 += di[l+2] * uc[l+2]
				s3 += di[l+3] * uc[l+3]
			}
			s := s0 + s1 + s2 + s3
			for l := n4; l < n; l++ {
				s += di[l] * uc[l]
			}
			dc[i] = s
		}
	}
}

// dudsOpt: unrolling only — the stride-n access pattern forbids the
// fusion transformation, which is exactly why the paper sees no
// improvement for duds.
func dudsOpt(d []float64, n int, u, du []float64, nel int) {
	n2 := n * n
	n4 := n - n%4
	for k := 0; k < nel*n; k++ {
		slab := n2 * k
		for j := 0; j < n; j++ {
			dj := d[j*n : j*n+n]
			for i := 0; i < n; i++ {
				col := slab + i
				var s0, s1, s2, s3 float64
				for l := 0; l < n4; l += 4 {
					s0 += dj[l] * u[col+n*l]
					s1 += dj[l+1] * u[col+n*(l+1)]
					s2 += dj[l+2] * u[col+n*(l+2)]
					s3 += dj[l+3] * u[col+n*(l+3)]
				}
				s := s0 + s1 + s2 + s3
				for l := n4; l < n; l++ {
					s += dj[l] * u[col+n*l]
				}
				du[slab+i+n*j] = s
			}
		}
	}
}
