// Package sem implements the spectral-element machinery CMT-bone inherits
// from Nek5000: Legendre/Gauss-Lobatto quadrature, the one-dimensional
// derivative operator, small dense matrix-multiply (mxm) kernels in the
// loop-transformation variants the paper studies (Section V), the
// tensor-product gradient (dudr/duds/dudt), and dealiasing interpolation
// between reference meshes.
//
// Elements are cubes of N x N x N Legendre-Gauss-Lobatto (LGL) points;
// within an element, data is stored with the r-index fastest:
// u[i + N*j + N*N*k] for (r,s,t) indices (i,j,k).
package sem

import (
	"fmt"
	"math"
)

// LegendreP evaluates the Legendre polynomial P_n at x using the
// three-term recurrence.
func LegendreP(n int, x float64) float64 {
	p, _ := legendreBoth(n, x)
	return p
}

// LegendrePD evaluates P_n and its derivative P'_n at x.
func LegendrePD(n int, x float64) (p, dp float64) {
	return legendreBoth(n, x)
}

func legendreBoth(n int, x float64) (p, dp float64) {
	if n == 0 {
		return 1, 0
	}
	if n == 1 {
		return x, 1
	}
	pm1, pm2 := x, 1.0 // P_1, P_0
	for k := 2; k <= n; k++ {
		p = ((2*float64(k)-1)*x*pm1 - (float64(k)-1)*pm2) / float64(k)
		pm2, pm1 = pm1, p
	}
	p = pm1
	// (1-x^2) P'_n = n (P_{n-1} - x P_n)
	if x == 1 || x == -1 {
		dp = math.Pow(x, float64(n-1)) * float64(n) * float64(n+1) / 2
	} else {
		dp = float64(n) * (pm2 - x*pm1) / (1 - x*x)
	}
	return p, dp
}

// GLLNodes returns the n Legendre-Gauss-Lobatto nodes on [-1, 1] in
// ascending order: the endpoints plus the roots of P'_{n-1}. It panics for
// n < 2 (an element needs at least its endpoints).
func GLLNodes(n int) []float64 {
	if n < 2 {
		panic(fmt.Sprintf("sem: GLL needs n >= 2 points, got %d", n))
	}
	deg := n - 1 // polynomial order N
	x := make([]float64, n)
	x[0], x[n-1] = -1, 1
	for i := 1; i < n-1; i++ {
		// Chebyshev-Gauss-Lobatto initial guess, then Newton on P'_N.
		xi := -math.Cos(math.Pi * float64(i) / float64(deg))
		for iter := 0; iter < 100; iter++ {
			p, dp := legendreBoth(deg, xi)
			// P''_N from the Legendre ODE: (1-x^2)P'' = 2xP' - N(N+1)P
			ddp := (2*xi*dp - float64(deg)*float64(deg+1)*p) / (1 - xi*xi)
			dx := dp / ddp
			xi -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		x[i] = xi
	}
	return x
}

// GLLWeights returns the LGL quadrature weights for the nodes x:
// w_i = 2 / (N(N+1) P_N(x_i)^2) with N = len(x)-1.
func GLLWeights(x []float64) []float64 {
	n := len(x)
	deg := n - 1
	w := make([]float64, n)
	for i, xi := range x {
		p := LegendreP(deg, xi)
		w[i] = 2 / (float64(deg) * float64(deg+1) * p * p)
	}
	return w
}

// DerivMatrix returns the (n x n) LGL differentiation matrix D in
// row-major order: (Du)_i = sum_j D[i*n+j] u_j differentiates the degree
// N = n-1 interpolant of u at the nodes.
func DerivMatrix(x []float64) []float64 {
	n := len(x)
	deg := n - 1
	d := make([]float64, n*n)
	ln := make([]float64, n)
	for i, xi := range x {
		ln[i] = LegendreP(deg, xi)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j && i == 0:
				d[i*n+j] = -float64(deg) * float64(deg+1) / 4
			case i == j && i == n-1:
				d[i*n+j] = float64(deg) * float64(deg+1) / 4
			case i == j:
				d[i*n+j] = 0
			default:
				d[i*n+j] = ln[i] / (ln[j] * (x[i] - x[j]))
			}
		}
	}
	return d
}

// InterpMatrix returns the (m x n) row-major matrix J interpolating nodal
// values from the n source nodes x to the m target points y:
// (Ju)_k = sum_i J[k*n+i] u_i. It uses barycentric Lagrange interpolation
// for numerical stability — this is Nek5000's igllm, used by the
// dealiasing pass that maps elements to a finer reference mesh.
func InterpMatrix(x, y []float64) []float64 {
	n, m := len(x), len(y)
	// Barycentric weights.
	wb := make([]float64, n)
	for i := range wb {
		w := 1.0
		for j := range x {
			if j != i {
				w *= x[i] - x[j]
			}
		}
		wb[i] = 1 / w
	}
	jmat := make([]float64, m*n)
	for k, yk := range y {
		// Exact node hit: the row is a Kronecker delta.
		hit := -1
		for i, xi := range x {
			if yk == xi {
				hit = i
				break
			}
		}
		if hit >= 0 {
			jmat[k*n+hit] = 1
			continue
		}
		denom := 0.0
		for i := range x {
			denom += wb[i] / (yk - x[i])
		}
		for i := range x {
			jmat[k*n+i] = (wb[i] / (yk - x[i])) / denom
		}
	}
	return jmat
}

// LagrangeWeights evaluates all n Lagrange cardinal functions of the
// nodes x at the point xi (in [-1,1]), using the barycentric form. The
// result w satisfies u(xi) = sum_i w[i] u_i for the degree n-1
// interpolant — the off-grid evaluation Lagrangian particle tracking
// needs.
func LagrangeWeights(x []float64, xi float64) []float64 {
	n := len(x)
	w := make([]float64, n)
	// Exact node hit.
	for i, v := range x {
		if xi == v {
			w[i] = 1
			return w
		}
	}
	denom := 0.0
	for i := range x {
		wb := 1.0
		for j := range x {
			if j != i {
				wb *= x[i] - x[j]
			}
		}
		w[i] = 1 / (wb * (xi - x[i]))
		denom += w[i]
	}
	for i := range w {
		w[i] /= denom
	}
	return w
}

// Transpose returns the row-major transpose of the (m x n) matrix a.
func Transpose(a []float64, m, n int) []float64 {
	t := make([]float64, n*m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t[j*m+i] = a[i*n+j]
		}
	}
	return t
}

// Ref1D bundles the one-dimensional reference-element operators for N
// points: nodes, weights, and the derivative matrix, plus the fine-mesh
// interpolation operators used for dealiasing.
type Ref1D struct {
	N  int       // points per direction
	X  []float64 // LGL nodes
	W  []float64 // LGL weights
	D  []float64 // derivative matrix (N x N, row-major)
	Dt []float64 // transpose of D

	NF int       // fine (dealiased) points per direction, 3N/2 rounded up
	XF []float64 // fine LGL nodes
	JF []float64 // interpolation N -> NF (NF x N)
	JB []float64 // back-interpolation NF -> N (N x NF)
}

// fineOrder is the dealiasing mesh size for n points per direction:
// ceil(3N/2), Nek's rule.
func fineOrder(n int) int { return (3*n + 1) / 2 }

// NewRef1D builds the reference operators for n LGL points per direction.
func NewRef1D(n int) *Ref1D {
	x := GLLNodes(n)
	nf := fineOrder(n)
	xf := GLLNodes(nf)
	d := DerivMatrix(x)
	return &Ref1D{
		N: n, X: x, W: GLLWeights(x), D: d, Dt: Transpose(d, n, n),
		NF: nf, XF: xf, JF: InterpMatrix(x, xf), JB: InterpMatrix(xf, x),
	}
}
