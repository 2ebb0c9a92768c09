package sem

import "math"

// Gauss-Legendre (interior) quadrature. Nek5000's dealiasing rule
// evaluates the nonlinear terms on a finer mesh of *Gauss* points (no
// endpoints), whose quadrature is exact to degree 2M-1 — higher than the
// Gauss-Lobatto rule of the solution mesh. NewRef1DGauss builds reference
// operators whose fine mesh uses Gauss points, matching the parent code;
// the default NewRef1D keeps Lobatto fine points (a cheaper, self-similar
// choice some mini-app configurations use).

// GaussNodes returns the n Gauss-Legendre nodes on (-1, 1) in ascending
// order: the roots of P_n.
func GaussNodes(n int) []float64 {
	if n < 1 {
		panic("sem: Gauss quadrature needs n >= 1 points")
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		// Standard initial guess, then Newton on P_n.
		xi := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		for iter := 0; iter < 100; iter++ {
			p, dp := legendreBoth(n, xi)
			dx := p / dp
			xi -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		x[n-1-i] = xi
	}
	return x
}

// GaussWeights returns the Gauss-Legendre weights for the nodes x:
// w_i = 2 / ((1 - x_i^2) P'_n(x_i)^2).
func GaussWeights(x []float64) []float64 {
	n := len(x)
	w := make([]float64, n)
	for i, xi := range x {
		_, dp := legendreBoth(n, xi)
		w[i] = 2 / ((1 - xi*xi) * dp * dp)
	}
	return w
}

// NewRef1DGauss builds reference operators for n LGL solution points
// whose dealiasing fine mesh uses ceil(3n/2) Gauss points, Nek5000's
// over-integration rule.
func NewRef1DGauss(n int) *Ref1D {
	x := GLLNodes(n)
	nf := fineOrder(n)
	xf := GaussNodes(nf)
	d := DerivMatrix(x)
	return &Ref1D{
		N: n, X: x, W: GLLWeights(x), D: d, Dt: Transpose(d, n, n),
		NF: nf, XF: xf, JF: InterpMatrix(x, xf), JB: InterpMatrix(xf, x),
	}
}
