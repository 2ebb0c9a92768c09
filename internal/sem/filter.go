package sem

// Spectral filtering — the mini-app proxy for the shock-capturing
// machinery on CMT-nek's roadmap (paper Section VII: "shock capturing
// ... will be added"). Nek-family codes stabilize marginally resolved
// fields by transforming each element to the modal Legendre basis,
// attenuating the highest modes, and transforming back; the kernel is
// one more small-matrix tensor apply, structurally identical to the
// derivative kernel.

// VandermondeLegendre returns the (n x n) row-major Vandermonde matrix
// V[i,k] = P_k(x_i): columns are Legendre modes evaluated at the nodes.
func VandermondeLegendre(x []float64) []float64 {
	n := len(x)
	v := make([]float64, n*n)
	for i, xi := range x {
		for k := 0; k < n; k++ {
			v[i*n+k] = LegendreP(k, xi)
		}
	}
	return v
}

// InvVandermonde returns the inverse of the Legendre Vandermonde matrix
// for the nodes x: the nodal-to-modal transform used by spectra and
// filters.
func InvVandermonde(x []float64) []float64 {
	return invert(VandermondeLegendre(x), len(x))
}

// invert returns the inverse of the (n x n) row-major matrix a by
// Gauss-Jordan elimination with partial pivoting. Panics if singular.
func invert(a []float64, n int) []float64 {
	m := make([]float64, n*2*n)
	for i := 0; i < n; i++ {
		copy(m[i*2*n:], a[i*n:(i+1)*n])
		m[i*2*n+n+i] = 1
	}
	for col := 0; col < n; col++ {
		piv := col
		for row := col + 1; row < n; row++ {
			if abs(m[row*2*n+col]) > abs(m[piv*2*n+col]) {
				piv = row
			}
		}
		if m[piv*2*n+col] == 0 {
			panic("sem: singular matrix in filter construction")
		}
		if piv != col {
			for j := 0; j < 2*n; j++ {
				m[col*2*n+j], m[piv*2*n+j] = m[piv*2*n+j], m[col*2*n+j]
			}
		}
		d := m[col*2*n+col]
		for j := 0; j < 2*n; j++ {
			m[col*2*n+j] /= d
		}
		for row := 0; row < n; row++ {
			if row == col {
				continue
			}
			f := m[row*2*n+col]
			if f == 0 {
				continue
			}
			for j := 0; j < 2*n; j++ {
				m[row*2*n+j] -= f * m[col*2*n+j]
			}
		}
	}
	inv := make([]float64, n*n)
	for i := 0; i < n; i++ {
		copy(inv[i*n:], m[i*2*n+n:i*2*n+2*n])
	}
	return inv
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// FilterMatrix builds the 1D modal filter operator F = V diag(sigma) V^-1
// for the nodes x: modes below cutoff pass unchanged; mode k >= cutoff is
// scaled by 1 - strength*((k-cutoff+1)/(N-cutoff))^2, Nek5000's quadratic
// transfer function (its hpf/filter routine). strength in [0,1];
// cutoff counts preserved modes.
func FilterMatrix(x []float64, cutoff int, strength float64) []float64 {
	n := len(x)
	if cutoff < 1 {
		cutoff = 1
	}
	if cutoff > n {
		cutoff = n
	}
	v := VandermondeLegendre(x)
	vinv := invert(v, n)
	// F = V * diag(sigma) * Vinv; fold sigma into V's columns first.
	vs := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			sigma := 1.0
			if k >= cutoff {
				t := float64(k-cutoff+1) / float64(n-cutoff)
				sigma = 1 - strength*t*t
			}
			vs[i*n+k] = v[i*n+k] * sigma
		}
	}
	f := make([]float64, n*n)
	mxmBasic(vs, n, vinv, n, f, n)
	return f
}

// FilterElements applies the tensor-product filter (F (x) F (x) F) to
// each element of u in place, blended with weight alpha:
// u <- (1-alpha) u + alpha F u. scratch must hold 2*N^3 values plus the
// TensorApply3 scratch (use FilterScratchLen).
func FilterElements(f []float64, n int, u []float64, nel int, alpha float64, scratch []float64) OpCount {
	n3 := n * n * n
	need := FilterScratchLen(n)
	if len(scratch) < need {
		panic("sem: filter scratch too small")
	}
	work := scratch[:n3]
	ts := scratch[n3:]
	var ops OpCount
	for e := 0; e < nel; e++ {
		ue := u[e*n3 : (e+1)*n3]
		ops = ops.Plus(TensorApply3(f, n, n, f, n, n, f, n, n, ue, work, ts))
		for i := range ue {
			ue[i] = (1-alpha)*ue[i] + alpha*work[i]
		}
	}
	ops = ops.Plus(OpCount{Mul: 2 * int64(nel) * int64(n3), Add: int64(nel) * int64(n3),
		Load: 2 * int64(nel) * int64(n3), Store: int64(nel) * int64(n3)})
	return ops
}

// FilterOps is the structural count of FilterElements over nel elements
// of n^3 points, computed without running it.
func FilterOps(n, nel int) OpCount {
	pts := int64(nel) * int64(n*n*n)
	return tensorApplyOps(n, n, n, n, n, n).Times(int64(nel)).Plus(OpCount{Mul: 2 * pts, Add: pts, Load: 2 * pts, Store: pts})
}

// FilterScratchLen returns the scratch length FilterElements requires.
func FilterScratchLen(n int) int {
	return n*n*n + TensorScratchLen(n, n, n, n, n, n)
}
