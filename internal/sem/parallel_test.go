package sem

import (
	"math"
	"testing"

	"repro/internal/pool"
)

func fillTest(u []float64) {
	for i := range u {
		u[i] = math.Sin(0.37*float64(i)) + 0.01*float64(i%17)
	}
}

func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: index %d differs: got %v want %v", name, i, got[i], want[i])
		}
	}
}

// Every pool kernel must be bit-identical to its serial counterpart and
// report the identical operation count, at any worker count.
func TestPoolKernelsMatchSerial(t *testing.T) {
	const n, nel = 6, 13 // odd element count so chunks are uneven
	ref := NewRef1D(n)
	n3 := n * n * n
	u := make([]float64, nel*n3)
	fillTest(u)

	for _, nw := range []int{1, 3, 8} {
		p := pool.New(nw)

		for _, dir := range []Direction{DirR, DirS, DirT} {
			for _, v := range []KernelVariant{Basic, Optimized} {
				want := make([]float64, nel*n3)
				got := make([]float64, nel*n3)
				opsS := Deriv(dir, v, ref, u, want, nel)
				opsP := DerivPool(p, dir, v, ref, u, got, nel)
				if opsS != opsP {
					t.Fatalf("DerivPool(%v,%v) ops = %+v, serial %+v", dir, v, opsP, opsS)
				}
				sameBits(t, "DerivPool "+dir.String(), got, want)
			}
		}

		var wantG, gotG [3][]float64
		var opsG OpCount
		for d := range wantG {
			wantG[d] = make([]float64, nel*n3)
			gotG[d] = make([]float64, nel*n3)
			opsG = opsG.Plus(Deriv(Direction(d), Optimized, ref, u, wantG[d], nel))
		}
		if got := Grad3FusedPool(p, ref, u, gotG[0], gotG[1], gotG[2], nel); got != opsG {
			t.Fatalf("Grad3FusedPool ops = %+v, serial %+v", got, opsG)
		}
		for d := range wantG {
			sameBits(t, "Grad3FusedPool "+Direction(d).String(), gotG[d], wantG[d])
		}

		fl := FaceSliceLen(n, nel)
		wantF := make([]float64, fl)
		gotF := make([]float64, fl)
		opsS := Full2Face(n, u, nel, wantF)
		opsP := Full2FacePool(p, n, u, nel, gotF)
		if opsS != opsP {
			t.Fatalf("Full2FacePool ops = %+v, serial %+v", opsP, opsS)
		}
		sameBits(t, "Full2FacePool", gotF, wantF)

		wantU := make([]float64, nel*n3)
		gotU := make([]float64, nel*n3)
		copy(wantU, u)
		copy(gotU, u)
		oS := Face2FullAdd(n, wantF, nel, wantU)
		oP := Face2FullAddPool(p, n, wantF, nel, gotU)
		if oS != oP {
			t.Fatalf("Face2FullAddPool ops = %+v, serial %+v", oP, oS)
		}
		sameBits(t, "Face2FullAddPool", gotU, wantU)

		p.Close()
	}
}

func TestDealiasRoundTripPoolMatchesSerial(t *testing.T) {
	const n, nel = 5, 11
	ref := NewRef1D(n)
	n3 := n * n * n
	base := make([]float64, nel*n3)
	fillTest(base)

	want := append([]float64(nil), base...)
	uf := make([]float64, ref.NF*ref.NF*ref.NF)
	scr := make([]float64, ref.DealiasScratchLen())
	opsS := ref.DealiasRoundTrip(want, nel, uf, scr)

	for _, nw := range []int{1, 2, 4} {
		p := pool.New(nw)
		bufs := ref.NewDealiasBufs(p.Workers())
		got := append([]float64(nil), base...)
		opsP := ref.DealiasRoundTripPool(p, got, nel, bufs)
		if opsS != opsP {
			t.Fatalf("workers=%d: ops = %+v, serial %+v", nw, opsP, opsS)
		}
		sameBits(t, "DealiasRoundTripPool", got, want)
		p.Close()
	}
}

// The analytic tensor-product count used by DealiasRoundTripPool must
// agree with what TensorApply3 actually reports.
func TestTensorApplyOpsAnalytic(t *testing.T) {
	for _, n := range []int{4, 5, 9} {
		ref := NewRef1D(n)
		nf := ref.NF
		u := make([]float64, n*n*n)
		uf := make([]float64, nf*nf*nf)
		scr := make([]float64, ref.DealiasScratchLen())
		fillTest(u)
		up := ref.ToFine(u, uf, scr)
		if want := tensorApplyOps(nf, n, nf, n, nf, n); up != want {
			t.Fatalf("N=%d ToFine ops = %+v, analytic %+v", n, up, want)
		}
		down := ref.FromFine(uf, u, scr)
		if want := tensorApplyOps(n, nf, n, nf, n, nf); down != want {
			t.Fatalf("N=%d FromFine ops = %+v, analytic %+v", n, down, want)
		}
	}
}
