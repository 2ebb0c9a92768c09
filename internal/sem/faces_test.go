package sem

import (
	"math"
	"math/rand"
	"testing"
)

func TestFaceHelpers(t *testing.T) {
	if FaceDir(FaceRMinus) != 0 || FaceDir(FaceSPlus) != 1 || FaceDir(FaceTPlus) != 2 {
		t.Fatal("FaceDir wrong")
	}
	if FaceSign(FaceRMinus) != -1 || FaceSign(FaceRPlus) != 1 {
		t.Fatal("FaceSign wrong")
	}
	for f := 0; f < NFaces; f++ {
		if OppositeFace(OppositeFace(f)) != f {
			t.Fatal("OppositeFace not an involution")
		}
		if FaceDir(OppositeFace(f)) != FaceDir(f) {
			t.Fatal("opposite face changed direction")
		}
		if FaceSign(OppositeFace(f)) != -FaceSign(f) {
			t.Fatal("opposite face kept sign")
		}
	}
}

func TestFull2FaceExtractsBoundaryPlanes(t *testing.T) {
	n := 4
	ref := NewRef1D(n)
	// Encode coordinates into the field so faces are recognizable.
	u := fillField(ref, 1, func(x, y, z float64) float64 { return 100*x + 10*y + z })
	faces := make([]float64, FaceSliceLen(n, 1))
	Full2Face(n, u, 1, faces)
	n2 := n * n
	// Face r=-1 holds x = -1: value -100 + 10*y + z with (p,q) = (j,k).
	for q := 0; q < n; q++ {
		for p := 0; p < n; p++ {
			want := -100 + 10*ref.X[p] + ref.X[q]
			got := faces[FaceRMinus*n2+p+n*q]
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("face r- point (%d,%d) = %v, want %v", p, q, got, want)
			}
		}
	}
	// Face t=+1 holds z = +1: value 100x + 10y + 1 with (p,q) = (i,j).
	for q := 0; q < n; q++ {
		for p := 0; p < n; p++ {
			want := 100*ref.X[p] + 10*ref.X[q] + 1
			got := faces[FaceTPlus*n2+p+n*q]
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("face t+ point (%d,%d) = %v, want %v", p, q, got, want)
			}
		}
	}
}

func TestFace2FullAddInvertsGather(t *testing.T) {
	n := 5
	nel := 3
	rng := rand.New(rand.NewSource(6))
	u := randSlice(rng, nel*n*n*n)
	faces := make([]float64, FaceSliceLen(n, nel))
	Full2Face(n, u, nel, faces)
	// Scatter into a zero volume: every face point must land back at its
	// source index with the gathered value (interior stays zero).
	back := make([]float64, nel*n*n*n)
	Face2FullAdd(n, faces, nel, back)
	n3 := n * n * n
	for e := 0; e < nel; e++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					idx := e*n3 + i + n*j + n*n*k
					// Count how many faces contain this point.
					mult := 0
					for _, c := range []int{i, j, k} {
						if c == 0 || c == n-1 {
							mult++
						}
					}
					want := float64(mult) * u[idx]
					if math.Abs(back[idx]-want) > 1e-12*(1+math.Abs(want)) {
						t.Fatalf("e=%d (%d,%d,%d): scatter = %v, want %v (mult %d)",
							e, i, j, k, back[idx], want, mult)
					}
				}
			}
		}
	}
}

func TestSharedFaceOrderingConsistent(t *testing.T) {
	// Two elements adjacent along any direction must enumerate their
	// shared face points in the same (p,q) order. Simulate: element A's
	// plus face and element B's minus face sample the same physical
	// plane of a global linear function; extraction must give identical
	// arrays.
	n := 4
	ref := NewRef1D(n)
	for dim := 0; dim < 3; dim++ {
		// Element A occupies [-1,1]^3; element B is shifted +2 along dim,
		// so A's plus plane == B's minus plane physically.
		coord := func(i, j, k int, e int) (x, y, z float64) {
			x, y, z = ref.X[i], ref.X[j], ref.X[k]
			if e == 1 {
				switch dim {
				case 0:
					x += 2
				case 1:
					y += 2
				case 2:
					z += 2
				}
			}
			return
		}
		field := func(x, y, z float64) float64 { return 3*x + 5*y + 7*z }
		u := make([]float64, 2*n*n*n)
		for e := 0; e < 2; e++ {
			for k := 0; k < n; k++ {
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						x, y, z := coord(i, j, k, e)
						u[e*n*n*n+i+n*j+n*n*k] = field(x, y, z)
					}
				}
			}
		}
		faces := make([]float64, FaceSliceLen(n, 2))
		Full2Face(n, u, 2, faces)
		n2 := n * n
		plus := 2*dim + 1 // A's plus face
		minus := 2 * dim  // B's minus face
		for idx := 0; idx < n2; idx++ {
			a := faces[0*NFaces*n2+plus*n2+idx]
			b := faces[1*NFaces*n2+minus*n2+idx]
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("dim %d: shared face mismatch at %d: %v vs %v", dim, idx, a, b)
			}
		}
	}
}

func TestFull2FacePanicsOnShortFaces(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short face slice must panic")
		}
	}()
	Full2Face(4, make([]float64, 64), 1, make([]float64, 5))
}
