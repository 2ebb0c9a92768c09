package sem

import "fmt"

// Face extraction — the full2face_cmt kernel. The numerical-flux term of
// the discontinuous Galerkin formulation lives on element surfaces, so
// before each nearest-neighbor exchange the solver gathers the boundary
// planes of every element's volume data into a contiguous face array
// (and scatters flux corrections back afterwards).

// NFaces is the number of faces of a hexahedral element.
const NFaces = 6

// Face indices: Face0 is the r=-1 plane (i == 0), Face1 the r=+1 plane,
// and so on through s and t.
const (
	FaceRMinus = iota
	FaceRPlus
	FaceSMinus
	FaceSPlus
	FaceTMinus
	FaceTPlus
)

// FaceDir returns the direction (0=r, 1=s, 2=t) a face is normal to.
func FaceDir(f int) int { return f / 2 }

// FaceSign returns -1 for minus faces and +1 for plus faces.
func FaceSign(f int) int {
	if f%2 == 0 {
		return -1
	}
	return +1
}

// OppositeFace returns the face on the other side of the element.
func OppositeFace(f int) int { return f ^ 1 }

// faceLayout returns where face f's points sit within an element of N
// points per direction: point (p, q) is at off + sp*p + sq*q. Face points
// are ordered so that two elements sharing a face enumerate the shared
// points identically: (p, q) run over the two non-normal directions in
// (r,s,t) order.
func faceLayout(n, f int) (off, sp, sq int) {
	last := n - 1
	switch f {
	case FaceRMinus:
		return 0, n, n * n // (j,k) = (p,q)
	case FaceRPlus:
		return last, n, n * n
	case FaceSMinus:
		return 0, 1, n * n // (i,k) = (p,q)
	case FaceSPlus:
		return n * last, 1, n * n
	case FaceTMinus:
		return 0, 1, n // (i,j) = (p,q)
	case FaceTPlus:
		return n * n * last, 1, n
	}
	panic(fmt.Sprintf("sem: bad face %d", f))
}

// GatherFace copies face f of the element ue (N^3 values) into dst (N^2
// values). It and AddFace are the only walks over faceLayout's strides:
// the whole-array kernels below and the solver's element-resident surface
// passes are all built on them.
func GatherFace(n, f int, ue, dst []float64) {
	off, sp, sq := faceLayout(n, f)
	for q := 0; q < n; q++ {
		row := dst[n*q : n*q+n]
		at := off + sq*q
		for p := range row {
			row[p] = ue[at]
			at += sp
		}
	}
}

// AddFace adds vals (N^2 values) onto face f of the element ue — the
// inverse walk of GatherFace.
func AddFace(n, f int, vals, ue []float64) {
	off, sp, sq := faceLayout(n, f)
	for q := 0; q < n; q++ {
		at := off + sq*q
		for _, v := range vals[n*q : n*q+n] {
			ue[at] += v
			at += sp
		}
	}
}

// Full2Face gathers the six boundary planes of each of nel elements from
// the volume array u (nel*N^3 values) into faces, laid out as
// faces[e*6*N^2 + f*N^2 + (p + N*q)]. It returns the structural op count
// (pure data movement: one load and one store per face point).
func Full2Face(n int, u []float64, nel int, faces []float64) OpCount {
	n2, n3 := n*n, n*n*n
	if len(u) < nel*n3 || len(faces) < nel*NFaces*n2 {
		panic(fmt.Sprintf("sem: full2face size mismatch (u=%d faces=%d nel=%d n=%d)",
			len(u), len(faces), nel, n))
	}
	for e := 0; e < nel; e++ {
		ue := u[e*n3 : (e+1)*n3]
		fe := faces[e*NFaces*n2 : (e+1)*NFaces*n2]
		for f := 0; f < NFaces; f++ {
			GatherFace(n, f, ue, fe[f*n2:(f+1)*n2])
		}
	}
	moved := int64(nel) * NFaces * int64(n2)
	return OpCount{Load: moved, Store: moved}
}

// Face2FullAdd scatter-adds face values back into the volume array — the
// inverse of Full2Face used to apply surface flux corrections.
func Face2FullAdd(n int, faces []float64, nel int, u []float64) OpCount {
	n2, n3 := n*n, n*n*n
	if len(u) < nel*n3 || len(faces) < nel*NFaces*n2 {
		panic(fmt.Sprintf("sem: face2full size mismatch (u=%d faces=%d nel=%d n=%d)",
			len(u), len(faces), nel, n))
	}
	for e := 0; e < nel; e++ {
		ue := u[e*n3 : (e+1)*n3]
		fe := faces[e*NFaces*n2 : (e+1)*NFaces*n2]
		for f := 0; f < NFaces; f++ {
			AddFace(n, f, fe[f*n2:(f+1)*n2], ue)
		}
	}
	moved := int64(nel) * NFaces * int64(n2)
	return OpCount{Add: moved, Load: 2 * moved, Store: moved}
}

// FacePoints returns N*N, the number of points per face.
func FacePoints(n int) int { return n * n }

// FaceSliceLen returns the face-array length Full2Face needs for nel
// elements.
func FaceSliceLen(n, nel int) int { return nel * NFaces * n * n }
