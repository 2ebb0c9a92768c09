package solver

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/obs"
)

// remapTag is the point-to-point tag space of the element-migration
// exchange (distinct from the gs tag and the collective tag space).
const remapTag = 0x6c62 // "lb"

// Remap atomically reassigns element ownership mid-run: every rank packs
// the conserved state (and enabled source fields) of its departing
// elements plus k sidecar floats per element (the load balancer's cost
// EWMA travels here), exchanges them with a single Alltoallv — the same
// generalized all-to-all the particle migration uses — and rebuilds its
// local mesh view, scratch arrays, boundary mask, work weights, and
// gather-scatter topology over the new numbering. The previously
// selected gs method is retained (no re-tune).
//
// Remap is collective: every rank must call it with an identical newOwn
// and the same k. It moves data only — no arithmetic touches field
// values — so the global solution is bit-identical to a run that never
// rebalanced, regardless of when or how often Remap fires.
//
// The returned slice is the sidecar reassembled for the new local
// element set (length newNel*k), and movedElems/movedBytes report this
// rank's outbound migration volume.
func (s *Solver) Remap(newOwn *mesh.Ownership, sidecar []float64, k int) (newSidecar []float64, movedElems int, movedBytes int64) {
	if *newOwn.Box() != *s.Local.Box {
		panic("solver: Remap ownership built over a different box")
	}
	old := s.Local
	if len(sidecar) != old.Nel*k {
		panic(fmt.Sprintf("solver: Remap sidecar has %d floats, want %d*%d", len(sidecar), old.Nel, k))
	}
	reg := s.Rec.Region("rebalance_migrate", obs.CatComm)
	s.Rank.SetSite("loadbal_migrate")

	rank := s.Rank.ID()
	p := s.Rank.Size()
	n3 := s.Cfg.N * s.Cfg.N * s.Cfg.N
	hasSource := s.Source[0] != nil
	nf := NumFields
	if hasSource {
		nf = 2 * NumFields
	}
	stride := 1 + nf*n3 + k // gid + fields (+ sources) + sidecar

	// Partition local elements into keepers and movers (per destination).
	counts := make([]int, p)
	for e := 0; e < old.Nel; e++ {
		if dst := newOwn.Owner(old.GID(e)); dst != rank {
			counts[dst] += stride
			movedElems++
		}
	}
	payload := make([]float64, 0, movedElems*stride)
	for dst := 0; dst < p; dst++ {
		if dst == rank || counts[dst] == 0 {
			continue
		}
		for e := 0; e < old.Nel; e++ {
			gid := old.GID(e)
			if newOwn.Owner(gid) != dst {
				continue
			}
			payload = append(payload, float64(gid))
			for c := 0; c < NumFields; c++ {
				payload = append(payload, s.U[c][e*n3:(e+1)*n3]...)
			}
			if hasSource {
				for c := 0; c < NumFields; c++ {
					payload = append(payload, s.Source[c][e*n3:(e+1)*n3]...)
				}
			}
			payload = append(payload, sidecar[e*k:(e+1)*k]...)
		}
	}
	movedBytes = int64(len(payload)) * 8

	recv, _ := s.Rank.Alltoallv(payload, counts)

	// Reassemble state arrays over the new canonical local ordering.
	newLocal := newOwn.Partition(rank)
	newVol := newLocal.Nel * n3
	var newU, newSrc [NumFields][]float64
	for c := 0; c < NumFields; c++ {
		newU[c] = make([]float64, newVol)
		if hasSource {
			newSrc[c] = make([]float64, newVol)
		}
	}
	newSidecar = make([]float64, newLocal.Nel*k)
	for e := 0; e < old.Nel; e++ { // keepers
		gid := old.GID(e)
		if newOwn.Owner(gid) != rank {
			continue
		}
		ne := newOwn.LocalIndex(gid)
		for c := 0; c < NumFields; c++ {
			copy(newU[c][ne*n3:(ne+1)*n3], s.U[c][e*n3:(e+1)*n3])
			if hasSource {
				copy(newSrc[c][ne*n3:(ne+1)*n3], s.Source[c][e*n3:(e+1)*n3])
			}
		}
		copy(newSidecar[ne*k:(ne+1)*k], sidecar[e*k:(e+1)*k])
	}
	for i := 0; i+stride <= len(recv); i += stride { // arrivals
		gid := int64(recv[i])
		ne := newOwn.LocalIndex(gid)
		off := i + 1
		for c := 0; c < NumFields; c++ {
			copy(newU[c][ne*n3:(ne+1)*n3], recv[off:off+n3])
			off += n3
		}
		if hasSource {
			for c := 0; c < NumFields; c++ {
				copy(newSrc[c][ne*n3:(ne+1)*n3], recv[off:off+n3])
				off += n3
			}
		}
		copy(newSidecar[ne*k:(ne+1)*k], recv[off:off+k])
	}

	// Swap in the new partition and rebuild everything derived from it.
	s.Local = newLocal
	s.ow = newOwn
	s.U = newU
	if hasSource {
		s.Source = newSrc
	}
	s.allocScratch()
	method := s.gsh.Method()
	s.Rank.SetSite("")
	s.setupGS()
	s.gsh.SetMethod(method)
	s.rebuildOverlap()
	reg.End()
	return newSidecar, movedElems, movedBytes
}
