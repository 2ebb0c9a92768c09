package solver

import (
	"fmt"
	"math"

	"repro/internal/mesh"
	"repro/internal/obs"
)

// Record is an element record, the one unit every move of element state
// uses — Remap's exchange, checkpoint files and in-memory preemption
// images. Encoded (AppendRecord, the only encoder) it is float64s: the
// gid, the NumFields·N³ conserved values, the NumFields·N³ source values
// iff sources are enabled, and the element's cost estimate. Decoded
// (DecodeRecord, the only decoder) its slices are views into the encoded
// record, not copies; Source is nil when the record carries no sources.
type Record struct {
	GID    int64
	U      [NumFields][]float64
	Source [NumFields][]float64
	Cost   float64
}

// RecordLen returns the length of one encoded element record at order n.
func RecordLen(n int, sources bool) int {
	nf := NumFields
	if sources {
		nf *= 2
	}
	return 1 + nf*n*n*n + 1
}

// RecordLen returns the length of this solver's element records.
func (s *Solver) RecordLen() int { return RecordLen(s.Cfg.N, s.Source[0] != nil) }

// AppendRecord appends local element e's record to dst.
func (s *Solver) AppendRecord(dst []float64, e int) []float64 {
	n3 := s.Cfg.N * s.Cfg.N * s.Cfg.N
	dst = append(dst, float64(s.Local.GID(e)))
	for c := 0; c < NumFields; c++ {
		dst = append(dst, s.U[c][e*n3:(e+1)*n3]...)
	}
	if s.Source[0] != nil {
		for c := 0; c < NumFields; c++ {
			dst = append(dst, s.Source[c][e*n3:(e+1)*n3]...)
		}
	}
	return append(dst, s.Cost[e])
}

// DecodeRecord splits an encoded record of order n into its parts. It
// fails when the length is not RecordLen(n, sources) or the gid is not
// a non-negative integer.
func DecodeRecord(rec []float64, n int, sources bool) (Record, error) {
	if want := RecordLen(n, sources); len(rec) != want {
		return Record{}, fmt.Errorf("solver: element record has %d values, want %d", len(rec), want)
	}
	if g := rec[0]; !(g >= 0 && g < 1<<53) || g != math.Trunc(g) {
		return Record{}, fmt.Errorf("solver: element record gid %v is not a non-negative integer", g)
	}
	r := Record{GID: int64(rec[0]), Cost: rec[len(rec)-1]}
	n3 := n * n * n
	off := 1
	for c := 0; c < NumFields; c++ {
		r.U[c] = rec[off : off+n3 : off+n3]
		off += n3
	}
	if sources {
		for c := 0; c < NumFields; c++ {
			r.Source[c] = rec[off : off+n3 : off+n3]
			off += n3
		}
	}
	return r, nil
}

// StoreRecord stores an encoded record into the local element its gid
// names and returns that element's index. It fails when the record does
// not have this solver's layout or this rank does not own the gid.
func (s *Solver) StoreRecord(rec []float64) (int, error) {
	r, err := DecodeRecord(rec, s.Cfg.N, s.Source[0] != nil)
	if err != nil {
		return 0, err
	}
	own := s.Ownership()
	if r.GID >= int64(own.Box().TotalElems()) || own.Owner(r.GID) != s.Rank.ID() {
		return 0, fmt.Errorf("solver: rank %d does not own element %d", s.Rank.ID(), r.GID)
	}
	e := own.LocalIndex(r.GID)
	n3 := s.Cfg.N * s.Cfg.N * s.Cfg.N
	for c := 0; c < NumFields; c++ {
		copy(s.U[c][e*n3:(e+1)*n3], r.U[c])
		if r.Source[c] != nil {
			copy(s.Source[c][e*n3:(e+1)*n3], r.Source[c])
		}
	}
	s.Cost[e] = r.Cost
	return e, nil
}

// Remap atomically reassigns element ownership mid-run: every rank packs
// the records of its departing elements per destination, exchanges them
// with a single Alltoallv — the same generalized all-to-all the particle
// migration uses — stores its keepers and arrivals over the new
// numbering, and rebuilds its local mesh view, scratch arrays, boundary
// mask, work weights, and gather-scatter topology. The previously
// selected gs method is retained (no re-tune).
//
// Remap is collective: every rank must call it with an identical newOwn
// and the same source setting. It moves data only — no arithmetic
// touches field values — so the global solution is bit-identical to a
// run that never rebalanced, regardless of when or how often Remap
// fires. movedElems/movedBytes report this rank's outbound migration
// volume.
func (s *Solver) Remap(newOwn *mesh.Ownership) (movedElems int, movedBytes int64) {
	if *newOwn.Box() != *s.Local.Box {
		panic("solver: Remap ownership built over a different box")
	}
	old := s.Local
	reg := s.Rec.Region("rebalance_migrate", obs.CatComm)
	s.Rank.SetSite("loadbal_migrate")

	rank := s.Rank.ID()
	p := s.Rank.Size()
	stride := s.RecordLen()
	counts := make([]int, p)
	var payload, keep []float64
	for dst := 0; dst < p; dst++ {
		before := len(payload)
		for e := 0; e < old.Nel; e++ {
			if newOwn.Owner(old.GID(e)) != dst {
				continue
			}
			if dst == rank {
				keep = s.AppendRecord(keep, e)
			} else {
				payload = s.AppendRecord(payload, e)
			}
		}
		counts[dst] = len(payload) - before
	}
	movedElems = len(payload) / stride
	movedBytes = int64(len(payload)) * 8

	recv, _ := s.Rank.Alltoallv(payload, counts)

	// Swap in the new partition, rebuild in New's order — the face
	// pairing, the gather-scatter handle, then the arrays — and store
	// every record over it. The records hold the state, so the old
	// arrays go before discovery.
	sources := s.Source[0] != nil
	for c := range s.U {
		s.U[c], s.Source[c], s.u1[c] = nil, nil, nil
		s.sumU[c], s.sumF[c], s.keep[c] = nil, nil, nil
	}
	s.Local = newOwn.Partition(rank)
	s.ow = newOwn
	s.pairFaces()
	method := s.gsh.Method()
	s.Rank.SetSite("")
	s.setupGS()
	s.gsh.SetMethod(method)
	s.allocState(sources)
	for _, recs := range [][]float64{keep, recv} {
		for i := 0; i+stride <= len(recs); i += stride {
			if _, err := s.StoreRecord(recs[i : i+stride]); err != nil {
				panic(fmt.Sprintf("solver: Remap: %v", err))
			}
		}
	}
	s.allocScratch()
	reg.End()
	return movedElems, movedBytes
}
