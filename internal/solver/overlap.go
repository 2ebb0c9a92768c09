package solver

import (
	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/sem"
)

// Compute/communication overlap (Config.Overlap): the classic DG/SEM
// latency-hiding optimization the paper's scaling discussion motivates —
// the gs_op exchange cost grows into the dominant term at scale while
// interior elements sit ready to compute. Each rank classifies its
// elements from the gs topology: an element is *boundary* when any of its
// face points carries a remotely-shared id, *interior* otherwise. The
// right-hand side then runs boundary face extraction first, posts the
// split-phase exchange (gs.Pending.Begin), computes every interior volume
// kernel while the messages are in flight, completes the exchange
// (Finish), and computes the boundary volume kernels — so the modeled
// step time becomes max(interior compute, exchange) + boundary compute
// instead of the serial sum. Every kernel is element-local and the gs
// combine order is preserved exactly, so results are bit-identical with
// overlap on or off.

// rhsEval dispatches one right-hand-side evaluation to the overlap or
// blocking pipeline.
func (s *Solver) rhsEval(in *[NumFields][]float64) {
	if s.Cfg.Overlap {
		s.computeRHSOverlap(in)
	} else {
		s.computeRHS(in)
	}
}

// rebuildOverlap (re)derives the interior/boundary element classification
// from the current gs topology and recreates the split-phase exchange
// handles. It must run whenever the gs handle is rebuilt — construction,
// Remap (load balancing), and the post-Shrink solver rebuild — so the
// element sets always match the live topology. No-op unless
// Config.Overlap is set.
func (s *Solver) rebuildOverlap() {
	if !s.Cfg.Overlap {
		return
	}
	nel := s.Local.Nel
	fpe := sem.NFaces * s.Cfg.N * s.Cfg.N
	shared := s.gsh.RemoteShared()
	s.bndElem = make([]bool, nel)
	for e := 0; e < nel; e++ {
		base := e * fpe
		for i := 0; i < fpe; i++ {
			if shared[base+i] {
				s.bndElem[e] = true
				break
			}
		}
	}
	s.intRuns = s.intRuns[:0]
	s.bndRuns = s.bndRuns[:0]
	for e := 0; e < nel; {
		lo := e
		bnd := s.bndElem[e]
		for e < nel && s.bndElem[e] == bnd {
			e++
		}
		if bnd {
			s.bndRuns = append(s.bndRuns, [2]int{lo, e})
		} else {
			s.intRuns = append(s.intRuns, [2]int{lo, e})
		}
	}
	// Fresh Pendings per gs handle: both are created in the same order on
	// every rank, so their deterministic tags agree globally.
	s.pendU = s.gsh.NewPending()
	s.pendF = s.gsh.NewPending()
}

// InteriorElems returns how many local elements have no remotely-shared
// face point (only meaningful with Config.Overlap).
func (s *Solver) InteriorElems() int {
	n := 0
	for _, run := range s.intRuns {
		n += run[1] - run[0]
	}
	return n
}

// computeRHSOverlap is computeRHS with the interior/boundary split: the
// same helpers over reordered element runs, with the exchange posted as
// soon as the boundary traces exist. The inviscid path overlaps both
// exchanges with the whole interior phase; the viscous path must run the
// boundary volume kernels before the flux exchange can start (they
// extract the viscous flux traces), so its flux exchange overlaps the
// interior phase only.
func (s *Solver) computeRHSOverlap(in *[NumFields][]float64) {
	viscous := s.Cfg.Mu > 0

	s.rhsPrimitive(in)
	if viscous {
		s.computeGradients(in)
	}

	if !viscous {
		// Boundary faces first, then both exchanges in flight across the
		// entire interior phase.
		s.chargeSurfaceFlux(s.faceRuns(in, s.bndRuns, true))
		reg := s.Rec.Region("gs_op", obs.CatGS)
		s.pendU.Begin(s.exU[:], s.faceU[:], comm.OpSum)
		s.pendF.Begin(s.exF[:], s.faceF[:], comm.OpSum)
		reg.End()

		s.volumeRuns(in, s.intRuns, false)
		s.chargeSurfaceFlux(s.faceRuns(in, s.intRuns, true))

		reg = s.Rec.Region("gs_op", obs.CatGS)
		s.pendU.Finish()
		s.pendF.Finish()
		reg.End()

		s.volumeRuns(in, s.bndRuns, false)
	} else {
		// The state exchange starts as soon as the boundary traces are
		// extracted; the flux exchange needs the boundary volume pass
		// (which extracts the viscous flux traces) before it can start.
		s.faceRuns(in, s.bndRuns, false)
		reg := s.Rec.Region("gs_op", obs.CatGS)
		s.pendU.Begin(s.exU[:], s.faceU[:], comm.OpSum)
		reg.End()

		s.volumeRuns(in, s.bndRuns, true)
		reg = s.Rec.Region("gs_op", obs.CatGS)
		s.pendF.Begin(s.exF[:], s.faceF[:], comm.OpSum)
		reg.End()

		s.volumeRuns(in, s.intRuns, true)
		s.faceRuns(in, s.intRuns, false)

		reg = s.Rec.Region("gs_op", obs.CatGS)
		s.pendU.Finish()
		s.pendF.Finish()
		reg.End()
	}

	s.rhsTail()
}
