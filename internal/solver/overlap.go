package solver

import (
	"slices"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/sem"
)

// Compute/communication overlap (Config.Overlap): the classic DG/SEM
// latency-hiding optimization the paper's scaling discussion motivates —
// the gs_op exchange cost grows into the dominant term at scale while
// interior elements sit ready to compute. Each rank classifies its
// elements from the face pairing: an element is *boundary* when any of
// its faces is a rank-boundary face, *interior* otherwise. The
// right-hand side then runs boundary face extraction first, posts the
// split-phase exchange (gs.Pending.Begin), computes every interior
// element while the messages are in flight, completes the exchange
// (Finish), and computes the boundary elements — so the modeled step
// time becomes max(interior compute, exchange) + boundary compute instead
// of the serial sum. Every kernel is element-local and the gs
// combine order is preserved exactly, so results are bit-identical with
// overlap on or off.

// rhsEval dispatches one right-hand-side evaluation of the state in, and
// with it the update of Runge-Kutta stage stage (1, 2 or 3) of step size
// dt, to the overlap or blocking pipeline.
func (s *Solver) rhsEval(in *[NumFields][]float64, stage int, dt float64) {
	s.in, s.kern = in, sem.NewElemDeriv(s.Cfg.Variant, s.Ref)
	s.post = postJob{stage: stage, dt: dt}
	if s.Cfg.Overlap {
		s.computeRHSOverlap()
	} else {
		s.computeRHS()
	}
}

// rebuildOverlap (re)derives the interior/boundary element classification
// from the face pairing and recreates the split-phase exchange handles.
// It must run whenever the gs handle is rebuilt — construction, Remap
// (load balancing), and the post-Shrink solver rebuild — so the element
// sets always match the live topology. No-op unless Config.Overlap is
// set.
func (s *Solver) rebuildOverlap() {
	if !s.Cfg.Overlap {
		return
	}
	nel := s.Local.Nel
	bndElem := make([]bool, nel)
	for _, slot := range s.remote {
		bndElem[int(slot)/sem.NFaces] = true
	}
	s.intRuns = s.intRuns[:0]
	s.bndRuns = s.bndRuns[:0]
	for e := 0; e < nel; {
		lo := e
		bnd := bndElem[e]
		for e < nel && bndElem[e] == bnd {
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

// postOrder returns the runs of the post-exchange pass in the order they
// run: with overlap the interior runs, then the boundary runs; otherwise
// every element in one run.
func (s *Solver) postOrder() [][2]int {
	if s.Cfg.Overlap {
		return append(slices.Clip(s.intRuns), s.bndRuns...)
	}
	return [][2]int{{0, s.Local.Nel}}
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
// soon as the boundary traces exist and in flight across the interior
// elements' face pass and whole post-exchange pass (an interior element
// reads no rank-boundary face point, and its update is its own). The
// viscous path bills its boundary volume sweeps between posting the
// state and the flux exchange, where they stood, so no clock moves.
func (s *Solver) computeRHSOverlap() {
	viscous := s.Cfg.Mu > 0
	s.chargeAhead()

	s.charge(s.sched.surface, s.faceRuns(s.bndRuns))
	reg := s.Rec.Region("gs_op", obs.CatGS)
	s.pendU.Begin(s.sumU[:], comm.OpSum)
	if viscous {
		reg.End()
		s.chargeVolume(s.bndRuns)
		reg = s.Rec.Region("gs_op", obs.CatGS)
	}
	s.pendF.Begin(s.sumF[:], comm.OpSum)
	reg.End()

	s.chargeVolume(s.intRuns)
	s.charge(s.sched.surface, s.faceRuns(s.intRuns))
	s.postRuns(s.intRuns)

	reg = s.Rec.Region("gs_op", obs.CatGS)
	s.pendU.Finish()
	s.pendF.Finish()
	reg.End()

	if !viscous {
		s.chargeVolume(s.bndRuns)
	}
	s.postRuns(s.bndRuns)
	s.chargePost()
}
