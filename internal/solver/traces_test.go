package solver

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/sem"
)

// TestFaceTraceStore replays the post-exchange pass's order over the
// chunks the worker pool actually cuts each run into, and holds the trace
// plan to it. A lift that reads its partner's trace from the state reads
// it before the partner's update and never concurrently with it; a lift
// whose partner lifted first finds its correction left in keep by that
// lift; a pair split between concurrent chunks has both traces stored by
// the face pass. With one worker and no overlap exactly one face of each
// pair of two elements is kept, the later one's. A viscous lift reads
// its partner's flux trace from keep, where the face pass formed it from
// the partner's state: every such trace, and every rank-boundary flux
// trace in sumF, must be the volume pass's flux at those points, bit for
// bit. Two ranks of 4 × 4 × 4 elements have interior elements, so the
// overlap rows run an interior and a boundary pass. Each row also steps
// under its plan, which is what the race detector watches in CI.
func TestFaceTraceStore(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		for _, overlap := range []bool{false, true} {
			for _, viscous := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d/overlap=%v/viscous=%v", workers, overlap, viscous)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig(2, 3, 4)
					cfg.Workers, cfg.Overlap = workers, overlap
					if viscous {
						cfg.Mu = 0.01
					}
					_, err := comm.RunSimple(2, func(r *comm.Rank) error {
						s, err := New(r, cfg)
						if err != nil {
							return err
						}
						defer s.Close()
						if overlap && s.InteriorElems() == 0 {
							return fmt.Errorf("rank %d has no interior element", r.ID())
						}
						s.SetInitial(GaussianPulse(2, 2, 2, 0.1, 0.5))
						s.Run(2)
						if err := checkTracePlan(s, workers == 1 && !overlap); err != nil || !viscous {
							return err
						}
						return checkFluxTraces(s)
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// liftPlace is where an element lifts in the post-exchange pass: its
// run, the pool chunk that runs it and its place in that chunk.
type liftPlace struct{ run, chunk, at int }

// before reports whether a's lift and update both end before b's lift
// starts: an earlier run, or earlier in the same chunk.
func (a liftPlace) before(b liftPlace) bool {
	return a.run < b.run || a.run == b.run && a.chunk == b.chunk && a.at < b.at
}

func checkTracePlan(s *Solver, serial bool) error {
	where := make([]liftPlace, s.Nel())
	for r, run := range s.postOrder() {
		// The chunks are the pool's own: each element records the one
		// that ran it.
		s.pool.ForSlots(run[1]-run[0], func(slot, lo, hi int) {
			for i := lo; i < hi; i++ {
				where[run[0]+i] = liftPlace{r, lo, i}
			}
		})
	}
	trace := func(k int32) bool { return k >= 0 && int(k) < s.keepPass }
	kept := 0
	for a, l := range s.link {
		k := s.keepAt[a]
		if l < 0 {
			if k >= 0 {
				return fmt.Errorf("face slot %d is not paired on the rank but keeps a face", a)
			}
			continue
		}
		if k >= 0 {
			kept++
		}
		// The lift of element e handles face a, whose partner is face l of
		// element p.
		e, p := a/sem.NFaces, int(l)/sem.NFaces
		reader, owner := where[e], where[p]
		ko := s.keepAt[l]
		switch {
		case int(k) >= s.keepPass:
			if !owner.before(reader) || ko >= 0 {
				return fmt.Errorf("element %d lifts at %+v and reads face %d's correction, left by element %d's lift at %+v (which keeps %d)",
					e, reader, a, p, owner, ko)
			}
		case trace(k) != trace(ko):
			return fmt.Errorf("faces %d and %d: the face pass keeps one trace of the pair (%d, %d)", a, l, k, ko)
		case !trace(ko) && p != e && !reader.before(owner):
			return fmt.Errorf("element %d lifts at %+v and reads face %d of element %d from the state, updated at %+v",
				e, reader, l, p, owner)
		case p != e && ko < 0:
			return fmt.Errorf("element %d lifts face %d and reads face %d's flux trace, which the face pass does not keep", e, a, l)
		}
		if serial && p != e && (k >= 0) == (ko >= 0) {
			return fmt.Errorf("one worker, no overlap: faces %d and %d keep %d and %d, want exactly one", a, l, k, ko)
		}
	}
	want := kept // a viscous solver keeps the flux trace of a pair split between chunks too
	if s.Cfg.Mu > 0 {
		want += s.keepPass
	}
	if n2 := s.Cfg.N * s.Cfg.N; s.keepF != kept || len(s.keep[0]) != want*n2 {
		return fmt.Errorf("keep holds %d points with flux traces from face %d, %d kept faces", len(s.keep[0]), s.keepF, kept)
	}
	return nil
}

// checkFluxTraces runs the face pass over the current state and holds
// every viscous flux trace it stores — a rank-boundary face's in sumF, a
// kept face's in keep — to the volume pass's flux at those points, bit
// for bit.
func checkFluxTraces(s *Solver) error {
	n := s.Cfg.N
	n2 := n * n
	s.in, s.kern = &s.U, sem.NewElemDeriv(s.Cfg.Variant, s.Ref)
	s.faceElo = 0
	s.faceElems(0, 0, s.Nel())
	r, own, scr := viscousSlot(make([]float64, len(s.volSlots[0].buf)), n)
	var sl volSlot
	for e := 0; e < s.Nel(); e++ {
		s.volumeElem(e, &sl, scr, &r, &own)
		for f := range own {
			a := e*sem.NFaces + f
			var got faceSlabs
			switch l, k := s.link[a], int(s.keepAt[a]); {
			case l < 0 && l != domainBoundary:
				got.at(&s.sumF, int(^l)*n2, n2)
			case k >= 0:
				got.at(&s.keep, s.keptFlux(k)*n2, n2)
			default:
				continue
			}
			for c := range got {
				for q, v := range got[c] {
					if math.Float64bits(v) != math.Float64bits(own[f][c][q]) {
						return fmt.Errorf("element %d face %d field %d point %d: the face pass formed %v, the volume pass %v",
							e, f, c, q, v, own[f][c][q])
					}
				}
			}
		}
	}
	return nil
}

// TestLiftScratchFits: behind the residual (and, viscous, the
// element's own flux traces), a pool slot's scratch holds the volume
// pass's scratch (with the gradients' when viscous), the lift's
// corrections and both sides' traces and fluxes, and the viscous face
// pass's element primitives and face scratch, at every order from 2 up,
// and a step runs there.
func TestLiftScratchFits(t *testing.T) {
	for n := 2; n <= 5; n++ {
		for _, viscous := range []bool{false, true} {
			cfg := DefaultConfig(1, n, 2)
			if viscous {
				cfg.Mu = 0.01
			}
			_, err := comm.RunSimple(1, func(r *comm.Rank) error {
				s, err := New(r, cfg)
				if err != nil {
					return err
				}
				defer s.Close()
				n2, n3 := n*n, n*n*n
				slot := len(s.volSlots[0].buf)
				scr, vol := slot-NumFields*n3, 10*n3
				if viscous {
					scr -= ownTracesLen(n)
					vol += (1 + 3*numGradQ) * n3
					if face := 5*n3 + 28*n2; slot < face {
						return fmt.Errorf("N=%d: %d slot scratch, the viscous face pass takes %d", n, slot, face)
					}
				}
				if scr < max(vol, liftScratchLen(n)) {
					return fmt.Errorf("N=%d viscous=%v: %d slot scratch after the residual, the volume pass takes %d and the lift %d",
						n, viscous, scr, vol, liftScratchLen(n))
				}
				s.SetInitial(GaussianPulse(1, 1, 1, 0.05, 0.5))
				s.Run(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// arrayBytes is the bytes of every slice a Solver holds in its own
// fields, directly or in an array of slices: the whole-rank arrays and
// the smaller per-element and per-slot tables (a slice of structs counts
// its structs, not what they point to).
func arrayBytes(s *Solver) int {
	total := 0
	var add func(v reflect.Value)
	add = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Slice:
			total += v.Cap() * int(v.Type().Elem().Size())
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				add(v.Index(i))
			}
		}
	}
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		add(v.Field(i))
	}
	return total
}

// TestRankFootprint pins the bytes of the arrays a rank holds on the
// benchmark's compute.n10 shape (inviscid, N = 10, 4 × 4 × 4 elements per
// rank, one worker) and visc.n10 shape (viscous and dealiased, 3 × 3 × 3)
// at what was measured plus 5 %, so that a whole-rank array that comes
// back fails. On both shapes it also holds the layout itself: U, u1, one
// kept face per in-rank pair, the two rank-boundary buffers, and no
// other per-field array — no whole-rank flux trace or residual.
func TestRankFootprint(t *testing.T) {
	for _, tc := range []struct {
		name    string
		local   int
		viscous bool
		bytes   int // measured
	}{
		{"compute.n10", 4, false, 6_096_784},
		{"visc.n10", 3, true, 2_606_416},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(2, 10, tc.local)
			cfg.Workers = 1
			if tc.viscous {
				cfg.Mu, cfg.Dealias = 0.01, true
			}
			got := make([]int, 2)
			_, err := comm.RunSimple(2, func(r *comm.Rank) error {
				s, err := New(r, cfg)
				if err != nil {
					return err
				}
				defer s.Close()
				got[r.ID()] = arrayBytes(s)
				return checkLayout(s)
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank, b := range got {
				t.Logf("rank %d holds %d bytes of arrays", rank, b)
				if limit := tc.bytes + tc.bytes/20; b > limit {
					t.Errorf("rank %d holds %d bytes of arrays, ceiling %d (%d measured + 5 %%)", rank, b, limit, tc.bytes)
				}
			}
		})
	}
}

func checkLayout(s *Solver) error {
	n2 := s.Cfg.N * s.Cfg.N
	vol := s.Nel() * n2 * s.Cfg.N
	pairs := 0
	for a, l := range s.link {
		if l >= 0 && int(l) != a {
			pairs++
		}
	}
	pairs /= 2
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch name := v.Type().Field(i).Name; {
		case v.Field(i).Type() != reflect.TypeOf(s.U):
		case name != "U" && name != "Source" && name != "u1" && name != "sumU" && name != "sumF" && name != "keep":
			return fmt.Errorf("the solver holds a per-field array %s", name)
		}
	}
	for c := 0; c < NumFields; c++ {
		switch {
		case len(s.U[c]) != vol || len(s.u1[c]) != vol:
			return fmt.Errorf("field %d: U and u1 hold %d and %d points, the rank %d", c, len(s.U[c]), len(s.u1[c]), vol)
		case s.Source[c] != nil:
			return fmt.Errorf("field %d: a source array is held", c)
		case len(s.keep[c]) != pairs*n2:
			return fmt.Errorf("field %d: %d kept points, %d in-rank pairs", c, len(s.keep[c]), pairs)
		case len(s.sumU[c]) != len(s.remote)*n2 || len(s.sumF[c]) != len(s.remote)*n2:
			return fmt.Errorf("field %d: rank-boundary buffers of %d and %d points, %d faces", c, len(s.sumU[c]), len(s.sumF[c]), len(s.remote))
		}
	}
	return nil
}
