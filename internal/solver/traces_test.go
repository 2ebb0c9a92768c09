package solver

import (
	"fmt"
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
// pair of two elements is kept, the later one's. Two ranks of 4 × 4 × 4
// elements have interior elements, so the overlap rows run an interior
// and a boundary pass. Each row also steps under its plan, which is what
// the race detector watches in CI.
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
						return checkTracePlan(s, workers == 1 && !overlap)
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
		}
		if serial && p != e && (k >= 0) == (ko >= 0) {
			return fmt.Errorf("one worker, no overlap: faces %d and %d keep %d and %d, want exactly one", a, l, k, ko)
		}
	}
	if n2 := s.Cfg.N * s.Cfg.N; len(s.keep[0]) != kept*n2 {
		return fmt.Errorf("keep holds %d points, %d kept faces", len(s.keep[0]), kept)
	}
	return nil
}

// TestLiftScratchFits: behind the inviscid residual, a pool slot's
// scratch holds the lift's corrections and both sides' traces and fluxes
// at every order from 2 up, where the volume pass's own scratch is the
// smaller, and a step runs there.
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
				scr := len(s.volSlots[0].buf)
				if !viscous {
					scr -= NumFields * n * n * n // the residual at the head of the slot
				}
				if scr < liftScratchLen(n) {
					return fmt.Errorf("N=%d viscous=%v: %d slot scratch after the residual, the lift takes %d", n, viscous, scr, liftScratchLen(n))
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
// back fails. On the inviscid shape it also holds the layout itself: U,
// u1, one kept face per in-rank pair, the two rank-boundary buffers, and
// no whole-rank flux trace or residual.
func TestRankFootprint(t *testing.T) {
	for _, tc := range []struct {
		name    string
		local   int
		viscous bool
		bytes   int // measured
	}{
		{"compute.n10", 4, false, 6_096_784},
		{"visc.n10", 3, true, 4_334_416},
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
				if !tc.viscous {
					return checkInviscidLayout(s)
				}
				return nil
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

func checkInviscidLayout(s *Solver) error {
	n2 := s.Cfg.N * s.Cfg.N
	vol := s.Nel() * n2 * s.Cfg.N
	pairs := 0
	for a, l := range s.link {
		if l >= 0 && int(l) != a {
			pairs++
		}
	}
	pairs /= 2
	for c := 0; c < NumFields; c++ {
		switch {
		case len(s.U[c]) != vol || len(s.u1[c]) != vol:
			return fmt.Errorf("field %d: U and u1 hold %d and %d points, the rank %d", c, len(s.U[c]), len(s.u1[c]), vol)
		case s.rhs[c] != nil || s.faceF[c] != nil || s.Source[c] != nil:
			return fmt.Errorf("field %d: a whole-rank residual, flux trace or source array is held", c)
		case len(s.keep[c]) != pairs*n2:
			return fmt.Errorf("field %d: %d kept points, %d in-rank pairs", c, len(s.keep[c]), pairs)
		case len(s.sumU[c]) != len(s.remote)*n2 || len(s.sumF[c]) != len(s.remote)*n2:
			return fmt.Errorf("field %d: rank-boundary buffers of %d and %d points, %d faces", c, len(s.sumU[c]), len(s.sumF[c]), len(s.remote))
		}
	}
	return nil
}
