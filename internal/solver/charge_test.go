package solver

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/hw"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sem"
)

// TestScheduleMatchesKernels holds every schedule entry a kernel backs to
// the count that kernel returns, at several orders and element counts:
// the derivatives to sem.DerivOps and to sem.Deriv's return, with the
// traits hw.DerivTraits gives their direction and variant, and the trace
// extractions to sem.Full2Face's (all fields; a third of it, the two
// faces normal to the flux, for one direction's flux), the dealiasing round trip to DealiasRoundTrip's and
// the spectral filter to FilterElements' (both over all fields).
// Pointwise entries have no kernel that counts them;
// they are listed by point and region, so that a new entry must be put
// in one group or the other.
func TestScheduleMatchesKernels(t *testing.T) {
	pointwise := map[string]bool{
		"wave speed/wave_speed":        false,
		"primitive/compute_primitive":  false,
		"gradient/compute_primitive":   false, // T = p/rho
		"gradient/":                    false, // the rx scale
		"surface/compute_flux_surface": false,
		"volume/compute_flux":          false,
		"volume/":                      false, // the divergence's metric scaling and negation
		"lift/numerical_flux":          false,
		"source/source_terms":          false,
		"early update/rk_update":       false, // billed with the last
		"update/rk_update":             false,
	}
	for _, n := range []int{3, 5, 10, 17} {
		ref := sem.NewRef1D(n)
		uf, dscr := make([]float64, ref.NF*ref.NF*ref.NF), make([]float64, ref.DealiasScratchLen())
		filter, fscr := sem.FilterMatrix(ref.X, n-1, 1), make([]float64, sem.FilterScratchLen(n))
		for _, nel := range []int{1, 2, 7} {
			u := make([]float64, nel*n*n*n)
			for i := range u {
				u[i] = float64(i%13) - 6
			}
			du := make([]float64, len(u))
			faces := make([]float64, sem.FaceSliceLen(n, nel))
			for _, viscous := range []bool{false, true} {
				for _, v := range []sem.KernelVariant{sem.Optimized, sem.Basic} {
					for i, r := range CostSchedule(n, ref.NF, viscous, v) {
						where := fmt.Sprintf("N=%d nel=%d viscous=%v %v entry %d (%s/%s)", n, nel, viscous, v, i, r.Point, r.Region)
						got := r.Ops.Times(int64(nel))
						var want sem.OpCount
						switch {
						case strings.HasPrefix(r.Region, "ax_"):
							d := strings.IndexByte("rst", r.Stage[len(r.Stage)-1])
							if want = sem.DerivOps(n, nel); got != want {
								t.Errorf("%s: %+v, sem.DerivOps %+v", where, got, want)
							}
							want = sem.Deriv(sem.Direction(d), v, ref, u, du, nel)
							if tr := hw.DerivTraits(d, v == sem.Optimized); r.Traits != tr {
								t.Errorf("%s: traits %+v, hw.DerivTraits %+v", where, r.Traits, tr)
							}
						case r.Region == "full2face_cmt" && r.Point == "face":
							want = sem.Full2Face(n, u, nel, faces).Times(NumFields)
						case r.Region == "full2face_cmt" && r.Point == "volume":
							all := sem.Full2Face(n, u, nel, faces)
							want = sem.OpCount{Load: all.Load / 3, Store: all.Store / 3}
						case r.Region == "dealias":
							want = ref.DealiasRoundTrip(u, nel, uf, dscr).Times(NumFields)
						case r.Region == "spectral_filter":
							want = sem.FilterElements(filter, n, u, nel, 0.5, fscr).Times(NumFields)
						default:
							key := r.Point + "/" + r.Region
							if _, ok := pointwise[key]; !ok {
								t.Errorf("%s: no kernel count and not listed as pointwise", where)
							}
							pointwise[key] = true
							continue
						}
						if got != want {
							t.Errorf("%s: %+v, the kernel returns %+v", where, got, want)
						}
					}
				}
			}
		}
	}
	for key, seen := range pointwise {
		if !seen {
			t.Errorf("pointwise entry %s is in no schedule", key)
		}
	}
}

// TestSettledCallsNest holds settle's wall layout: each call lies inside
// the pass whose stopwatch timed it, so every rank's trace nests in the
// wall domain as it does in the virtual one — the overlapped right-hand
// sides too, whose once-billed primitive and gradient calls take the wall
// of the first pass that times them, and the inviscid ones, whose volume
// calls are billed ahead of the post-exchange pass that times them.
func TestSettledCallsNest(t *testing.T) {
	for _, tc := range []struct {
		viscous, overlap bool
		variant          sem.KernelVariant
	}{
		{false, false, sem.Optimized}, {false, true, sem.Optimized},
		{false, false, sem.Basic}, {false, true, sem.Basic},
		{true, false, sem.Optimized}, {true, false, sem.Basic},
		{true, true, sem.Optimized}, {true, true, sem.Basic},
	} {
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("viscous=%v/overlap=%v/%v/workers=%d", tc.viscous, tc.overlap, tc.variant, workers)
			cfg := DefaultConfig(2, 5, 3)
			cfg.Workers, cfg.Overlap, cfg.Variant = workers, tc.overlap, tc.variant
			cfg.Obs = obs.NewTracer()
			if tc.viscous {
				cfg.Mu, cfg.Dealias = 0.01, true
			}
			_, err := comm.Run(2, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
				s, err := New(r, cfg)
				if err != nil {
					return err
				}
				defer s.Close()
				s.SetInitial(GaussianPulse(1.5, 1.5, 1.5, 0.1, 0.5))
				s.Run(2)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			byRank := map[int][]obs.Span{}
			for _, sp := range cfg.Obs.Spans() {
				byRank[sp.Rank] = append(byRank[sp.Rank], sp)
			}
			for rank, spans := range byRank {
				sort.Slice(spans, func(i, j int) bool {
					if spans[i].WallStart != spans[j].WallStart {
						return spans[i].WallStart < spans[j].WallStart
					}
					return spans[i].WallEnd > spans[j].WallEnd
				})
				const slack = 1e-9 // float seconds of one time.Time difference
				var open []obs.Span
				for _, sp := range spans {
					for len(open) > 0 && open[len(open)-1].WallEnd <= sp.WallStart+slack {
						open = open[:len(open)-1]
					}
					if n := len(open); n > 0 && sp.WallEnd > open[n-1].WallEnd+slack {
						t.Errorf("%s rank %d: %s [%.9f, %.9f] overlaps %s [%.9f, %.9f]", name, rank,
							sp.Name, sp.WallStart, sp.WallEnd, open[n-1].Name, open[n-1].WallStart, open[n-1].WallEnd)
						break
					}
					open = append(open, sp)
				}
			}
		}
	}
}
