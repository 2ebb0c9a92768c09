package solver

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/netmodel"
)

// testdata/surface_golden.json was recorded with the surface phase as
// whole-rank sweeps (Full2Face, a copy into the exchange arrays, an
// in-place gs over [][]int groups, a per-point numerical flux into a
// work array, Face2FullAdd): the final state, every rank's per-phase
// virtual seconds and the profiler's regions and call counts. A surface
// phase that runs element by element and exchanges out of place must
// produce the same bytes — on wall and freestream boundaries too, which
// the fully periodic benchmark goldens never reach. Delete the file to
// re-record (the recording run fails, so a missing golden never passes).
const surfaceGoldenPath = "testdata/surface_golden.json"

type surfaceGolden struct {
	// StateFNV[rank] is an FNV-1a hash over the bits of the five fields.
	StateFNV []string `json:"state_fnv"`
	// Phases[rank][phase] is that rank's modeled compute/wait/send split.
	Phases []map[string]netmodel.PhaseSplit `json:"phases"`
	// Calls[rank][region] is the profiler's call count.
	Calls []map[string]int64 `json:"calls"`
}

type surfaceCase struct {
	boundary        string // periodic, wall, freestream
	viscous         bool
	packed, overlap bool
	method          gs.Method
}

func (c surfaceCase) key() string {
	return fmt.Sprintf("%s/viscous=%v/packed=%v/overlap=%v/%v", c.boundary, c.viscous, c.packed, c.overlap, c.method)
}

func surfaceCases() []surfaceCase {
	var out []surfaceCase
	for _, boundary := range []string{"periodic", "wall", "freestream"} {
		for _, viscous := range []bool{false, true} {
			for _, packed := range []bool{false, true} {
				for _, overlap := range []bool{false, true} {
					for _, m := range []gs.Method{gs.Pairwise, gs.CrystalRouter} {
						out = append(out, surfaceCase{boundary, viscous, packed, overlap, m})
					}
				}
			}
		}
	}
	return out
}

func runSurfaceGolden(t *testing.T, c surfaceCase, workers int) surfaceGolden {
	t.Helper()
	const np, steps = 2, 2
	// Three elements per direction per rank: the middle layer has no
	// remote face, so Overlap gets interior and boundary runs.
	cfg := DefaultConfig(np, 5, 3)
	cfg.Workers = workers
	cfg.Overlap = c.overlap
	cfg.PackedExchange = c.packed
	cfg.GSMethod = c.method
	if c.boundary != "periodic" {
		cfg.Periodic = [3]bool{}
		if c.boundary == "wall" {
			cfg.BC = BCWall
		}
	}
	if c.viscous {
		cfg.Mu = 0.01
		cfg.Dealias = true
	}
	out := surfaceGolden{
		StateFNV: make([]string, np),
		Phases:   make([]map[string]netmodel.PhaseSplit, np),
		Calls:    make([]map[string]int64, np),
	}
	_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		// A pulse on a moving background, so no face sees a symmetric
		// state and every boundary has a normal velocity to mirror.
		s.SetInitial(func(x, y, z float64) [NumFields]float64 {
			r2 := (x-2.2)*(x-2.2) + (y-1.4)*(y-1.4) + (z-1.7)*(z-1.7)
			b := 0.1 * math.Exp(-r2/(2*0.6*0.6))
			return UniformState(1+b, 0.3, -0.2, 0.1, 1/Gamma+b)
		})
		s.Run(steps)
		h := fnv.New64a()
		var buf [8]byte
		for _, f := range s.U {
			for _, v := range f {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		out.StateFNV[r.ID()] = fmt.Sprintf("%016x", h.Sum64())
		out.Phases[r.ID()] = r.Clock().PhaseSplits()
		calls := map[string]int64{}
		for _, reg := range s.Rec.Flat() {
			calls[reg.Name] = reg.Calls
		}
		out.Calls[r.ID()] = calls
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSurfaceGolden holds the final state, the per-phase virtual seconds
// of every rank and the profiler's region names and call counts to the
// recorded bytes: boundaries {periodic, wall, freestream} x inviscid /
// viscous+dealias x packed exchange x overlap x {pairwise, crystal
// router}, at pool widths 1 and 3.
func TestSurfaceGolden(t *testing.T) {
	cases := map[string]surfaceCase{}
	var keys []string
	for _, c := range surfaceCases() {
		keys, cases[c.key()] = append(keys, c.key()), c
	}
	holdToGolden(t, surfaceGoldenPath, keys, func(key string, workers int) any {
		return runSurfaceGolden(t, cases[key], workers)
	})
}
