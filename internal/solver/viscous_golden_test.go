package solver

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/netmodel"
	"repro/internal/sem"
)

// testdata/viscous_rhs_golden.json holds an FNV-1a hash over the bits of
// every rank's right-hand side after one viscous computeRHS on a rough,
// seeded state: random densities, pressures and velocities, with some
// velocity components exactly +0 or -0 and pairs of face-sharing elements
// at rest with zero pressure. In those pairs every flux, gradient, stress
// and heat flux is a signed zero, and the sign of the energy flux reaches
// the face exchange and the lift: only this input pins the sign-of-zero
// corner of the viscous energy flux (its stress work sums from +0), which
// the smooth-pulse goldens never reach. It was recorded with the gradients
// as whole-rank sweeps that the flux read back per (field, direction).
// The corner is also where the t-direction kernels a build can run
// differ (TestMxMSignedZero), so Optimized rows are keyed by the
// kernel this build runs and the file holds rows for the AVX2 and the
// semnoasm builds. Delete the file to re-record (the recording run
// fails, so a missing golden never passes); record each build and merge.
const viscousRHSGoldenPath = "testdata/viscous_rhs_golden.json"

// roughState fills s.U with a seeded random state, element by element
// from each element's global id, so that it depends on neither the
// partition nor the pool width. Elements with gid%4 < 2 (x-neighbours in
// pairs) are at rest: density 1, velocity and energy ±0 at every point.
// In the others a random velocity component is ±0 at every fourth point.
func roughState(s *Solver, seed int64) {
	n3 := s.Cfg.N * s.Cfg.N * s.Cfg.N
	signed0 := func(rng *rand.Rand) float64 {
		if rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}
	for e := 0; e < s.Local.Nel; e++ {
		gid := s.Local.GID(e)
		rng := rand.New(rand.NewSource(seed + gid))
		for i := e * n3; i < (e+1)*n3; i++ {
			if gid%4 < 2 {
				s.U[IRho][i] = 1
				for d := 0; d < 3; d++ {
					s.U[IMomX+d][i] = signed0(rng)
				}
				s.U[IEnergy][i] = signed0(rng)
				continue
			}
			rho, p := 0.5+rng.Float64(), 0.5+rng.Float64()
			var v [3]float64
			for d := range v {
				v[d] = 2*rng.Float64() - 1
			}
			if rng.Intn(4) == 0 {
				v[rng.Intn(3)] = signed0(rng)
			}
			s.U[IRho][i] = rho
			ke := 0.0
			for d := range v {
				s.U[IMomX+d][i] = rho * v[d]
				ke += rho * v[d] * v[d]
			}
			s.U[IEnergy][i] = p/(Gamma-1) + 0.5*ke
		}
	}
}

func runViscousRHSGolden(t *testing.T, n int, variant sem.KernelVariant, overlap bool, workers int) []string {
	t.Helper()
	const np = 2
	// Three elements per direction per rank, so Overlap gets interior
	// and boundary runs.
	cfg := DefaultConfig(np, n, 3)
	cfg.Variant = variant
	cfg.Workers = workers
	cfg.Overlap = overlap
	cfg.Mu = 0.01
	out := make([]string, np)
	_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		roughState(s, 34)
		s.MaxWaveSpeed()
		s.rhsEval(&s.U, 0, 0) // stage 0 stores U's right-hand side in u1
		h := fnv.New64a()
		var buf [8]byte
		for _, f := range s.u1 {
			for _, v := range f {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		out[r.ID()] = fmt.Sprintf("%016x", h.Sum64())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestViscousRHSGolden holds the viscous right-hand side of a rough state
// to the recorded bits: N in {3, 4, 10, 17} (hand loops below and above
// the generated kernels' range) x {Optimized, Basic} x overlap, at pool
// widths 1 and 3.
func TestViscousRHSGolden(t *testing.T) {
	type row struct {
		n       int
		variant sem.KernelVariant
		overlap bool
	}
	rows := map[string]row{}
	var keys []string
	for _, n := range []int{3, 4, 10, 17} {
		for _, variant := range []sem.KernelVariant{sem.Optimized, sem.Basic} {
			for _, overlap := range []bool{false, true} {
				key := fmt.Sprintf("n=%d/%v/overlap=%v", n, variant, overlap)
				if variant == sem.Optimized {
					key += "/t=" + sem.MxMEffective(n)
				}
				keys, rows[key] = append(keys, key), row{n, variant, overlap}
			}
		}
	}
	holdToGolden(t, viscousRHSGoldenPath, keys, func(key string, workers int) any {
		r := rows[key]
		return runViscousRHSGolden(t, r.n, r.variant, r.overlap, workers)
	})
}
