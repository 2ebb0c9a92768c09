package repro

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"repro/internal/comm"
	"repro/internal/diag"
	"repro/internal/nekbone"
	"repro/internal/netmodel"
	"repro/internal/sem"
	"repro/internal/solver"
)

// The derivative-kernel path may be rewired freely as long as nothing a
// run produces moves. testdata/kernel_path_golden.json was recorded
// before sem.Deriv became the single entry (with the hand-written
// dud?Opt loops behind every call) and pins, per scenario, the physics
// scalars, the diagnostics summary, every rank's virtual clock, the
// accumulated structural op counts and a fingerprint of the full state
// — all bit-for-bit. When a change is meant to move them, delete the
// file: the next run records it afresh (and fails, so a missing golden
// can never pass silently).
const kernelGoldenPath = "testdata/kernel_path_golden.json"

type solverGolden struct {
	Dt        float64      `json:"dt"`
	Mass      float64      `json:"mass"`
	Energy    float64      `json:"energy"`
	WaveSpeed float64      `json:"wavespeed"`
	Diag      diag.Summary `json:"diag"`
	Ops       sem.OpCount  `json:"ops"`
	RankVT    []float64    `json:"rank_vt"`
	// StateFNV is a per-rank FNV-1a hash over the bits of all five
	// conserved fields: a flipped sign of zero anywhere shows up here
	// even when no reduction notices it.
	StateFNV []string `json:"state_fnv"`
}

type nekboneGolden struct {
	Iters        int         `json:"iters"`
	ResidualBits string      `json:"residual_bits"`
	Ops          sem.OpCount `json:"ops"`
	RankVT       []float64   `json:"rank_vt"`
}

type kernelGolden struct {
	Solver  map[string]solverGolden  `json:"solver"`
	Nekbone map[string]nekboneGolden `json:"nekbone"`
}

func hashFields(fields ...[]float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range fields {
		for _, v := range f {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func runSolverGolden(t *testing.T, viscous bool, n, workers int, v sem.KernelVariant) solverGolden {
	t.Helper()
	const np, steps = 2, 2
	cfg := solver.DefaultConfig(np, n, 2)
	cfg.Workers = workers
	cfg.Variant = v
	if viscous {
		cfg.Mu = 0.01
		cfg.Dealias = true
	}
	out := solverGolden{RankVT: make([]float64, np), StateFNV: make([]string, np)}
	_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(
			float64(cfg.ElemGrid[0])/2, float64(cfg.ElemGrid[1])/2, float64(cfg.ElemGrid[2])/2,
			0.1, 0.5))
		rep := s.Run(steps)
		d := diag.Compute(s)
		out.RankVT[r.ID()] = r.Clock().Now()
		out.StateFNV[r.ID()] = hashFields(s.U[:]...)
		if r.ID() == 0 {
			out.Dt, out.Mass, out.Energy, out.WaveSpeed = rep.Dt, rep.Mass, rep.Energy, rep.WaveSpeed
			out.Diag, out.Ops = d, rep.Ops
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func runNekboneGolden(t *testing.T, n int) nekboneGolden {
	t.Helper()
	const np = 2
	cfg := nekbone.DefaultConfig(np, n, 2)
	cfg.Iters = 12
	out := nekboneGolden{RankVT: make([]float64, np)}
	_, err := comm.Run(np, comm.Options{Model: netmodel.QDR}, func(r *comm.Rank) error {
		s, err := nekbone.New(r, cfg)
		if err != nil {
			return err
		}
		rep := s.Run()
		out.RankVT[r.ID()] = r.Clock().Now()
		if r.ID() == 0 {
			out.Iters, out.Ops = rep.Iters, rep.Ops
			out.ResidualBits = fmt.Sprintf("%016x", math.Float64bits(rep.Residual))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameJSON(t *testing.T, what string, got, want any) {
	t.Helper()
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		t.Errorf("%s moved:\n got  %s\n want %s", what, g, w)
	}
}

// TestKernelPathGolden runs 2-rank inviscid and viscous+dealias solves
// at N in {3, 5, 10, 17} (below, inside and above the generated-kernel
// range) under both kernel variants and pool widths 1 and 3, plus a
// Nekbone CG solve, and holds every output to the recorded bytes.
func TestKernelPathGolden(t *testing.T) {
	var want kernelGolden
	raw, err := os.ReadFile(kernelGoldenPath)
	record := errors.Is(err, os.ErrNotExist)
	if !record {
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := kernelGolden{Solver: map[string]solverGolden{}, Nekbone: map[string]nekboneGolden{}}
	for _, viscous := range []bool{false, true} {
		for _, n := range []int{3, 5, 10, 17} {
			for _, v := range []sem.KernelVariant{sem.Optimized, sem.Basic} {
				key := fmt.Sprintf("viscous=%v/n=%d/%v", viscous, n, v)
				serial := runSolverGolden(t, viscous, n, 1, v)
				sameJSON(t, key+" workers=3 vs 1", runSolverGolden(t, viscous, n, 3, v), serial)
				got.Solver[key] = serial
				if !record {
					sameJSON(t, key, serial, want.Solver[key])
				}
			}
		}
	}
	for _, n := range []int{3, 5, 10, 17} {
		key := fmt.Sprintf("n=%d", n)
		got.Nekbone[key] = runNekboneGolden(t, n)
		if !record {
			sameJSON(t, "nekbone "+key, got.Nekbone[key], want.Nekbone[key])
		}
	}
	if record && !t.Failed() {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(kernelGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded it from this run; re-run to compare", kernelGoldenPath)
	}
}
