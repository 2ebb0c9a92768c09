package particles

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"repro/internal/comm"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/solver"
)

// testdata/particle_trace_golden.json was recorded when particle_update
// was a profiler region only, invisible to the tracer and to the clock's
// phase accounting: every rank's final virtual clock and per-phase
// split of a traced, two-way coupled 2-rank run. Opening the region on
// the recorder must leave both bit-equal. Delete the file to re-record
// (the recording run fails, so a missing golden never passes).
const particleGoldenPath = "testdata/particle_trace_golden.json"

type particleGolden struct {
	VT     []float64                        `json:"vt"`
	Phases []map[string]netmodel.PhaseSplit `json:"phases"`
}

// TestParticleUpdateIsTraced runs a traced 2-rank coupled run and checks
// that the trace holds one particle_update span per step per rank, that
// the span charges nothing, and that the modeled clocks match the golden.
func TestParticleUpdateIsTraced(t *testing.T) {
	const np, steps = 2, 6
	cfg := solver.DefaultConfig(np, 5, 2)
	tel := obs.NewTracer()
	cfg.Obs = tel
	got := particleGolden{VT: make([]float64, np), Phases: make([]map[string]netmodel.PhaseSplit, np)}
	_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		c, err := New(s, Config{Tau: 0.1, MassLoading: 0.005})
		if err != nil {
			return err
		}
		c.Seed(40, 6)
		for i := 0; i < steps; i++ {
			dt := s.StableDt()
			c.Step(dt)
			s.Step(dt)
		}
		got.VT[r.ID()] = r.Clock().Now()
		got.Phases[r.ID()] = r.Clock().PhaseSplits()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	perRank := make([]int, np)
	for _, sp := range tel.Spans() {
		if sp.Name == "particle_update" {
			perRank[sp.Rank]++
			if sp.VTEnd != sp.VTStart {
				t.Errorf("particle_update advanced the virtual clock: %v -> %v", sp.VTStart, sp.VTEnd)
			}
		}
	}
	for rank, n := range perRank {
		if n != steps {
			t.Errorf("rank %d: %d particle_update spans in the trace, want one per step (%d)", rank, n, steps)
		}
	}

	gotJSON, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	want, err := os.ReadFile(particleGoldenPath)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.WriteFile(particleGoldenPath, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded it from this run; re-run to compare", particleGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Errorf("virtual clocks or phase splits moved:\n got  %s\n want %s", gotJSON, want)
	}
}
