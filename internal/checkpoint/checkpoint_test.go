package checkpoint

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/solver"
)

func mkSolver(t testing.TB, r *comm.Rank, p int) *solver.Solver {
	t.Helper()
	cfg := solver.DefaultConfig(p, 5, 2)
	s, err := solver.New(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
	return s
}

// fieldOf gathers conserved field c from a snapshot's records, in local
// element order.
func fieldOf(t testing.TB, snap *Snapshot, c int) []float64 {
	t.Helper()
	var out []float64
	for i := range snap.GIDs {
		rec, err := solver.DecodeRecord(snap.Record(i), int(snap.Meta.N), snap.Meta.Flags&FlagSources != 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec.U[c]...)
	}
	return out
}

func TestRoundtripInMemory(t *testing.T) {
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		s := mkSolver(t, r, 1)
		s.Run(2)
		var buf bytes.Buffer
		if err := Write(&buf, s, 2, 0.123); err != nil {
			t.Error(err)
			return nil
		}
		snap, err := Read(&buf)
		if err != nil {
			t.Error(err)
			return nil
		}
		if snap.Meta.Step != 2 || snap.Meta.Time != 0.123 {
			t.Errorf("meta = %+v", snap.Meta)
		}
		for c := 0; c < solver.NumFields; c++ {
			field := fieldOf(t, snap, c)
			for i := range s.U[c] {
				if field[i] != s.U[c][i] {
					t.Errorf("field %d differs at %d", c, i)
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRejectsMismatchedMesh(t *testing.T) {
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		s := mkSolver(t, r, 1)
		var buf bytes.Buffer
		if err := Write(&buf, s, 0, 0); err != nil {
			t.Error(err)
			return nil
		}
		snap, err := Read(&buf)
		if err != nil {
			t.Error(err)
			return nil
		}
		// Solver with a different N must refuse the snapshot.
		cfg := solver.DefaultConfig(1, 6, 2)
		other, err := solver.New(r, cfg)
		if err != nil {
			t.Error(err)
			return nil
		}
		if _, _, err := Restore(other, snap); err == nil {
			t.Error("mesh mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Correct magic, wrong version.
	var buf bytes.Buffer
	buf.Write([]byte{0x42, 0x54, 0x4d, 0x43}) // Magic little-endian
	buf.Write([]byte{0xff, 0, 0, 0})          // version 255
	if _, err := Read(&buf); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestResumeEquivalence(t *testing.T) {
	// Running 6 steps straight must equal running 3, checkpointing,
	// restoring into a fresh solver, and running 3 more — bit for bit in
	// all five fields. The resumed solver is built without sources: a
	// constant source must come back from the checkpoint's records.
	const p = 2
	for _, tc := range []struct {
		name   string
		source float64 // constant density source; 0 leaves sources off
	}{
		{"plain", 0},
		{"constant-source", 0.01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setup := func(r *comm.Rank) *solver.Solver {
				s := mkSolver(t, r, p)
				if tc.source != 0 {
					src := s.EnableSource()
					for i := range src[solver.IRho] {
						src[solver.IRho][i] = tc.source
					}
				}
				return s
			}
			direct := make([][solver.NumFields][]float64, p)
			resumed := make([][solver.NumFields][]float64, p)
			keep := func(s *solver.Solver, into [][solver.NumFields][]float64) {
				for c := 0; c < solver.NumFields; c++ {
					into[s.Rank.ID()][c] = append([]float64(nil), s.U[c]...)
				}
			}

			_, err := comm.RunSimple(p, func(r *comm.Rank) error {
				s := setup(r)
				s.Run(6)
				keep(s, direct)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			snaps := make([]*Snapshot, p)
			_, err = comm.RunSimple(p, func(r *comm.Rank) error {
				s := setup(r)
				s.Run(3)
				var buf bytes.Buffer
				if err := Write(&buf, s, 3, 0); err != nil {
					return err
				}
				snap, err := Read(&buf)
				if err != nil {
					return err
				}
				snaps[r.ID()] = snap
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			_, err = comm.RunSimple(p, func(r *comm.Rank) error {
				s := mkSolver(t, r, p)
				step, _, err := Restore(s, snaps[r.ID()])
				if err != nil {
					return err
				}
				if step != 3 {
					t.Errorf("restored step = %d", step)
				}
				s.Run(3)
				keep(s, resumed)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			for rank := 0; rank < p; rank++ {
				for c := 0; c < solver.NumFields; c++ {
					differ := 0
					for i, v := range direct[rank][c] {
						if math.Float64bits(v) != math.Float64bits(resumed[rank][c][i]) {
							differ++
						}
					}
					if differ > 0 {
						t.Errorf("rank %d field %d: %d of %d resumed values differ bitwise from the direct run",
							rank, c, differ, len(direct[rank][c]))
					}
				}
			}
		})
	}
}

func TestFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	_, err := comm.RunSimple(2, func(r *comm.Rank) error {
		s := mkSolver(t, r, 2)
		s.Run(1)
		if err := Dir(dir).Write("test", s, 1, 0.5); err != nil {
			return err
		}
		snap, err := Dir(dir).Read("test", r.ID())
		if err != nil {
			return err
		}
		if _, tm, err := Restore(s, snap); err != nil || tm != 0.5 {
			t.Errorf("restore: time=%v err=%v", tm, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := Dir(t.TempDir()).Read("nope", 0); err == nil {
		t.Fatal("missing file accepted")
	}
}
