package checkpoint

import (
	"bytes"
	"math"
	"os"
	"testing"

	"repro/internal/comm"
	"repro/internal/solver"
)

// TestBytesMatchesFilePath proves the in-memory path and the file path
// are the same format: WriteBytes output is byte-for-byte what Dir.Write
// puts on disk, and decoding either image yields equivalent snapshots
// that restore to bit-identical solver state.
func TestBytesMatchesFilePath(t *testing.T) {
	dir := t.TempDir()
	_, err := comm.RunSimple(2, func(r *comm.Rank) error {
		s := mkSolver(t, r, 2)
		s.Run(3)

		mem, err := WriteBytes(s, 3, 0.375)
		if err != nil {
			t.Error(err)
			return nil
		}
		if err := Dir(dir).Write("eq", s, 3, 0.375); err != nil {
			t.Error(err)
			return nil
		}
		disk, err := os.ReadFile(FilePath(dir, "eq", r.ID()))
		if err != nil {
			t.Error(err)
			return nil
		}
		if !bytes.Equal(mem, disk) {
			t.Errorf("rank %d: in-memory image (%d bytes) differs from the file image (%d bytes)",
				r.ID(), len(mem), len(disk))
			return nil
		}

		fromMem, err := ReadBytes(mem)
		if err != nil {
			t.Error(err)
			return nil
		}
		fromDisk, err := Dir(dir).Read("eq", r.ID())
		if err != nil {
			t.Error(err)
			return nil
		}
		if fromMem.Meta != fromDisk.Meta {
			t.Errorf("rank %d: meta differs: mem %+v disk %+v", r.ID(), fromMem.Meta, fromDisk.Meta)
		}
		for i := range fromMem.Records {
			if math.Float64bits(fromMem.Records[i]) != math.Float64bits(fromDisk.Records[i]) {
				t.Errorf("rank %d: record value %d differs", r.ID(), i)
				return nil
			}
		}

		// Restore onto a fresh solver and compare state bitwise.
		fresh := mkSolver(t, r, 2)
		step, tm, err := Restore(fresh, fromMem)
		if err != nil {
			t.Error(err)
			return nil
		}
		if step != 3 || tm != 0.375 {
			t.Errorf("rank %d: restored step=%d time=%v, want 3/0.375", r.ID(), step, tm)
		}
		for c := 0; c < solver.NumFields; c++ {
			for i := range s.U[c] {
				if math.Float64bits(fresh.U[c][i]) != math.Float64bits(s.U[c][i]) {
					t.Errorf("rank %d: restored field %d differs at %d", r.ID(), c, i)
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

// TestReadBytesRejectsTruncation keeps the in-memory decoder on the same
// guarded path as the file decoder.
func TestReadBytesRejectsTruncation(t *testing.T) {
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		s := mkSolver(t, r, 1)
		buf, err := WriteBytes(s, 1, 0)
		if err != nil {
			t.Error(err)
			return nil
		}
		if _, err := ReadBytes(buf[:len(buf)/2]); err == nil {
			t.Error("truncated image decoded without error")
		}
		if _, err := ReadBytes(nil); err == nil {
			t.Error("empty image decoded without error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMemStoreKeepsTwoSets: the memory store holds the newest complete
// set and the one being written, no more; the sets it holds restore
// through RestoreRemapped like the directory store's files, and a set it
// dropped fails with an error instead of restoring stale state.
func TestMemStoreKeepsTwoSets(t *testing.T) {
	const np = 2
	var mem Mem
	dir := Dir(t.TempDir())
	_, err := comm.RunSimple(np, func(r *comm.Rank) error {
		s := mkSolver(t, r, np)
		defer s.Close()
		for i, tag := range []string{"a", "b", "c"} {
			s.AdvanceStep(i)
			for _, st := range []Store{&mem, dir} {
				if err := st.Write(tag, s, int64(i+1), s.SimTime()); err != nil {
					return err
				}
			}
			r.Barrier() // every rank finishes a set before any starts the next
		}
		want := append([]float64(nil), s.U[solver.IRho]...)
		for _, st := range []Store{&mem, dir} {
			fresh := mkSolver(t, r, np)
			step, _, err := RestoreRemapped(fresh, st, "c", np)
			if err != nil {
				return err
			}
			if step != 3 {
				t.Errorf("%T: restored step %d, want 3", st, step)
			}
			for i, v := range fresh.U[solver.IRho] {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Errorf("%T: rank %d density %d differs after restore", st, r.ID(), i)
					break
				}
			}
			fresh.Close()
		}
		if _, err := mem.Read("a", r.ID()); err == nil {
			t.Error("the memory store still holds the oldest of three sets")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mem.sets["b"]; !ok || len(mem.sets) != 2 {
		t.Fatalf("memory store holds %d sets, want b and c", len(mem.sets))
	}
}
