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
// are the same format: WriteBytes output is byte-for-byte what WriteFile
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
		if err := WriteFile(dir, "eq", s, 3, 0.375); err != nil {
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
		fromDisk, err := ReadFile(dir, "eq", r.ID())
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
		step, tm, err := RestoreBytes(fresh, mem)
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
		if _, _, err := RestoreBytes(s, nil); err == nil {
			t.Error("empty image restored without error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
