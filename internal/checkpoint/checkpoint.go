// Package checkpoint provides restart files for the mini-app: each rank
// serializes its conserved-variable fields plus enough metadata to
// validate a resume. Production Nek-family codes lean on restart files
// for long campaigns; the mini-app carries the same capability so
// checkpoint I/O cost can be included in performance studies.
//
// The format is a fixed little-endian binary layout (stdlib
// encoding/binary): a magic/version header, the mesh shape, the step
// counter and simulation time, the rank's global element id list (format
// version 2 — records arbitrary element->rank ownership so a run can
// checkpoint after a dynamic rebalance and restore the exact partition),
// then the five field arrays. Version-1 files (no gid list, implied
// uniform box split) still read.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/mesh"
	"repro/internal/solver"
)

// Magic identifies checkpoint files ("CMTB" + format version).
const (
	Magic   uint32 = 0x434d5442
	Version uint32 = 2
)

// Meta is the validated header of a checkpoint.
type Meta struct {
	N        int32
	ElemGrid [3]int32
	ProcGrid [3]int32
	Rank     int32
	Nel      int32
	Step     int64
	Time     float64
}

// maxN bounds a header's points per direction: far above anything the
// solver runs (the paper's range is 5-25), and small enough that
// Nel*N^3 cannot overflow 64 bits.
const maxN = 1 << 10

// volume validates the header's sizes and returns Nel*N^3, the length of
// each field array. Nothing may be computed from N or Nel before it.
func (m Meta) volume() (int, error) {
	if m.N >= 2 && m.N <= maxN && m.Nel >= 1 {
		if vol := int64(m.Nel) * int64(m.N) * int64(m.N) * int64(m.N); vol <= math.MaxInt {
			return int(vol), nil
		}
	}
	return 0, fmt.Errorf("checkpoint: implausible header: N=%d Nel=%d", m.N, m.Nel)
}

// Snapshot is one rank's checkpoint contents.
type Snapshot struct {
	Meta Meta
	// GIDs lists the rank's global element ids in local (ascending)
	// order. Nil for version-1 files, which imply the uniform box split.
	GIDs []int64
	U    [solver.NumFields][]float64
}

// metaOf captures the solver's identity for the header.
func metaOf(s *solver.Solver, step int64, time float64) Meta {
	return Meta{
		N: int32(s.Cfg.N),
		ElemGrid: [3]int32{int32(s.Cfg.ElemGrid[0]), int32(s.Cfg.ElemGrid[1]),
			int32(s.Cfg.ElemGrid[2])},
		ProcGrid: [3]int32{int32(s.Cfg.ProcGrid[0]), int32(s.Cfg.ProcGrid[1]),
			int32(s.Cfg.ProcGrid[2])},
		Rank: int32(s.Rank.ID()),
		Nel:  int32(s.Local.Nel),
		Step: step,
		Time: time,
	}
}

// Write serializes rank state s at the given step/time to w.
func Write(w io.Writer, s *solver.Solver, step int64, time float64) error {
	meta := metaOf(s, step, time)
	for _, v := range []interface{}{Magic, Version, meta} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("checkpoint: write header: %w", err)
		}
	}
	if err := binary.Write(w, binary.LittleEndian, s.Local.GIDs()); err != nil {
		return fmt.Errorf("checkpoint: write gids: %w", err)
	}
	n3 := s.Cfg.N * s.Cfg.N * s.Cfg.N
	want := s.Local.Nel * n3
	for c := 0; c < solver.NumFields; c++ {
		if len(s.U[c]) != want {
			return fmt.Errorf("checkpoint: field %d has %d values, want %d", c, len(s.U[c]), want)
		}
		if err := binary.Write(w, binary.LittleEndian, s.U[c]); err != nil {
			return fmt.Errorf("checkpoint: write field %d: %w", c, err)
		}
	}
	return nil
}

// Read parses a checkpoint from r.
func Read(r io.Reader) (*Snapshot, error) {
	var magic, version uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("checkpoint: read magic: %w", err)
	}
	if magic != Magic {
		return nil, fmt.Errorf("checkpoint: bad magic %#x", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("checkpoint: read version: %w", err)
	}
	if version != 1 && version != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", version)
	}
	var snap Snapshot
	if err := binary.Read(r, binary.LittleEndian, &snap.Meta); err != nil {
		return nil, fmt.Errorf("checkpoint: read header: %w", err)
	}
	m := snap.Meta
	vol, err := m.volume()
	if err != nil {
		return nil, err
	}
	if version >= 2 {
		gids, err := readInt64sChunked(r, int(m.Nel))
		if err != nil {
			return nil, fmt.Errorf("checkpoint: read gids: %w", err)
		}
		total := int64(m.ElemGrid[0]) * int64(m.ElemGrid[1]) * int64(m.ElemGrid[2])
		for i, g := range gids {
			if g < 0 || g >= total || (i > 0 && g <= gids[i-1]) {
				return nil, fmt.Errorf("checkpoint: gid list not ascending in [0,%d)", total)
			}
		}
		snap.GIDs = gids
	}
	for c := 0; c < solver.NumFields; c++ {
		// Read in bounded chunks so a forged header claiming a huge
		// element count fails at EOF instead of exhausting memory.
		field, err := readFloatsChunked(r, vol)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: read field %d: %w", c, err)
		}
		for _, v := range field {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("checkpoint: field %d contains NaN", c)
			}
		}
		snap.U[c] = field
	}
	return &snap, nil
}

// readFloatsChunked reads exactly n float64s, allocating as data arrives.
func readFloatsChunked(r io.Reader, n int) ([]float64, error) {
	const chunk = 1 << 16
	out := make([]float64, 0, min(n, chunk))
	buf := make([]float64, chunk)
	for len(out) < n {
		want := n - len(out)
		if want > chunk {
			want = chunk
		}
		if err := binary.Read(r, binary.LittleEndian, buf[:want]); err != nil {
			return nil, err
		}
		out = append(out, buf[:want]...)
	}
	return out, nil
}

// readInt64sChunked reads exactly n int64s, allocating as data arrives —
// like readFloatsChunked, it makes a forged header claiming a huge count
// fail at EOF instead of exhausting memory.
func readInt64sChunked(r io.Reader, n int) ([]int64, error) {
	const chunk = 1 << 16
	out := make([]int64, 0, min(n, chunk))
	buf := make([]int64, chunk)
	for len(out) < n {
		want := n - len(out)
		if want > chunk {
			want = chunk
		}
		if err := binary.Read(r, binary.LittleEndian, buf[:want]); err != nil {
			return nil, err
		}
		out = append(out, buf[:want]...)
	}
	return out, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Restore copies a snapshot's fields into a compatible solver, returning
// the recorded step and time. The solver must match the snapshot's mesh
// shape and rank.
func Restore(s *solver.Solver, snap *Snapshot) (step int64, time float64, err error) {
	m := snap.Meta
	if int(m.N) != s.Cfg.N ||
		int(m.ElemGrid[0]) != s.Cfg.ElemGrid[0] ||
		int(m.ElemGrid[1]) != s.Cfg.ElemGrid[1] ||
		int(m.ElemGrid[2]) != s.Cfg.ElemGrid[2] ||
		int(m.ProcGrid[0]) != s.Cfg.ProcGrid[0] ||
		int(m.ProcGrid[1]) != s.Cfg.ProcGrid[1] ||
		int(m.ProcGrid[2]) != s.Cfg.ProcGrid[2] {
		return 0, 0, fmt.Errorf("checkpoint: mesh mismatch: snapshot N=%d grid=%v procs=%v vs config N=%d grid=%v procs=%v",
			m.N, m.ElemGrid, m.ProcGrid, s.Cfg.N, s.Cfg.ElemGrid, s.Cfg.ProcGrid)
	}
	if int(m.Rank) != s.Rank.ID() {
		return 0, 0, fmt.Errorf("checkpoint: rank mismatch: snapshot %d, solver %d", m.Rank, s.Rank.ID())
	}
	if int(m.Nel) != s.Local.Nel {
		return 0, 0, fmt.Errorf("checkpoint: element count mismatch: %d vs %d", m.Nel, s.Local.Nel)
	}
	if snap.GIDs != nil {
		for e, g := range s.Local.GIDs() {
			if snap.GIDs[e] != g {
				return 0, 0, fmt.Errorf("checkpoint: element %d is gid %d in snapshot, %d in solver (restore with the snapshot's ownership)",
					e, snap.GIDs[e], g)
			}
		}
	} else if !s.Ownership().IsUniform() {
		return 0, 0, fmt.Errorf("checkpoint: version-1 snapshot implies the uniform split, solver has a rebalanced partition")
	}
	for c := 0; c < solver.NumFields; c++ {
		copy(s.U[c], snap.U[c])
	}
	return m.Step, m.Time, nil
}

// FilePath returns the per-rank checkpoint path under dir for the given
// tag: dir/<tag>.rank<rank>.ckpt.
func FilePath(dir, tag string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.rank%04d.ckpt", tag, rank))
}

// WriteFile checkpoints one rank to its file under dir, creating dir if
// needed.
func WriteFile(dir, tag string, s *solver.Solver, step int64, time float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	path := FilePath(dir, tag, s.Rank.ID())
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := Write(f, s, step, time); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads one rank's checkpoint from dir.
func ReadFile(dir, tag string, rank int) (*Snapshot, error) {
	f, err := os.Open(FilePath(dir, tag, rank))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// ReadOwnership reconstructs the element->rank map recorded by a full
// set of per-rank checkpoint files under dir (headers and gid lists
// only; field data is not read). Pass the resulting Ownership through
// Config.Ownership so the restored run resumes on the exact partition it
// checkpointed with — including one produced by a mid-run rebalance.
// Version-1 checkpoint sets return the uniform split.
func ReadOwnership(dir, tag string, box *mesh.Box) (*mesh.Ownership, error) {
	p := box.Ranks()
	owner := make([]int, box.TotalElems())
	for i := range owner {
		owner[i] = -1
	}
	sawGIDs := false
	for rank := 0; rank < p; rank++ {
		gids, uniform, err := readGIDHeader(dir, tag, rank)
		if err != nil {
			return nil, err
		}
		if uniform {
			gids = box.Partition(rank).GIDs()
		} else {
			sawGIDs = true
		}
		for _, g := range gids {
			if g < 0 || g >= int64(len(owner)) || owner[g] != -1 {
				return nil, fmt.Errorf("checkpoint: rank %d claims gid %d already owned or out of range", rank, g)
			}
			owner[g] = rank
		}
	}
	for g, r := range owner {
		if r == -1 {
			return nil, fmt.Errorf("checkpoint: no rank owns element %d", g)
		}
	}
	if !sawGIDs {
		return box.UniformOwnership(), nil
	}
	return mesh.NewOwnership(box, owner)
}

// readGIDHeader reads one file's header and gid list, stopping before
// the field data. uniform is true for version-1 files.
func readGIDHeader(dir, tag string, rank int) (gids []int64, uniform bool, err error) {
	f, err := os.Open(FilePath(dir, tag, rank))
	if err != nil {
		return nil, false, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	var magic, version uint32
	var meta Meta
	for _, v := range []interface{}{&magic, &version, &meta} {
		if err := binary.Read(f, binary.LittleEndian, v); err != nil {
			return nil, false, fmt.Errorf("checkpoint: read header of rank %d: %w", rank, err)
		}
	}
	if magic != Magic {
		return nil, false, fmt.Errorf("checkpoint: bad magic %#x in rank %d file", magic, rank)
	}
	if version == 1 {
		return nil, true, nil
	}
	if version != Version {
		return nil, false, fmt.Errorf("checkpoint: unsupported version %d in rank %d file", version, rank)
	}
	if int(meta.Rank) != rank {
		return nil, false, fmt.Errorf("checkpoint: rank %d file recorded for rank %d", rank, meta.Rank)
	}
	if meta.Nel < 0 {
		return nil, false, fmt.Errorf("checkpoint: negative element count in rank %d file", rank)
	}
	gids, err = readInt64sChunked(f, int(meta.Nel))
	if err != nil {
		return nil, false, fmt.Errorf("checkpoint: read gids of rank %d: %w", rank, err)
	}
	return gids, false, nil
}
