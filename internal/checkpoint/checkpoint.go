// Package checkpoint provides restart files for the mini-app: each rank
// serializes its element records plus enough metadata to validate a
// resume. Production Nek-family codes lean on restart files for long
// campaigns; the mini-app carries the same capability so checkpoint I/O
// cost can be included in performance studies.
//
// The format (version 3) is a fixed little-endian binary layout (stdlib
// encoding/binary): a magic/version header, the mesh shape, the step
// counter and simulation time, the writing rank, its element count and
// a flags word (sources present, cost estimates primed), then one
// element record per local element in ascending gid order — the record
// solver.Solver.Remap moves between ranks (gid, conserved fields,
// sources iff enabled, the load balancer's cost estimate). The gids
// record arbitrary element->rank ownership, so a run can checkpoint
// after a dynamic rebalance and restore the exact partition, and a crash
// recovery can restore onto any survivor partition. Files of versions 1
// and 2 (fields only) fail with a VersionError.
//
// Every restore — a rank's own file, an in-memory preemption image, or
// a whole checkpoint set after a crash — is one routine: keep the
// records this rank owns and require every local element to be covered
// exactly once.
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
	Version uint32 = 3
)

// Header flags.
const (
	// FlagSources marks records that carry source values.
	FlagSources uint32 = 1 << iota
	// FlagCostPrimed marks cost estimates that hold a measured sample
	// (solver.Solver.CostPrimed).
	FlagCostPrimed
)

// VersionError reports a checkpoint written in a format version this
// build does not read.
type VersionError struct{ Version uint32 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: format version %d is not supported (this build reads version %d)", e.Version, Version)
}

// Meta is the validated header of a checkpoint.
type Meta struct {
	N        int32
	ElemGrid [3]int32
	ProcGrid [3]int32
	Rank     int32
	Nel      int32
	Flags    uint32
	Step     int64
	Time     float64
}

// maxN bounds a header's points per direction: far above anything the
// solver runs (the paper's range is 5-25).
const maxN = 1 << 10

// recordLen returns the length of each of the header's element records.
func (m Meta) recordLen() int { return solver.RecordLen(int(m.N), m.Flags&FlagSources != 0) }

// size validates the header's sizes and returns Nel*recordLen, the
// length of the record data. Nothing may be computed from N or Nel
// before it.
func (m Meta) size() (int, error) {
	if m.N >= 2 && m.N <= maxN && m.Nel >= 1 && m.Flags&^(FlagSources|FlagCostPrimed) == 0 {
		if l := m.recordLen(); int64(m.Nel) <= math.MaxInt/int64(l) {
			return int(m.Nel) * l, nil
		}
	}
	return 0, fmt.Errorf("checkpoint: implausible header: N=%d Nel=%d flags=%#x", m.N, m.Nel, m.Flags)
}

// Snapshot is one rank's checkpoint contents.
type Snapshot struct {
	Meta Meta
	// GIDs lists the records' global element ids, ascending.
	GIDs []int64
	// Records holds Meta.Nel element records back to back, in GIDs order.
	Records []float64
}

// Record returns the i-th element record.
func (sn *Snapshot) Record(i int) []float64 {
	l := sn.Meta.recordLen()
	return sn.Records[i*l : (i+1)*l]
}

// Write serializes rank state s at the given step/time to w.
func Write(w io.Writer, s *solver.Solver, step int64, time float64) error {
	meta := Meta{
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
	if s.Source[0] != nil {
		meta.Flags |= FlagSources
	}
	if s.CostPrimed {
		meta.Flags |= FlagCostPrimed
	}
	for _, v := range []interface{}{Magic, Version, meta} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("checkpoint: write header: %w", err)
		}
	}
	rec := make([]float64, 0, s.RecordLen())
	for e := 0; e < s.Local.Nel; e++ {
		rec = s.AppendRecord(rec[:0], e)
		if err := binary.Write(w, binary.LittleEndian, rec); err != nil {
			return fmt.Errorf("checkpoint: write element %d: %w", e, err)
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
	if version != Version {
		return nil, &VersionError{Version: version}
	}
	snap := &Snapshot{}
	if err := binary.Read(r, binary.LittleEndian, &snap.Meta); err != nil {
		return nil, fmt.Errorf("checkpoint: read header: %w", err)
	}
	m := snap.Meta
	size, err := m.size()
	if err != nil {
		return nil, err
	}
	// Read in bounded chunks so a forged header claiming a huge element
	// count fails at EOF instead of exhausting memory.
	if snap.Records, err = readFloatsChunked(r, size); err != nil {
		return nil, fmt.Errorf("checkpoint: read records: %w", err)
	}
	for _, v := range snap.Records {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("checkpoint: records contain NaN")
		}
	}
	total := int64(m.ElemGrid[0]) * int64(m.ElemGrid[1]) * int64(m.ElemGrid[2])
	snap.GIDs = make([]int64, m.Nel)
	for i := range snap.GIDs {
		rec, err := solver.DecodeRecord(snap.Record(i), int(m.N), m.Flags&FlagSources != 0)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: record %d: %w", i, err)
		}
		if rec.GID >= total || (i > 0 && rec.GID <= snap.GIDs[i-1]) {
			return nil, fmt.Errorf("checkpoint: gid list not ascending in [0,%d)", total)
		}
		snap.GIDs[i] = rec.GID
	}
	return snap, nil
}

// readFloatsChunked reads exactly n float64s, allocating as data arrives.
func readFloatsChunked(r io.Reader, n int) ([]float64, error) {
	const chunk = 1 << 16
	out := make([]float64, 0, min(n, chunk))
	buf := make([]float64, chunk)
	for len(out) < n {
		want := min(n-len(out), chunk)
		if err := binary.Read(r, binary.LittleEndian, buf[:want]); err != nil {
			return nil, err
		}
		out = append(out, buf[:want]...)
	}
	return out, nil
}

// Restore stores a rank's own snapshot into a compatible solver,
// returning the recorded step and time. The snapshot must hold exactly
// the solver's local elements.
func Restore(s *solver.Solver, snap *Snapshot) (step int64, time float64, err error) {
	if int(snap.Meta.Nel) != s.Local.Nel {
		return 0, 0, fmt.Errorf("checkpoint: element count mismatch: %d vs %d (restore with the snapshot's ownership)",
			snap.Meta.Nel, s.Local.Nel)
	}
	return restore(s, 1, func(int) (*Snapshot, error) { return snap, nil })
}

// RestoreRemapped restores the set tag, written into store by nfiles
// ranks, into a solver whose partition and communicator size need not
// match the writers' — a resumed job, or crash survivors over a
// re-homed ownership. Every calling rank reads all nfiles images and
// keeps the elements it owns. All ranks must restore the same set.
func RestoreRemapped(s *solver.Solver, store Store, tag string, nfiles int) (step int64, simTime float64, err error) {
	return restore(s, nfiles, func(rank int) (*Snapshot, error) { return store.Read(tag, rank) })
}

// restore is the one restore routine. It reads n images, one at a time,
// and stores the records s's rank owns under its current ownership;
// every local element must be covered exactly once. Every image must
// match the solver's mesh shape (N, element grid, processor grid — crash
// survivors keep the original box) and agree on step, time and flags.
// Sources are enabled when the images carry them, and the cost estimates
// come back primed or not as they were written.
func restore(s *solver.Solver, n int, image func(i int) (*Snapshot, error)) (step int64, simTime float64, err error) {
	if n < 1 {
		return 0, 0, fmt.Errorf("checkpoint: restore from %d images", n)
	}
	own := s.Ownership()
	me := s.Rank.ID()
	filled := make([]bool, s.Local.Nel)
	var first Meta
	for i := 0; i < n; i++ {
		snap, err := image(i)
		if err != nil {
			return 0, 0, err
		}
		m := snap.Meta
		if int(m.N) != s.Cfg.N ||
			int(m.ElemGrid[0]) != s.Cfg.ElemGrid[0] ||
			int(m.ElemGrid[1]) != s.Cfg.ElemGrid[1] ||
			int(m.ElemGrid[2]) != s.Cfg.ElemGrid[2] ||
			int(m.ProcGrid[0]) != s.Cfg.ProcGrid[0] ||
			int(m.ProcGrid[1]) != s.Cfg.ProcGrid[1] ||
			int(m.ProcGrid[2]) != s.Cfg.ProcGrid[2] {
			return 0, 0, fmt.Errorf("checkpoint: mesh mismatch in image %d: snapshot N=%d grid=%v procs=%v vs config N=%d grid=%v procs=%v",
				i, m.N, m.ElemGrid, m.ProcGrid, s.Cfg.N, s.Cfg.ElemGrid, s.Cfg.ProcGrid)
		}
		if i == 0 {
			first = m
			if m.Flags&FlagSources != 0 {
				s.EnableSource()
			}
		} else if m.Step != first.Step || m.Time != first.Time || m.Flags != first.Flags {
			return 0, 0, fmt.Errorf("checkpoint: image %d is at step %d/time %g/flags %#x, set started at step %d/time %g/flags %#x",
				i, m.Step, m.Time, m.Flags, first.Step, first.Time, first.Flags)
		}
		for j, g := range snap.GIDs {
			if own.Owner(g) != me {
				continue
			}
			e, err := s.StoreRecord(snap.Record(j))
			if err != nil {
				return 0, 0, fmt.Errorf("checkpoint: image %d: %w", i, err)
			}
			if filled[e] {
				return 0, 0, fmt.Errorf("checkpoint: element %d restored twice", g)
			}
			filled[e] = true
		}
	}
	for e, ok := range filled {
		if !ok {
			return 0, 0, fmt.Errorf("checkpoint: no image covers local element %d (gid %d)", e, s.Local.GID(e))
		}
	}
	s.CostPrimed = first.Flags&FlagCostPrimed != 0
	return first.Step, first.Time, nil
}

// FilePath returns the per-rank checkpoint path under dir for the given
// tag: dir/<tag>.rank<rank>.ckpt.
func FilePath(dir, tag string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.rank%04d.ckpt", tag, rank))
}

// Dir is the directory store: one file per rank and tag (FilePath).
type Dir string

// Write checkpoints one rank to its file, creating the directory if
// needed.
func (d Dir) Write(tag string, s *solver.Solver, step int64, time float64) error {
	if err := os.MkdirAll(string(d), 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	f, err := os.Create(FilePath(string(d), tag, s.Rank.ID()))
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := Write(f, s, step, time); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read loads one rank's checkpoint file.
func (d Dir) Read(tag string, rank int) (*Snapshot, error) {
	f, err := os.Open(FilePath(string(d), tag, rank))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// ReadOwnership reconstructs the element->rank map recorded by a full
// set of per-rank checkpoint files under dir. Pass the resulting
// Ownership through Config.Ownership so the restored run resumes on the
// exact partition it checkpointed with — including one produced by a
// mid-run rebalance.
func ReadOwnership(dir, tag string, box *mesh.Box) (*mesh.Ownership, error) {
	owner := make([]int, box.TotalElems())
	for i := range owner {
		owner[i] = -1
	}
	for rank := 0; rank < box.Ranks(); rank++ {
		snap, err := Dir(dir).Read(tag, rank)
		if err != nil {
			return nil, err
		}
		if int(snap.Meta.Rank) != rank {
			return nil, fmt.Errorf("checkpoint: rank %d file recorded for rank %d", rank, snap.Meta.Rank)
		}
		for _, g := range snap.GIDs {
			if g >= int64(len(owner)) || owner[g] != -1 {
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
	return mesh.NewOwnership(box, owner)
}
