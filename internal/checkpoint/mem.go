package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/solver"
)

// Store holds checkpoint sets: under one tag, one image per rank of the
// communicator that wrote the set, indexed by rank id. Dir and Mem hold
// the same bytes, and every restore reads them through RestoreRemapped.
type Store interface {
	Write(tag string, s *solver.Solver, step int64, time float64) error
	Read(tag string, rank int) (*Snapshot, error)
}

// Mem is the memory store, shared by the ranks (goroutines) of one job.
// It holds the set being written and the one before it, which is
// complete: no rank starts a set until every rank has finished the last
// (the collective steps between them see to that). Older sets are
// dropped. The zero value is an empty store.
type Mem struct {
	mu        sync.Mutex
	prev, cur string
	sets      map[string][][]byte
}

// Write serializes rank s.Rank.ID()'s image of the set tag.
func (m *Mem) Write(tag string, s *solver.Solver, step int64, time float64) error {
	buf, err := WriteBytes(s, step, time)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sets == nil {
		m.sets = make(map[string][][]byte)
	}
	if tag != m.cur {
		delete(m.sets, m.prev)
		m.prev, m.cur = m.cur, tag
	}
	set := m.sets[tag]
	if id := s.Rank.ID(); id >= len(set) {
		set = append(set, make([][]byte, id+1-len(set))...)
	}
	set[s.Rank.ID()] = buf
	m.sets[tag] = set
	return nil
}

// Read decodes one rank's image of the set tag.
func (m *Mem) Read(tag string, rank int) (*Snapshot, error) {
	var buf []byte
	m.mu.Lock()
	if set := m.sets[tag]; rank < len(set) {
		buf = set[rank]
	}
	m.mu.Unlock()
	if buf == nil {
		return nil, fmt.Errorf("checkpoint: no image of rank %d in set %q", rank, tag)
	}
	return ReadBytes(buf)
}

// WriteBytes serializes rank state s at the given step/time into a fresh
// byte slice — byte-for-byte the content Dir.Write would put on disk.
func WriteBytes(s *solver.Solver, step int64, time float64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(8 + binary.Size(Meta{}) + 8*s.Local.Nel*s.RecordLen())
	if err := Write(&buf, s, step, time); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadBytes parses a checkpoint from an in-memory image (WriteBytes's,
// or a checkpoint file's — the formats are identical).
func ReadBytes(b []byte) (*Snapshot, error) {
	return Read(bytes.NewReader(b))
}
