package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/solver"
)

// WriteBytes serializes rank state s at the given step/time into a fresh
// byte slice — byte-for-byte the content WriteFile would put on disk, so
// in-memory checkpoints (job suspend/resume, migration between runner
// slots) and restart files stay one format. No temp-dir round trip.
func WriteBytes(s *solver.Solver, step int64, time float64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(8 + binary.Size(Meta{}) + 8*s.Local.Nel*s.RecordLen())
	if err := Write(&buf, s, step, time); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadBytes parses a checkpoint from an in-memory image produced by
// WriteBytes (or read from a checkpoint file — the formats are
// identical).
func ReadBytes(b []byte) (*Snapshot, error) {
	return Read(bytes.NewReader(b))
}

// RestoreBytes is the suspend/resume fast path: decode a rank's own
// in-memory checkpoint and restore it into a compatible solver,
// returning the recorded step and simulated time.
func RestoreBytes(s *solver.Solver, b []byte) (step int64, time float64, err error) {
	snap, err := ReadBytes(b)
	if err != nil {
		return 0, 0, fmt.Errorf("checkpoint: restore from memory: %w", err)
	}
	return Restore(s, snap)
}
