package checkpoint

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/solver"
)

// validCheckpointBytes serializes a real (small) solver state, so the
// fuzzer starts from a fully valid input and mutates deep fields, not
// just the header.
func validCheckpointBytes(f *testing.F) []byte {
	f.Helper()
	var buf bytes.Buffer
	cfg := solver.DefaultConfig(1, 4, 2)
	if _, err := comm.RunSimple(1, func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		return Write(&buf, s, 3, 0.25)
	}); err != nil {
		f.Fatalf("building seed checkpoint: %v", err)
	}
	return buf.Bytes()
}

// FuzzRead throws arbitrary bytes at the checkpoint parser; it must
// reject or parse, never panic or allocate absurdly.
func FuzzRead(f *testing.F) {
	// Seed with a valid header prefix and some corruptions.
	valid := []byte{0x42, 0x54, 0x4d, 0x43, 1, 0, 0, 0}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0x42, 0x54, 0x4d, 0x43})
	f.Add(bytes.Repeat([]byte{0xff}, 128))
	// A complete valid checkpoint, plus truncated and bit-flipped copies.
	full := validCheckpointBytes(f)
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:len(full)-3])
	for _, bit := range []int{17, len(full)*4 + 5, len(full)*8 - 9} {
		flipped := append([]byte(nil), full...)
		flipped[bit/8%len(full)] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Guard against headers claiming giant element counts: Read
		// must fail cleanly, not OOM (the Nel/N sanity check).
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if snap == nil {
			t.Fatal("nil snapshot without error")
		}
		m := snap.Meta
		want := int64(m.Nel) * int64(m.N) * int64(m.N) * int64(m.N)
		for c := range snap.U {
			if int64(len(snap.U[c])) != want {
				t.Fatalf("field %d has %d values, header N=%d Nel=%d promises %d", c, len(snap.U[c]), m.N, m.Nel, want)
			}
		}
	})
}

// TestReadRejectsOverflowingHeader pins the two forged headers whose
// Nel*N^3 wrapped an unchecked int: negative (makeslice panic) and zero
// (an empty snapshot returned with a nil error). They are also corpus
// entries under testdata/fuzz/FuzzRead.
func TestReadRejectsOverflowingHeader(t *testing.T) {
	for _, c := range []struct{ n, nel int32 }{
		{2097151, 2},    // wraps negative
		{2097152, 1024}, // wraps to 0
		{maxN + 1, 1},
		{1, 1},
		{4, 0},
	} {
		var buf bytes.Buffer
		meta := Meta{N: c.n, ElemGrid: [3]int32{2, 1, 1}, ProcGrid: [3]int32{1, 1, 1}, Nel: c.nel}
		for _, v := range []interface{}{Magic, uint32(1), meta} {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := Read(&buf)
		if err == nil || !strings.Contains(err.Error(), "implausible header") {
			t.Errorf("N=%d Nel=%d: got snapshot %v, error %v; want an implausible-header error", c.n, c.nel, snap != nil, err)
		}
	}
}

// FuzzReadParticles exercises the particle parser the same way.
func FuzzReadParticles(f *testing.F) {
	f.Add([]byte{0x50, 0x54, 0x4d, 0x43, 1, 0, 0, 0})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = ReadParticles(bytes.NewReader(data))
	})
}
