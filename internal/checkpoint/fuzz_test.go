package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
	// Seed with a current header prefix and some corruptions.
	f.Add([]byte{0x42, 0x54, 0x4d, 0x43, byte(Version), 0, 0, 0})
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
		l := solver.RecordLen(int(m.N), m.Flags&FlagSources != 0)
		if len(snap.GIDs) != int(m.Nel) || int64(len(snap.Records)) != int64(m.Nel)*int64(l) {
			t.Fatalf("%d records (%d values) parsed, header N=%d Nel=%d flags=%#x promises %d records of %d",
				len(snap.GIDs), len(snap.Records), m.N, m.Nel, m.Flags, m.Nel, l)
		}
	})
}

// TestReadRejectsOverflowingHeader pins the forged headers whose sizes
// wrapped an unchecked int: negative (makeslice panic) and zero (an
// empty snapshot returned with a nil error). Under the current version
// they must fail as implausible; the same headers in format version 1
// — the testdata/fuzz/FuzzRead corpus entries header-volume-wraps-* —
// must fail with a VersionError naming version 1, and their v3
// equivalents are the corpus entries v3-header-volume-wraps-*.
func TestReadRejectsOverflowingHeader(t *testing.T) {
	for _, c := range []struct {
		version uint32
		n, nel  int32
	}{
		{Version, 2097151, 2},    // wraps negative
		{Version, 2097152, 1024}, // wraps to 0
		{Version, maxN + 1, 1},
		{Version, 1, 1},
		{Version, 4, 0},
		{1, 2097151, 2},
		{1, 2097152, 1024},
	} {
		var buf bytes.Buffer
		meta := Meta{N: c.n, ElemGrid: [3]int32{2, 1, 1}, ProcGrid: [3]int32{1, 1, 1}, Nel: c.nel}
		for _, v := range []interface{}{Magic, c.version, meta} {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := Read(&buf)
		if c.version != Version {
			var ve *VersionError
			if !errors.As(err, &ve) || ve.Version != c.version || !strings.Contains(err.Error(), fmt.Sprintf("version %d ", c.version)) {
				t.Errorf("v%d N=%d Nel=%d: got snapshot %v, error %v; want a VersionError naming version %d",
					c.version, c.n, c.nel, snap != nil, err, c.version)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "implausible header") {
			t.Errorf("N=%d Nel=%d: got snapshot %v, error %v; want an implausible-header error", c.n, c.nel, snap != nil, err)
		}
	}
}
