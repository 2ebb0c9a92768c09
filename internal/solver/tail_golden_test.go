package solver

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/netmodel"
)

// testdata/tail_golden.json holds an FNV-1a hash over the bits of every
// rank's state after a few inviscid steps at orders whose element
// (N^3) and face (N^2) point counts are not multiples of four: there the
// pointwise kernels' vector loops leave a remainder, and the generated Go
// kernels finish every element and every face. It was recorded with the
// pointwise loops written by hand; the default and the semnoasm builds
// share it (`make test-noasm` runs it). Delete the file to re-record (the
// recording run fails, so a missing golden never passes).
const tailGoldenPath = "testdata/tail_golden.json"

func runTailGolden(t *testing.T, n, workers int) []string {
	t.Helper()
	const np, steps = 2, 3
	cfg := DefaultConfig(np, n, 2)
	cfg.Workers = workers
	out := make([]string, np)
	_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(GaussianPulse(1, 1, 1, 0.3, 0.5))
		s.Run(steps)
		h := fnv.New64a()
		var buf [8]byte
		for _, f := range s.U {
			for _, v := range f {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
		out[r.ID()] = fmt.Sprintf("%016x", h.Sum64())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTailGolden holds the state after three inviscid steps at N in
// {3, 5, 17} to the recorded bits, at pool widths 1 and 3.
func TestTailGolden(t *testing.T) {
	orders := map[string]int{}
	var keys []string
	for _, n := range []int{3, 5, 17} {
		key := fmt.Sprintf("n=%d", n)
		keys, orders[key] = append(keys, key), n
	}
	holdToGolden(t, tailGoldenPath, keys, func(key string, workers int) any {
		return runTailGolden(t, orders[key], workers)
	})
}
