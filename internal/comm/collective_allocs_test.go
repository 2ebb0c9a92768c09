package comm

import (
	"runtime/debug"
	"testing"
)

// worldAllocs returns the heap allocations the whole 4-rank world makes
// per call of op: rank 0 measures with testing.AllocsPerRun, which
// counts every goroutine's allocations, while the other ranks make the
// same calls (one warm-up plus the measured runs). A world barrier, which
// allocates nothing, follows each call, so a rank that only sends cannot
// run ahead of the measured window. The garbage collector is off, so it
// cannot empty the envelope pool mid-measurement.
func worldAllocs(t *testing.T, op func(r *Rank)) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const p, runs = 4, 50
	var got float64
	_, err := RunSimple(p, func(r *Rank) error {
		if r.ID() == 0 {
			got = testing.AllocsPerRun(runs, func() { op(r); r.Barrier() })
			return nil
		}
		for i := 0; i < runs+1; i++ {
			op(r)
			r.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// The collectives copy no payload that deliver copies anyway and
// recycle every envelope whose payload they have consumed, so per call
// the world allocates only the results it hands back: Gather's and the
// allgathers' result buffers, and Scatter's root chunk plus the three
// received chunks (envelope and payload), which the non-roots keep.
// The Group collectives, given the caller's buffer, allocate nothing.
func TestCollectiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled envelopes at random")
	}
	var sends [4][]float64
	for i := range sends {
		sends[i] = []float64{float64(i), 1, 2}
	}
	send := func(r *Rank) []float64 { return sends[r.ID()] }
	cases := []struct {
		name string
		max  float64
		op   func(r *Rank)
	}{
		{"Gather", 1, func(r *Rank) { r.Gather(0, send(r)) }},
		{"Allgather", 4, func(r *Rank) { r.Allgather(send(r)) }},
		{"AllgatherInts", 4, func(r *Rank) { r.AllgatherInts(int64(r.ID())) }},
		{"Scatter", 7, func(r *Rank) {
			var all []float64
			if r.ID() == 0 {
				all = scatterSrc[:]
			}
			r.Scatter(0, all, 2)
		}},
	}
	for _, c := range cases {
		if got := worldAllocs(t, c.op); got > c.max {
			t.Errorf("%s: %v allocations per call across 4 ranks, want <= %v", c.name, got, c.max)
		}
	}

	// The split runs once; the measured calls reuse one buffer per rank.
	var groups [4]*Group
	var bufs [4][]float64
	group := func(r *Rank) *Group {
		if groups[r.ID()] == nil {
			groups[r.ID()] = r.Split(0, -r.ID())
			bufs[r.ID()] = make([]float64, 3)
		}
		return groups[r.ID()]
	}
	groupCases := []struct {
		name string
		op   func(r *Rank)
	}{
		{"Group.Allreduce", func(r *Rank) { group(r).Allreduce(OpSum, bufs[r.ID()]) }},
		{"Group.Barrier", func(r *Rank) { group(r).Barrier() }},
	}
	for _, c := range groupCases {
		for i := range groups {
			groups[i] = nil
		}
		if got := worldAllocs(t, c.op); got > 0 {
			t.Errorf("%s: %v allocations per call across 4 ranks, want 0", c.name, got)
		}
	}
}

var scatterSrc [8]float64
