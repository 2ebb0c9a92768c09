package gs

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
)

// discover runs Setup's discovery and returns its result as the
// Topology the handle exports, the form discoverRef builds.
func discover(r *comm.Rank, ids []int64) *Topology { return Setup(r, ids).Topology() }

// discoverRef is the map-based discovery that discover replaced, kept
// as the oracle: the same messages in the same order, and the same
// Topology, built from one map per grouping and comparison sorts.
func discoverRef(r *comm.Rank, ids []int64) *Topology {
	t := &Topology{N: len(ids)}

	byID := map[int64][]int{}
	for i, id := range ids {
		if id >= 0 {
			byID[id] = append(byID[id], i)
		}
	}
	distinct := make([]int64, 0, len(byID))
	for id := range byID {
		distinct = append(distinct, id)
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })

	p := r.Size()
	owner := func(id int64) int { return int(id % int64(p)) }

	sendCounts := make([]int, p)
	for _, id := range distinct {
		sendCounts[owner(id)]++
	}
	sendIDs := make([]int64, 0, len(distinct))
	for dst := 0; dst < p; dst++ {
		for _, id := range distinct {
			if owner(id) == dst {
				sendIDs = append(sendIDs, id)
			}
		}
	}
	recvIDs, recvCounts := r.AlltoallvInts(sendIDs, sendCounts)

	holders := map[int64][]int{}
	off := 0
	for src := 0; src < p; src++ {
		for k := 0; k < recvCounts[src]; k++ {
			id := recvIDs[off+k]
			holders[id] = append(holders[id], src)
		}
		off += recvCounts[src]
	}
	replyCounts := make([]int, p)
	type sharedEntry struct {
		id    int64
		ranks []int
	}
	var shared []sharedEntry
	for id, rs := range holders {
		if len(rs) >= 2 {
			shared = append(shared, sharedEntry{id, rs})
		}
	}
	sort.Slice(shared, func(i, j int) bool { return shared[i].id < shared[j].id })
	for _, s := range shared {
		entryLen := 2 + len(s.ranks)
		for _, dst := range s.ranks {
			replyCounts[dst] += entryLen
		}
	}
	replyOffs := make([]int, p+1)
	for i, c := range replyCounts {
		replyOffs[i+1] = replyOffs[i] + c
	}
	reply := make([]int64, replyOffs[p])
	cursor := append([]int(nil), replyOffs[:p]...)
	for _, s := range shared {
		for _, dst := range s.ranks {
			c := cursor[dst]
			reply[c] = s.id
			reply[c+1] = int64(len(s.ranks))
			for k, rr := range s.ranks {
				reply[c+2+k] = int64(rr)
			}
			cursor[dst] = c + 2 + len(s.ranks)
		}
	}
	gotReply, _ := r.AlltoallvInts(reply, replyCounts)

	remote := map[int64][]int{}
	for i := 0; i < len(gotReply); {
		id := gotReply[i]
		m := int(gotReply[i+1])
		for k := 0; k < m; k++ {
			q := int(gotReply[i+2+k])
			if q != r.ID() {
				remote[id] = append(remote[id], q)
			}
		}
		i += 2 + m
	}

	for _, id := range distinct {
		if len(remote[id]) > 0 || len(byID[id]) > 1 {
			t.IDs = append(t.IDs, id)
			t.Groups = append(t.Groups, byID[id])
			t.SharedMask = append(t.SharedMask, len(remote[id]) > 0)
		}
	}

	counts := r.AllreduceInts(comm.OpSum, []int64{int64(len(shared))})
	t.GlobalShared = counts[0]

	nbSlots := map[int][]int{}
	for s, id := range t.IDs {
		for _, q := range remote[id] {
			nbSlots[q] = append(nbSlots[q], s)
		}
	}
	ranks := make([]int, 0, len(nbSlots))
	for q := range nbSlots {
		ranks = append(ranks, q)
	}
	sort.Ints(ranks)
	for _, q := range ranks {
		t.Neighbors = append(t.Neighbors, TopoNeighbor{Rank: q, Slots: nbSlots[q]})
	}
	return t
}

// discovered is one rank's discovery result plus what its messages did
// to the rank: the modeled clock and the payload bytes sent, which equal
// the reference's only if every message has the same size, order and
// destination.
type discovered struct {
	Topo *Topology
	Now  float64
	Sent int64
}

func runDiscover(t testing.TB, layout [][]int64, disc func(*comm.Rank, []int64) *Topology) []discovered {
	t.Helper()
	out := make([]discovered, len(layout))
	_, err := comm.RunSimple(len(layout), func(r *comm.Rank) error {
		topo := disc(r, layout[r.ID()])
		out[r.ID()] = discovered{topo, r.Clock().Now(), r.Profile().Totals().BytesSent}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkDiscover fails unless discover and discoverRef agree on every
// rank of layout.
func checkDiscover(t testing.TB, layout [][]int64) {
	t.Helper()
	want := runDiscover(t, layout, discoverRef)
	got := runDiscover(t, layout, discover)
	for q := range want {
		if !reflect.DeepEqual(got[q], want[q]) {
			t.Fatalf("rank %d of %d: discover\n  got  %+v %+v\n  want %+v %+v",
				q, len(layout), got[q], *got[q].Topo, want[q], *want[q].Topo)
		}
	}
}

// randomLayout spreads nIDs global ids drawn from [base, base+idMax)
// over p ranks, each id held by 1 to maxMult occurrences on random ranks
// (repeats on one rank included), and laces in negative ids.
func randomLayout(rng *rand.Rand, p, nIDs, maxMult int, base, idMax int64) [][]int64 {
	layout := make([][]int64, p)
	for k := 0; k < nIDs; k++ {
		id := base + rng.Int63n(idMax)
		for c := 1 + rng.Intn(maxMult); c > 0; c-- {
			q := rng.Intn(p)
			layout[q] = append(layout[q], id)
		}
	}
	for q := range layout {
		for k := rng.Intn(4); k > 0; k-- {
			layout[q] = append(layout[q], -1-rng.Int63n(1<<40))
		}
		rng.Shuffle(len(layout[q]), func(i, j int) { layout[q][i], layout[q][j] = layout[q][j], layout[q][i] })
	}
	return layout
}

// boxLayouts returns the DG face and continuous id vectors of a small
// periodic box over p ranks.
func boxLayouts(t testing.TB, p, n, elemsPerDir int) (dg, cont [][]int64) {
	t.Helper()
	pg := comm.FactorGrid(p)
	box, err := mesh.NewBox(pg, [3]int{pg[0] * elemsPerDir, pg[1] * elemsPerDir, pg[2] * elemsPerDir}, n, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < p; q++ {
		l := box.Partition(q)
		dg = append(dg, l.DGFaceIDs())
		cont = append(cont, l.ContinuousIDs())
	}
	return dg, cont
}

// TestDiscoverMatchesReference holds the radix-sort discovery to the
// map-based one: equal Topology values on every rank, and equal modeled
// clocks and bytes sent, over edge-case, random and mesh layouts.
func TestDiscoverMatchesReference(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("p=%d/empty", p), func(t *testing.T) {
			checkDiscover(t, make([][]int64, p))
		})
		t.Run(fmt.Sprintf("p=%d/negative", p), func(t *testing.T) {
			layout := make([][]int64, p)
			for q := range layout {
				layout[q] = []int64{-1, -2, -1 << 40, -1}
			}
			checkDiscover(t, layout)
		})
		t.Run(fmt.Sprintf("p=%d/random", p), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(p)))
			scales := []struct{ base, max int64 }{
				{0, 16},              // dense: many ids on many ranks
				{0, 200},             // one radix pass
				{0, 1 << 20},         // three passes, few collisions
				{1 << 32, 64},        // five passes, every high digit shared
				{1<<40 - 1000, 3000}, // carries across a digit boundary
				{0, 1 << 62},         // eight passes
			}
			for trial := 0; trial < 40; trial++ {
				sc := scales[trial%len(scales)]
				checkDiscover(t, randomLayout(rng, p, rng.Intn(300), 1+trial%8, sc.base, sc.max))
			}
		})
		t.Run(fmt.Sprintf("p=%d/box", p), func(t *testing.T) {
			dg, cont := boxLayouts(t, p, 3, 2)
			checkDiscover(t, dg)
			checkDiscover(t, cont)
		})
	}
}

// FuzzDiscover checks discover against discoverRef on a fuzzed id
// vector dealt round-robin to three ranks: two bytes per id, read as a
// signed 16-bit value, with the non-negative ones shifted left by shift
// mod 48 so that they span several radix digits.
func FuzzDiscover(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 0xff, 0xff}, uint8(0))
	f.Add([]byte{7, 0, 9, 1, 7, 0, 9, 1, 3, 0, 3, 0, 3, 0}, uint8(33))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		const p = 3
		layout := make([][]int64, p)
		for i := 0; i+1 < len(data); i += 2 {
			id := int64(int16(binary.LittleEndian.Uint16(data[i:])))
			if id >= 0 {
				id <<= shift % 48
			}
			layout[i/2%p] = append(layout[i/2%p], id)
		}
		checkDiscover(t, layout)
	})
}

// TestSetupAllocs pins the allocations and the bytes of one gs.Setup on
// the compute.n10 layout (two ranks, N = 10, 4 × 4 × 4 elements per rank,
// DG face ids), as TestStepAllocs pins the step: discovery groups ids by
// sorting flat arrays, so its count does not grow with the id count.
// The map-based discovery made 62 861 allocations per rank here and the
// key-and-value radix sort 56 allocations and 4.46 MB; sorting int32
// positions and building the index without a Topology made 46 to 48
// allocations and 1.79 MB; with the alltoalls sending straight from the
// caller's buffer and recycling what they received, 39 to 41 and 1.49 to
// 1.54 MB. Both ceilings are the most measured plus 10 %.
func TestSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on paths the plain build does not")
	}
	const p, ceiling, bytesCeiling = 2, 45, 1_694_000
	ids, _ := boxLayouts(t, p, 10, 4)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var mallocs, bytes atomic.Uint64
	_, err := comm.RunSimple(p, func(r *comm.Rank) error {
		Setup(r, ids[r.ID()]) // first use grows the ranks' comm state
		r.Barrier()
		var m0, m1 runtime.MemStats
		if r.ID() == 0 {
			runtime.ReadMemStats(&m0)
		}
		r.Barrier()
		Setup(r, ids[r.ID()])
		r.Barrier()
		if r.ID() == 0 {
			runtime.ReadMemStats(&m1)
			mallocs.Store(m1.Mallocs - m0.Mallocs)
			bytes.Store(m1.TotalAlloc - m0.TotalAlloc)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	perRank, bytesPerRank := mallocs.Load()/p, bytes.Load()/p
	t.Logf("gs.Setup: %d allocations, %d bytes per rank", perRank, bytesPerRank)
	if perRank > ceiling {
		t.Errorf("gs.Setup made %d allocations per rank, ceiling %d", perRank, ceiling)
	}
	if bytesPerRank > bytesCeiling {
		t.Errorf("gs.Setup allocated %d bytes per rank, ceiling %d", bytesPerRank, bytesCeiling)
	}
}

// BenchmarkSetup times one collective gs.Setup on the compute.n10 layout
// (two ranks, as TestSetupAllocs); B/op and allocs/op are both ranks'.
func BenchmarkSetup(b *testing.B) {
	ids, _ := boxLayouts(b, 2, 10, 4)
	b.ReportAllocs()
	_, err := comm.RunSimple(2, func(r *comm.Rank) error {
		Setup(r, ids[r.ID()])
		r.Barrier()
		if r.ID() == 0 {
			b.ResetTimer()
		}
		r.Barrier()
		for i := 0; i < b.N; i++ {
			Setup(r, ids[r.ID()])
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
