package gs

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/comm"
)

// TopoNeighbor is one sharing neighbor of a Topology: the remote rank and
// the canonical (id-sorted) slot list shared with it.
type TopoNeighbor struct {
	Rank  int
	Slots []int
}

// Topology is the rank-independent result of Setup's discovery phase for
// one rank: everything derived from the id vector and the collective
// generalized all-to-all, detached from the comm.Rank that discovered it.
// It exists so repeated setups over the same mesh partition — the job
// server's setup-artifact cache — can skip the discovery collectives
// entirely: SetupFromTopology rebuilds a fully equivalent handle with no
// communication at all.
type Topology struct {
	// N is the id-vector length Setup saw (Op vector length).
	N int
	// IDs is the active (shared or locally duplicated) id table, ascending.
	IDs []int64
	// Groups lists, per table entry, the local vector indices holding it.
	Groups [][]int
	// SharedMask marks table entries held by at least two ranks.
	SharedMask []bool
	// GlobalShared is the global count of distinct remotely-shared ids
	// (the all_reduce big-vector length).
	GlobalShared int64
	// Neighbors is the per-neighbor slot map, ascending rank order.
	Neighbors []TopoNeighbor
}

// Topology extracts this handle's discovery result as a deep copy, safe
// to reuse after the handle (and its run) are gone: the three index
// classes merged back, by id, into one table. Empty lists are nil.
func (g *GS) Topology() *Topology {
	ix := &g.ix
	n := g.SharedSlots()
	t := &Topology{N: g.n, GlobalShared: g.globalShared}
	if n > 0 {
		t.IDs, t.Groups, t.SharedMask = make([]int64, 0, n), make([][]int, 0, n), make([]bool, 0, n)
	}
	add := func(id int64, shared bool, idx ...int32) {
		grp := make([]int, len(idx))
		for i, v := range idx {
			grp[i] = int(v)
		}
		t.IDs = append(t.IDs, id)
		t.Groups = append(t.Groups, grp)
		t.SharedMask = append(t.SharedMask, shared)
	}
	before := func(id int64, ids []int64, at int) bool { return at == len(ids) || id < ids[at] }
	tableOf := make([]int, len(ix.remID)) // remote slot -> table slot
	for p, l, m := 0, 0, 0; len(t.IDs) < n; {
		switch {
		case p < len(ix.pairID) && before(ix.pairID[p], ix.locID, l) && before(ix.pairID[p], ix.remID, m):
			add(ix.pairID[p], false, ix.pairA[p], ix.pairB[p])
			p++
		case l < len(ix.locID) && before(ix.locID[l], ix.remID, m):
			add(ix.locID[l], false, ix.locIdx[ix.locOff[l]:ix.locOff[l+1]]...)
			l++
		default:
			tableOf[m] = len(t.IDs)
			add(ix.remID[m], true, ix.remIdx[ix.remOff[m]:ix.remOff[m+1]]...)
			m++
		}
	}
	for _, nb := range g.neighbors {
		slots := make([]int, len(nb.slots))
		for j, m := range nb.slots {
			slots[j] = tableOf[m]
		}
		t.Neighbors = append(t.Neighbors, TopoNeighbor{Rank: nb.rank, Slots: slots})
	}
	return t
}

// Validate checks internal consistency against a communicator of p ranks
// and this rank's id; it guards SetupFromTopology against a cache entry
// recorded for a different partition shape.
func (t *Topology) Validate(p, self int) error {
	if t.N < 0 || t.N > math.MaxInt32 {
		return fmt.Errorf("gs: topology vector length %d outside [0, 2^31)", t.N)
	}
	if len(t.Groups) != len(t.IDs) || len(t.SharedMask) != len(t.IDs) {
		return fmt.Errorf("gs: topology table lengths disagree: %d ids, %d groups, %d shared flags",
			len(t.IDs), len(t.Groups), len(t.SharedMask))
	}
	for s, id := range t.IDs {
		if s > 0 && id <= t.IDs[s-1] {
			return fmt.Errorf("gs: topology id table not ascending at slot %d", s)
		}
		if len(t.Groups[s]) == 0 {
			return fmt.Errorf("gs: topology slot %d has no local indices", s)
		}
		for _, idx := range t.Groups[s] {
			if idx < 0 || idx >= t.N {
				return fmt.Errorf("gs: topology slot %d index %d outside vector length %d", s, idx, t.N)
			}
		}
	}
	prev := -1
	for _, nb := range t.Neighbors {
		if nb.Rank < 0 || nb.Rank >= p || nb.Rank == self {
			return fmt.Errorf("gs: topology neighbor rank %d invalid for rank %d of %d", nb.Rank, self, p)
		}
		if nb.Rank <= prev {
			return fmt.Errorf("gs: topology neighbors not in ascending rank order")
		}
		prev = nb.Rank
		if !sort.IntsAreSorted(nb.Slots) {
			return fmt.Errorf("gs: topology neighbor %d slot list not sorted", nb.Rank)
		}
		for _, s := range nb.Slots {
			if s < 0 || s >= len(t.IDs) {
				return fmt.Errorf("gs: topology neighbor %d slot %d outside table", nb.Rank, s)
			}
			if !t.SharedMask[s] {
				return fmt.Errorf("gs: topology neighbor %d slot %d not marked shared", nb.Rank, s)
			}
		}
	}
	return nil
}

// SetupFromTopology builds a gather-scatter handle from a previously
// extracted Topology instead of running the discovery collectives. It is
// NOT collective — no messages are exchanged — which is the point: a
// setup-artifact cache hit makes gs_setup free. The topology must have
// been extracted from a Setup over the same id layout on the same rank
// of an equally sized communicator; Validate enforces the cheap
// invariants, and the exchange itself would detect the rest (slot lists
// are canonical on both sides).
func SetupFromTopology(r *comm.Rank, t *Topology) (*GS, error) {
	if err := t.Validate(r.Size(), r.ID()); err != nil {
		return nil, err
	}
	g := &GS{rank: r, n: t.N, method: Pairwise, globalShared: t.GlobalShared}
	var remOf []int32
	g.ix, remOf = buildIndex(t)
	for _, nb := range t.Neighbors {
		slots := make([]int32, len(nb.Slots))
		for i, s := range nb.Slots {
			slots[i] = remOf[s]
		}
		g.neighbors = append(g.neighbors, neighbor{rank: nb.Rank, slots: slots})
	}
	g.initSites()
	return g, nil
}
