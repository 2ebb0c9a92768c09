package solver_test

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/loadbal"
	"repro/internal/mesh"
	"repro/internal/solver"
)

// TestFacePairing holds the face pairing table to the gather-scatter it
// replaces for in-rank pairs, on layouts that stress it: every in-rank
// id pair of the face ids is exactly one link, point to the same point;
// the rank-boundary faces are the faces the full handle shares with
// another rank; and masking one side of each in-rank pair leaves
// gs.Setup's messages, clocks and rank-boundary topology as they were.
func TestFacePairing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   solver.Config
		ranks int
		remap bool
	}{
		{name: "uniform-2", ranks: 2, cfg: solver.DefaultConfig(2, 4, 2)},
		{name: "one-wide-periodic", ranks: 2, cfg: func() solver.Config {
			// z is one element wide (each element is its own z
			// neighbour), x has domain-boundary faces.
			cfg := solver.DefaultConfig(2, 3, 2)
			cfg.ElemGrid[2] = 1
			cfg.Periodic[0] = false
			return cfg
		}()},
		{name: "one-rank", ranks: 1, cfg: solver.DefaultConfig(1, 3, 3)},
		{name: "loadbal-remap", ranks: 4, cfg: solver.DefaultConfig(4, 3, 2), remap: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full := make([][]int64, tc.ranks)
			masked := make([][]int64, tc.ranks)
			_, err := comm.RunSimple(tc.ranks, func(r *comm.Rank) error {
				s, err := solver.New(r, tc.cfg)
				if err != nil {
					return err
				}
				defer s.Close()
				if tc.remap {
					own, err := hotChain(s.Local.Box, tc.ranks)
					if err != nil {
						return err
					}
					s.Remap(own)
				}
				link, remote, ids := s.FacePairing()
				full[r.ID()], masked[r.ID()] = s.Local.DGFaceIDs(), ids
				shared := remoteShared(gs.Setup(r, full[r.ID()]).Topology())
				if err := checkLinks(tc.cfg.N, full[r.ID()], link); err != nil {
					return fmt.Errorf("rank %d: %w", r.ID(), err)
				}
				if err := checkRemote(tc.cfg.N, shared, link, remote); err != nil {
					return fmt.Errorf("rank %d: %w", r.ID(), err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			fullSetup, maskedSetup := runSetup(t, full), runSetup(t, masked)
			for q := range full {
				if !reflect.DeepEqual(fullSetup.calls[q], maskedSetup.calls[q]) {
					t.Errorf("rank %d: setup calls %v with every id, %v masked", q, fullSetup.calls[q], maskedSetup.calls[q])
				}
				if a, b := fullSetup.clocks[q], maskedSetup.clocks[q]; math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("rank %d: setup clock %v with every id, %v masked", q, a, b)
				}
				want, got := remotePart(fullSetup.topos[q]), maskedSetup.topos[q]
				if len(got.IDs) != len(want.IDs) {
					t.Errorf("rank %d: masked handle holds %d ids, the full one %d rank-boundary ids", q, len(got.IDs), len(want.IDs))
				}
				if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Groups, want.Groups) ||
					!reflect.DeepEqual(got.Neighbors, want.Neighbors) || got.GlobalShared != want.GlobalShared {
					t.Errorf("rank %d: masked topology's rank-boundary part differs from the full one's", q)
				}
			}
		})
	}
}

// hotChain is the ownership the load balancer plans for a box whose
// first rank's elements cost four times the rest: its Morton chain cut
// into p chunks of equal cost.
func hotChain(box *mesh.Box, p int) (*mesh.Ownership, error) {
	cost := make([]float64, box.TotalElems())
	for gid := range cost {
		cost[gid] = 1
	}
	for _, gid := range box.Partition(0).GIDs() {
		cost[gid] = 4
	}
	own, err := mesh.NewOwnership(box, loadbal.ChainPartition(loadbal.MortonOrder(box), cost, p))
	if err == nil && own.IsUniform() {
		err = fmt.Errorf("the hot chain is the uniform split")
	}
	return own, err
}

// checkLinks: every id held twice on the rank is one link between the
// faces holding it, at the same point of both, and there are no other
// links.
func checkLinks(n int, ids []int64, link []int32) error {
	n2 := n * n
	at := map[int64][]int{}
	for i, id := range ids {
		at[id] = append(at[id], i)
	}
	pairs := 0
	for id, idx := range at {
		if len(idx) == 1 {
			continue
		}
		if len(idx) != 2 {
			return fmt.Errorf("id %d held %d times", id, len(idx))
		}
		pairs++
		a, b := idx[0], idx[1]
		if a%n2 != b%n2 || link[a/n2] != int32(b/n2) || link[b/n2] != int32(a/n2) {
			return fmt.Errorf("id %d at points %d and %d, links %d and %d", id, a, b, link[a/n2], link[b/n2])
		}
	}
	links := 0
	for _, l := range link {
		if l >= 0 {
			links++
		}
	}
	if links*n2 != 2*pairs {
		return fmt.Errorf("%d linked faces, %d in-rank id pairs", links, pairs)
	}
	return nil
}

// checkRemote: the rank-boundary faces, in face order, are those whose
// points the full handle shares with another rank, and each links to
// its own entry.
func checkRemote(n int, shared []bool, link, remote []int32) error {
	n2 := n * n
	var want []int32
	for slot := range link {
		face := shared[slot*n2 : (slot+1)*n2]
		for _, sh := range face {
			if sh != face[0] {
				return fmt.Errorf("face %d is partly shared with another rank", slot)
			}
		}
		if face[0] {
			want = append(want, int32(slot))
		}
		if link[slot] == solver.DomainBoundary && face[0] {
			return fmt.Errorf("domain-boundary face %d is shared", slot)
		}
	}
	if !reflect.DeepEqual(remote, want) && len(remote)+len(want) > 0 {
		return fmt.Errorf("rank-boundary faces %v, the handle shares %v", remote, want)
	}
	for k, slot := range remote {
		if link[slot] != ^int32(k) {
			return fmt.Errorf("rank-boundary face %d links %d, want ^%d", slot, link[slot], k)
		}
	}
	return nil
}

// setupRun is what gs.Setup leaves on each rank of a run that does
// nothing else: its topology, its clock and its calls.
type setupRun struct {
	topos  []*gs.Topology
	clocks []float64
	calls  [][]comm.CallStat
}

func runSetup(t *testing.T, ids [][]int64) setupRun {
	t.Helper()
	out := setupRun{topos: make([]*gs.Topology, len(ids)), calls: make([][]comm.CallStat, len(ids))}
	stats, err := comm.RunSimple(len(ids), func(r *comm.Rank) error {
		out.topos[r.ID()] = gs.Setup(r, ids[r.ID()]).Topology()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out.clocks = stats.VirtualTimes
	for q, p := range stats.Profiles {
		for _, c := range p.Calls() {
			c := *c
			c.Wall = 0
			out.calls[q] = append(out.calls[q], c)
		}
		// Calls sorts by wall time; compare in a fixed order.
		slices.SortFunc(out.calls[q], func(a, b comm.CallStat) int {
			return cmp.Or(cmp.Compare(a.Op, b.Op), cmp.Compare(a.Site, b.Site))
		})
	}
	return out
}

// remotePart is t restricted to its ids shared with another rank, the
// neighbours' slot lists renumbered to match.
func remotePart(t *gs.Topology) *gs.Topology {
	out := &gs.Topology{N: t.N, GlobalShared: t.GlobalShared}
	slotOf := make([]int, len(t.IDs))
	for s, id := range t.IDs {
		if t.SharedMask[s] {
			slotOf[s] = len(out.IDs)
			out.IDs = append(out.IDs, id)
			out.Groups = append(out.Groups, t.Groups[s])
			out.SharedMask = append(out.SharedMask, true)
		}
	}
	for _, nb := range t.Neighbors {
		slots := make([]int, len(nb.Slots))
		for i, s := range nb.Slots {
			slots[i] = slotOf[s]
		}
		out.Neighbors = append(out.Neighbors, gs.TopoNeighbor{Rank: nb.Rank, Slots: slots})
	}
	return out
}

// TestCachedTopologyWithInRankPairs: a cached gs topology recorded over
// the unmasked face ids would have the exchange sum in-rank pairs the
// lift sums again, and one recorded over the masked face ids but not
// compacted indexes the whole face array, not the rank-boundary buffers,
// so New refuses both.
func TestCachedTopologyWithInRankPairs(t *testing.T) {
	cfg := solver.DefaultConfig(2, 3, 2)
	box, err := cfg.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	var masked [2][]int64
	if _, err := comm.RunSimple(2, func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		_, _, masked[r.ID()] = s.FacePairing()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ids  func(rank int) []int64
	}{
		{"unmasked", func(rank int) []int64 { return box.Partition(rank).DGFaceIDs() }},
		{"masked but not compacted", func(rank int) []int64 { return masked[rank] }},
	} {
		cfg := cfg
		cfg.GSTopo = make([]*gs.Topology, 2)
		if _, err := comm.RunSimple(2, func(r *comm.Rank) error {
			cfg.GSTopo[r.ID()] = gs.Setup(r, tc.ids(r.ID())).Topology()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		_, err = comm.RunSimple(2, func(r *comm.Rank) error {
			s, err := solver.New(r, cfg)
			if err == nil {
				s.Close()
				return fmt.Errorf("rank %d: New accepted a topology over the %s face ids", r.ID(), tc.name)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// remoteShared marks the vector indices whose id another rank holds: the
// groups of every slot the topology shares with a neighbor.
func remoteShared(t *gs.Topology) []bool {
	out := make([]bool, t.N)
	for _, nb := range t.Neighbors {
		for _, slot := range nb.Slots {
			for _, i := range t.Groups[slot] {
				out[i] = true
			}
		}
	}
	return out
}
