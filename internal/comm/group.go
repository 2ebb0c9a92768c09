package comm

import (
	"fmt"
	"sort"
	"time"
)

// Sub-communicators (MPI_Comm_split): a Group is a subset of the world's
// ranks with its own dense numbering and collective operations. Nek-family
// codes split communicators for row/column exchanges and for I/O
// aggregation; the mini-app exposes the same capability.

// groupTagBase opens a tag space disjoint from both user tags and world
// collective tags; each color gets a 16-tag window.
const groupTagBase = 1 << 26

// maxGroupColor bounds color values so group tag windows stay disjoint.
const maxGroupColor = 1 << 16

// Group is one rank's membership in a split communicator.
type Group struct {
	r       *Rank
	color   int
	members []int // world ranks, ordered by (key, world rank)
	myIdx   int
}

// Split partitions the world communicator by color (MPI_Comm_split):
// ranks passing equal colors form a group, ordered by key (ties broken by
// world rank). Collective over the world communicator. color must be in
// [0, 65536).
func (r *Rank) Split(color, key int) *Group {
	if color < 0 || color >= maxGroupColor {
		panic(fmt.Sprintf("comm: split color %d outside [0, %d)", color, maxGroupColor))
	}
	start := time.Now()
	v0 := r.clock.Now()
	// Learn everyone's (color, key): two integer allgathers.
	colors := make([]int64, r.comm.size)
	keys := make([]int64, r.comm.size)
	colors[r.id], keys[r.id] = int64(color), int64(key)
	r.world().allgather(collTagBase+12, 1, nil, colors)
	r.world().allgather(collTagBase+13, 1, nil, keys)
	type memberKey struct{ key, rank int }
	var mine []memberKey
	for rank, c := range colors {
		if int(c) == color {
			mine = append(mine, memberKey{int(keys[rank]), rank})
		}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].key != mine[j].key {
			return mine[i].key < mine[j].key
		}
		return mine[i].rank < mine[j].rank
	})
	g := &Group{r: r, color: color}
	for idx, m := range mine {
		g.members = append(g.members, m.rank)
		if m.rank == r.id {
			g.myIdx = idx
		}
	}
	r.prof.record("MPI_Comm_split", time.Since(start).Seconds(), r.clock.Now()-v0, 0)
	return g
}

// Size returns the group's rank count.
func (g *Group) Size() int { return len(g.members) }

// ID returns this rank's index within the group.
func (g *Group) ID() int { return g.myIdx }

// WorldRank translates a group index to the world rank.
func (g *Group) WorldRank(idx int) int {
	if idx < 0 || idx >= len(g.members) {
		panic(fmt.Sprintf("comm: group rank %d outside [0,%d)", idx, len(g.members)))
	}
	return g.members[idx]
}

// Members returns the world ranks of the group in group order.
func (g *Group) Members() []int {
	return append([]int(nil), g.members...)
}

// tag returns the group-scoped collective tag for operation slot op.
func (g *Group) tag(op int) int {
	return groupTagBase + g.color*16 + op
}

// Send sends within the group (dst is a group index). It is profiled as
// a world point-to-point send.
func (g *Group) Send(dst, tag int, data []float64) {
	g.r.Send(g.WorldRank(dst), tag, data)
}

// Recv receives within the group (src is a group index, or AnySource).
func (g *Group) Recv(src, tag int) []float64 {
	w := AnySource
	if src != AnySource {
		w = g.WorldRank(src)
	}
	return g.r.Recv(w, tag)
}

// team is the group's members in group order, scoped to them: only a
// member's death fails a group collective.
func (g *Group) team() *team {
	return &team{r: g.r, ranks: g.members, n: len(g.members), me: g.myIdx, scope: g.members}
}

// Barrier blocks until every group member has entered it (dissemination
// over the group's members).
func (g *Group) Barrier() {
	coll := g.r.collStart("MPI_Barrier")
	coll.done(g.team().barrier(g.tag(0)))
}

// Bcast broadcasts from group root (binomial tree over the group).
func (g *Group) Bcast(root int, data []float64) []float64 {
	coll := g.r.collStart("MPI_Bcast")
	m, bytes := g.team().bcast(root, g.tag(1), data, nil)
	coll.done(bytes)
	if m != nil {
		return m.data
	}
	return data
}

// Allreduce combines data across the group (recursive doubling with a
// fold for non-power-of-two group sizes), updating data in place.
func (g *Group) Allreduce(op ReduceOp, data []float64) []float64 {
	coll := g.r.collStart("MPI_Allreduce")
	coll.done(g.team().allreduce(op, g.tag(2), data, nil))
	return data
}

// Allgather concatenates each member's fixed-size contribution in group
// order on every member (ring over the group).
func (g *Group) Allgather(data []float64) []float64 {
	coll := g.r.collStart("MPI_Allgather")
	n := len(data)
	out := make([]float64, n*len(g.members))
	copy(out[g.myIdx*n:], data)
	coll.done(g.team().allgather(g.tag(3), n, out, nil))
	return out
}
