package comm

import "fmt"

// Hierarchy is a two-level node grouping of a communicator's ranks: the
// rank→node map real launchers expose (MPI_COMM_TYPE_SHARED). Each
// node's lowest rank is its leader. Hierarchical collectives reduce and
// broadcast within a node first and run the inter-node phase over the
// leaders only, so each node injects one flow into the fabric per round
// instead of one per rank — the per-node communication structure CMT-nek
// inherits from Nek5000. A communicator runs these collectives exactly
// when Options.Hierarchy is set.
//
// Each phase is one of the flat path's own algorithms (team.go) run
// over a sub-team — the node's members or the node leaders — so a
// hierarchical collective is a composition, not a second copy. That
// makes bit-identity hold by construction: with power-of-two uniform
// node sizes, a power-of-two node count and a block (contiguous)
// rank→node map, the binomial reduce over a node folds exactly the
// pairs of the flat recursive doubling's low rounds, and the leader
// phase is that recursive doubling itself over the high rounds, so
// float results are bit-identical with hierarchy on or off
// (TestHierBitIdenticalPow2, the hier-collectives-vs-flat conformance
// contract, and the hier row of TestOptionMatrixInvariance pin this).
// Other layouts (non-power-of-two nodes, irregular maps) are correct
// but may differ from flat in the last bits of float reductions, and
// nothing refuses them (TestHierCollectivesCorrectIrregular). Integer
// reductions and broadcasts are exact under any layout.
type Hierarchy struct {
	nodeOf  []int   // rank -> node index (dense, 0-based)
	nodes   [][]int // node -> ascending member ranks
	idx     []int   // rank -> position within its node's member list
	leaders []int   // node -> leader rank (lowest member)
	maxNode int     // largest node population
}

// NewHierarchy builds a Hierarchy from a rank→node map. Node labels may
// be any non-negative integers; nodes are ordered by ascending label and
// renumbered densely.
func NewHierarchy(nodeOf []int) (*Hierarchy, error) {
	if len(nodeOf) == 0 {
		return nil, fmt.Errorf("comm: hierarchy needs at least one rank")
	}
	maxLabel := 0
	for r, n := range nodeOf {
		if n < 0 {
			return nil, fmt.Errorf("comm: rank %d has negative node %d", r, n)
		}
		if n > maxLabel {
			maxLabel = n
		}
	}
	dense := make([]int, maxLabel+1)
	for i := range dense {
		dense[i] = -1
	}
	h := &Hierarchy{nodeOf: make([]int, len(nodeOf)), idx: make([]int, len(nodeOf))}
	for label := 0; label <= maxLabel; label++ {
		used := false
		for _, n := range nodeOf {
			if n == label {
				used = true
				break
			}
		}
		if used {
			dense[label] = len(h.nodes)
			h.nodes = append(h.nodes, nil)
		}
	}
	for r, label := range nodeOf {
		n := dense[label]
		h.nodeOf[r] = n
		h.idx[r] = len(h.nodes[n])
		h.nodes[n] = append(h.nodes[n], r)
	}
	for _, mem := range h.nodes {
		h.leaders = append(h.leaders, mem[0])
		if len(mem) > h.maxNode {
			h.maxNode = len(mem)
		}
	}
	return h, nil
}

// BlockHierarchy groups size ranks into contiguous nodes of ranksPerNode
// (the last node takes the remainder) — the block layout mpirun-style
// launchers produce and the layout under which hierarchical and flat
// float reductions are bit-identical for power-of-two shapes.
func BlockHierarchy(size, ranksPerNode int) *Hierarchy {
	if ranksPerNode < 1 {
		ranksPerNode = 1
	}
	nodeOf := make([]int, size)
	for r := range nodeOf {
		nodeOf[r] = r / ranksPerNode
	}
	h, err := NewHierarchy(nodeOf)
	if err != nil {
		panic(err) // unreachable: the block map is always valid
	}
	return h
}

// NumNodes returns the node count.
func (h *Hierarchy) NumNodes() int { return len(h.nodes) }

// NodeOf returns the (dense) node index hosting a rank.
func (h *Hierarchy) NodeOf(rank int) int { return h.nodeOf[rank] }

// Members returns the ascending member ranks of a node.
func (h *Hierarchy) Members(node int) []int {
	return append([]int(nil), h.nodes[node]...)
}

// Leader returns a node's leader (its lowest rank).
func (h *Hierarchy) Leader(node int) int { return h.leaders[node] }

// MaxRanksPerNode returns the largest node population.
func (h *Hierarchy) MaxRanksPerNode() int { return h.maxNode }

// size returns the number of ranks the hierarchy maps.
func (h *Hierarchy) size() int { return len(h.nodeOf) }

// Hierarchical collective tag slots (collTagBase+0..13 are the flat
// collectives, +16.. the hierarchical phases).
const (
	hierTagReduceUp  = collTagBase + 16 // allreduce: intra-node reduce
	hierTagLeader    = collTagBase + 17 // allreduce: inter-leader allreduce
	hierTagBcastDown = collTagBase + 18 // allreduce: intra-node bcast
	hierTagBarUp     = collTagBase + 19 // barrier: intra-node gather
	hierTagBarDissem = collTagBase + 20 // barrier: leader dissemination
	hierTagBarRel    = collTagBase + 21 // barrier: intra-node release
	hierTagBcRoot    = collTagBase + 22 // bcast: root -> node leader
	hierTagBcLeader  = collTagBase + 23 // bcast: inter-leader binomial
	hierTagBcDown    = collTagBase + 24 // bcast: intra-node binomial
	hierTagRedUp     = collTagBase + 25 // reduce: intra-node reduce
	hierTagRedLeader = collTagBase + 26 // reduce: inter-leader binomial
)

// hierOn reports whether collectives take the hierarchical path: exactly
// when the communicator has a Hierarchy.
func (r *Rank) hierOn() bool { return r.comm.hier != nil }

// nodeTeam is the team of r's node, its leader at position 0;
// leaderTeam is the team of node leaders, node i at position i, which
// only a leader joins. Like the flat path's, their receives fail on the
// death of any member of the communicator.
func (h *Hierarchy) nodeTeam(r *Rank) *team {
	mem := h.nodes[h.nodeOf[r.id]]
	return &team{r: r, ranks: mem, n: len(mem), me: h.idx[r.id]}
}

func (h *Hierarchy) leaderTeam(r *Rank) *team {
	return &team{r: r, ranks: h.leaders, n: len(h.leaders), me: h.nodeOf[r.id]}
}

// allreduceHier is the two-level allreduce: binomial intra-node reduce
// onto the node leader, recursive-doubling allreduce across the leaders,
// binomial intra-node broadcast of the result. Each node injects exactly
// one flow per inter-node round (r.flows = 1), which is the modeled win
// over the flat path on a topology-priced network.
func (r *Rank) allreduceHier(op ReduceOp, data []float64, ints []int64) int64 {
	h := r.comm.hier
	node := h.nodeTeam(r)
	r.flows = 1
	_, bytes := node.reduce(op, 0, hierTagReduceUp, data, ints)
	if node.me == 0 {
		bytes += h.leaderTeam(r).allreduce(op, hierTagLeader, data, ints)
	}
	m, down := node.bcast(0, hierTagBcastDown, data, ints)
	if m != nil {
		copy(data, m.data)
		copy(ints, m.ints)
		r.freeRaw(m)
	}
	return bytes + down
}

// barrierHier: intra-node binomial gather onto the leader, dissemination
// barrier across leaders, intra-node binomial release.
func (r *Rank) barrierHier() int64 {
	h := r.comm.hier
	node := h.nodeTeam(r)
	r.flows = 1
	_, bytes := node.reduce(OpSum, 0, hierTagBarUp, nil, nil)
	if node.me == 0 {
		bytes += h.leaderTeam(r).barrier(hierTagBarDissem)
	}
	m, rel := node.bcast(0, hierTagBarRel, nil, nil)
	if m != nil {
		r.freeRaw(m)
	}
	return bytes + rel
}

// bcastHier: the root hands its payload to its node leader, a binomial
// broadcast runs across the leaders (rooted at the root's node), and
// each leader broadcasts binomially within its node. Broadcast moves
// bytes without combining, so it is bit-exact under any layout. It
// returns the message whose payload this rank receives, nil at root.
func (r *Rank) bcastHier(root int, data []float64, ints []int64) (*message, int64) {
	h := r.comm.hier
	node := h.nodeTeam(r)
	rootNode := h.nodeOf[root]
	rootLeader := h.leaders[rootNode]
	var got *message
	var bytes int64
	r.flows = 1

	if root != rootLeader {
		if r.id == root {
			bytes += r.sendRaw(rootLeader, hierTagBcRoot, data, ints)
		} else if r.id == rootLeader {
			got = r.recvRaw(root, hierTagBcRoot)
			data, ints = got.data, got.ints
		}
	}
	if node.me == 0 {
		m, b := h.leaderTeam(r).bcast(rootNode, hierTagBcLeader, data, ints)
		bytes += b
		if m != nil {
			got, data, ints = m, m.data, m.ints
		}
	}
	m, b := node.bcast(0, hierTagBcDown, data, ints)
	bytes += b
	if m != nil {
		got = m
	}
	if r.id == root && got != nil {
		// The blocking Bcast contract: root gets its own slice back.
		r.freeRaw(got)
		got = nil
	}
	return got, bytes
}

// reduceHier: intra-node binomial reduce onto each leader, then a
// binomial reduce across leaders rooted at the root's node. root must be
// a node leader (the collective dispatcher only routes here for root 0,
// which is always the leader of its node); for leader roots under a
// power-of-two block layout the combine tree matches the flat binomial
// reduce exactly. It reports whether this rank holds the result.
func (r *Rank) reduceHier(op ReduceOp, root int, data []float64) (bool, int64) {
	h := r.comm.hier
	rootNode := h.nodeOf[root]
	if root != h.leaders[rootNode] {
		panic(fmt.Sprintf("comm: hierarchical reduce root %d is not a node leader", root))
	}
	r.flows = 1
	held, bytes := h.nodeTeam(r).reduce(op, 0, hierTagRedUp, data, nil)
	if !held {
		return false, bytes
	}
	held, b := h.leaderTeam(r).reduce(op, rootNode, hierTagRedLeader, data, nil)
	return held, bytes + b
}
