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
// Bit-identity: with power-of-two uniform node sizes, a power-of-two
// node count and a block (contiguous) rank→node map, the hierarchical
// allreduce associates floating-point sums along exactly the same
// combine tree as the flat recursive-doubling path, so results are
// bit-identical with hierarchy on or off (TestHierBitIdenticalPow2, the
// hier-collectives-vs-flat conformance contract, and the hier row of
// TestOptionMatrixInvariance pin this). Other layouts (non-power-of-two
// nodes, irregular maps) are correct but may differ from flat in the
// last bits of float reductions, and nothing refuses them
// (TestHierCollectivesCorrectIrregular). Integer reductions and
// broadcasts are exact under any layout.
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

// allreduceHier is the two-level allreduce: binomial intra-node reduce
// onto the node leader, recursive-doubling allreduce across the leaders,
// binomial intra-node broadcast of the result. Each node injects exactly
// one flow per inter-node round (r.flows = 1), which is the modeled win
// over the flat path on a topology-priced network.
func (r *Rank) allreduceHier(op ReduceOp, data []float64, ints []int64) int64 {
	h := r.comm.hier
	node := h.nodeOf[r.id]
	mem := h.nodes[node]
	idx := h.idx[r.id]
	nm := len(mem)
	var bytes int64
	r.flows = 1

	// Intra-node binomial reduce onto mem[0]. The combine order matches
	// the low rounds of flat recursive doubling under a block map.
	for mask := 1; mask < nm; mask <<= 1 {
		if idx&mask != 0 {
			bytes += r.sendRaw(mem[idx-mask], hierTagReduceUp, data, ints)
			break
		}
		if idx+mask < nm {
			r.combineFrom(op, data, ints, r.recvRaw(mem[idx+mask], hierTagReduceUp))
		}
	}

	if idx == 0 {
		bytes += r.allreduceMembers(op, data, ints, h.leaders, node, hierTagLeader)
	}

	// Intra-node binomial broadcast of the reduced result (MPICH shape).
	mask := 1
	for mask < nm {
		if idx&mask != 0 {
			m := r.recvRaw(mem[idx-mask], hierTagBcastDown)
			if data != nil {
				copy(data, m.data)
			}
			if ints != nil {
				copy(ints, m.ints)
			}
			r.freeRaw(m)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if idx+mask < nm {
			bytes += r.sendRaw(mem[idx+mask], hierTagBcastDown, data, ints)
		}
	}
	return bytes
}

// allreduceMembers is recursive-doubling allreduce (with the
// non-power-of-two fold) over an explicit member list; idx is this
// rank's position in it. It mirrors allreduceRaw but addresses members.
func (r *Rank) allreduceMembers(op ReduceOp, data []float64, ints []int64, members []int, idx, tag int) int64 {
	p := len(members)
	var bytes int64
	p2 := 1
	for p2*2 <= p {
		p2 *= 2
	}
	rem := p - p2
	if idx >= p2 {
		bytes += r.sendRaw(members[idx-p2], tag, data, ints)
		m := r.recvRaw(members[idx-p2], tag)
		if data != nil {
			copy(data, m.data)
		}
		if ints != nil {
			copy(ints, m.ints)
		}
		r.freeRaw(m)
		return bytes
	}
	if idx < rem {
		r.combineFrom(op, data, ints, r.recvRaw(members[idx+p2], tag))
	}
	for mask := 1; mask < p2; mask <<= 1 {
		partner := members[idx^mask]
		bytes += r.sendRaw(partner, tag, data, ints)
		r.combineFrom(op, data, ints, r.recvRaw(partner, tag))
	}
	if idx < rem {
		bytes += r.sendRaw(members[idx+p2], tag, data, ints)
	}
	return bytes
}

// barrierHier: intra-node binomial gather onto the leader, dissemination
// barrier across leaders, intra-node binomial release.
func (r *Rank) barrierHier() int64 {
	h := r.comm.hier
	node := h.nodeOf[r.id]
	mem := h.nodes[node]
	idx := h.idx[r.id]
	nm := len(mem)
	var bytes int64
	r.flows = 1

	for mask := 1; mask < nm; mask <<= 1 {
		if idx&mask != 0 {
			bytes += r.sendRaw(mem[idx-mask], hierTagBarUp, nil, nil)
			break
		}
		if idx+mask < nm {
			r.freeRaw(r.recvRaw(mem[idx+mask], hierTagBarUp))
		}
	}

	if idx == 0 {
		nl := len(h.leaders)
		for k := 1; k < nl; k <<= 1 {
			bytes += r.sendRaw(h.leaders[(node+k)%nl], hierTagBarDissem, nil, nil)
			r.freeRaw(r.recvRaw(h.leaders[(node-k%nl+nl)%nl], hierTagBarDissem))
		}
	}

	mask := 1
	for mask < nm {
		if idx&mask != 0 {
			r.freeRaw(r.recvRaw(mem[idx-mask], hierTagBarRel))
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if idx+mask < nm {
			bytes += r.sendRaw(mem[idx+mask], hierTagBarRel, nil, nil)
		}
	}
	return bytes
}

// bcastHier: the root hands its payload to its node leader, a binomial
// broadcast runs across the leaders (rooted at the root's node), and
// each leader broadcasts binomially within its node. Broadcast moves
// bytes without combining, so it is bit-exact under any layout.
func (r *Rank) bcastHier(root int, data []float64, ints []int64) ([]float64, []int64, int64) {
	h := r.comm.hier
	node := h.nodeOf[r.id]
	mem := h.nodes[node]
	idx := h.idx[r.id]
	nm := len(mem)
	rootNode := h.nodeOf[root]
	rootLeader := h.leaders[rootNode]
	origData, origInts := data, ints
	var bytes int64
	r.flows = 1

	if root != rootLeader {
		if r.id == root {
			bytes += r.sendRaw(rootLeader, hierTagBcRoot, data, ints)
		} else if r.id == rootLeader {
			m := r.recvRaw(root, hierTagBcRoot)
			data, ints = m.data, m.ints
		}
	}

	if idx == 0 {
		nl := len(h.leaders)
		vr := (node - rootNode + nl) % nl
		mask := 1
		for mask < nl {
			if vr&mask != 0 {
				m := r.recvRaw(h.leaders[(node-mask+nl)%nl], hierTagBcLeader)
				data, ints = m.data, m.ints
				break
			}
			mask <<= 1
		}
		for mask >>= 1; mask > 0; mask >>= 1 {
			if vr+mask < nl {
				bytes += r.sendRaw(h.leaders[(node+mask)%nl], hierTagBcLeader, data, ints)
			}
		}
	}

	mask := 1
	for mask < nm {
		if idx&mask != 0 {
			m := r.recvRaw(mem[idx-mask], hierTagBcDown)
			data, ints = m.data, m.ints
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if idx+mask < nm {
			bytes += r.sendRaw(mem[idx+mask], hierTagBcDown, data, ints)
		}
	}
	if r.id == root {
		// The blocking Bcast contract: root gets its own slice back.
		return origData, origInts, bytes
	}
	return data, ints, bytes
}

// reduceHier: intra-node binomial reduce onto each leader, then a
// binomial reduce across leaders rooted at the root's node. root must be
// a node leader (the collective dispatcher only routes here for root 0,
// which is always the leader of its node); for leader roots under a
// power-of-two block layout the combine tree matches the flat binomial
// reduce exactly.
func (r *Rank) reduceHier(op ReduceOp, root int, data []float64) ([]float64, int64) {
	h := r.comm.hier
	node := h.nodeOf[r.id]
	mem := h.nodes[node]
	idx := h.idx[r.id]
	nm := len(mem)
	rootNode := h.nodeOf[root]
	if root != h.leaders[rootNode] {
		panic(fmt.Sprintf("comm: hierarchical reduce root %d is not a node leader", root))
	}
	var bytes int64
	r.flows = 1

	for mask := 1; mask < nm; mask <<= 1 {
		if idx&mask != 0 {
			bytes += r.sendRaw(mem[idx-mask], hierTagRedUp, data, nil)
			return nil, bytes
		}
		if idx+mask < nm {
			m := r.recvRaw(mem[idx+mask], hierTagRedUp)
			op.combine(data, m.data)
			r.freeRaw(m)
		}
	}

	// Leaders: binomial reduce rooted at the root's node leader.
	nl := len(h.leaders)
	vr := (node - rootNode + nl) % nl
	for mask := 1; mask < nl; mask <<= 1 {
		if vr&mask != 0 {
			bytes += r.sendRaw(h.leaders[(node-mask+nl)%nl], hierTagRedLeader, data, nil)
			return nil, bytes
		}
		if vr+mask < nl {
			m := r.recvRaw(h.leaders[(node+mask)%nl], hierTagRedLeader)
			op.combine(data, m.data)
			r.freeRaw(m)
		}
	}
	return data, bytes
}
