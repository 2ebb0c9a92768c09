package loadbal

import (
	"sort"

	"repro/internal/mesh"
	"repro/internal/netmodel"
)

// spread interleaves two zero bits between the low 21 bits of v (the
// classic Morton bit-spreading sequence).
func spread(v uint64) uint64 {
	v &= (1 << 21) - 1
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// mortonKey returns the Z-order curve index of element coordinates
// (x, y, z).
func mortonKey(x, y, z int) uint64 {
	return spread(uint64(x)) | spread(uint64(y))<<1 | spread(uint64(z))<<2
}

// MortonOrder returns every global element id sorted along the Z-order
// (Morton) space-filling curve. Cutting this chain into contiguous
// chunks yields compact, mostly-connected rank subdomains — the standard
// SFC partitioning trick — so face-exchange surface stays near the
// uniform split's even as ownership chases the load.
func MortonOrder(b *mesh.Box) []int64 {
	type ent struct {
		key uint64
		gid int64
	}
	ents := make([]ent, 0, b.TotalElems())
	var g [3]int
	for g[2] = 0; g[2] < b.ElemGrid[2]; g[2]++ {
		for g[1] = 0; g[1] < b.ElemGrid[1]; g[1]++ {
			for g[0] = 0; g[0] < b.ElemGrid[0]; g[0]++ {
				ents = append(ents, ent{mortonKey(g[0], g[1], g[2]), b.GlobalElemID(g)})
			}
		}
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].key != ents[j].key {
			return ents[i].key < ents[j].key
		}
		return ents[i].gid < ents[j].gid
	})
	order := make([]int64, len(ents))
	for i, e := range ents {
		order[i] = e.gid
	}
	return order
}

// ChainPartition cuts the element chain (gids in SFC order) into p
// contiguous chunks of near-equal total cost — the greedy
// chains-on-chains heuristic. cost is indexed by gid. Every rank
// receives at least one element, and an element lands on the side of the
// ideal boundary that leaves the smaller overshoot. All-zero costs fall
// back to equal element counts. Deterministic.
func ChainPartition(order []int64, cost []float64, p int) []int {
	n := len(order)
	owner := make([]int, len(cost))
	total := 0.0
	for _, gid := range order {
		total += cost[gid]
	}
	if total <= 0 {
		for i, gid := range order {
			owner[gid] = i * p / n
		}
		return owner
	}
	acc, r, cnt := 0.0, 0, 0
	for i, gid := range order {
		if r < p-1 && cnt > 0 {
			target := total * float64(r+1) / float64(p)
			if n-i == p-1-r || acc+cost[gid]/2 >= target {
				r++
				cnt = 0
			}
		}
		owner[gid] = r
		cnt++
		acc += cost[gid]
	}
	return owner
}

// Decision is the outcome of one rebalance planning round.
type Decision struct {
	// Rebalance reports whether the plan is worth executing.
	Rebalance bool
	// ImbalanceBefore / ImbalanceAfter are max/mean rank cost under the
	// current and the proposed ownership.
	ImbalanceBefore float64
	ImbalanceAfter  float64
	// GainPerStep is the modeled makespan reduction per step (seconds):
	// max rank cost before minus after.
	GainPerStep float64
	// MigCost is the estimated one-time migration cost in modeled
	// seconds (bottleneck rank of the element Alltoallv).
	MigCost float64
	// MovedElems is the number of elements changing owner globally.
	MovedElems int
	// Owner is the proposed owner per gid (length TotalElems).
	Owner []int
}

// rankCosts sums the per-gid cost vector into per-rank totals under the
// given owner map.
func rankCosts(owner func(gid int64) int, cost []float64, p int) []float64 {
	per := make([]float64, p)
	for gid, c := range cost {
		per[owner(int64(gid))] += c
	}
	return per
}

// imbalance returns max/mean of per-rank costs (1 = perfectly balanced).
func imbalance(per []float64) float64 {
	max, sum := 0.0, 0.0
	for _, c := range per {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 1
	}
	return max * float64(len(per)) / sum
}

// maxOf returns the largest element of per.
func maxOf(per []float64) float64 {
	m := 0.0
	for _, c := range per {
		if c > m {
			m = c
		}
	}
	return m
}

// Plan decides whether and how to repartition. cur is the current
// ownership, cost the globally reduced per-gid cost vector (modeled
// seconds per step), p the number of ranks to partition over (the
// communicator size, below the box's rank count after a crash
// recovery), elemBytes the wire size of one migrated element,
// and model the network used to price the migration Alltoallv. The plan
// rebalances only when the measured imbalance exceeds cfg.Threshold AND
// the makespan gain over cfg.Horizon steps clears the migration cost
// plus cfg.MinGain — a rebalance must pay for itself.
//
// Plan is deterministic; in the distributed loop it runs on the root
// rank only and the decision is broadcast.
func Plan(cur *mesh.Ownership, cost []float64, p, elemBytes int, model netmodel.Model, cfg Config) Decision {
	cfg = cfg.withDefaults()
	b := cur.Box()

	before := rankCosts(cur.Owner, cost, p)
	owner := ChainPartition(MortonOrder(b), cost, p)
	after := rankCosts(func(gid int64) int { return owner[gid] }, cost, p)

	d := Decision{
		ImbalanceBefore: imbalance(before),
		ImbalanceAfter:  imbalance(after),
		GainPerStep:     maxOf(before) - maxOf(after),
		Owner:           owner,
	}

	// Migration traffic per rank: one message per communicating pair,
	// elemBytes per moved element, bottleneck rank pays the epoch.
	outB := make([]float64, p)
	inB := make([]float64, p)
	msgs := make([]int, p)
	pair := make(map[[2]int]bool)
	for gid := range cost {
		src, dst := cur.Owner(int64(gid)), owner[gid]
		if src == dst {
			continue
		}
		d.MovedElems++
		outB[src] += float64(elemBytes)
		inB[dst] += float64(elemBytes)
		if !pair[[2]int{src, dst}] {
			pair[[2]int{src, dst}] = true
			msgs[src]++
			msgs[dst]++
		}
	}
	for r := 0; r < p; r++ {
		c := model.Alpha*float64(msgs[r]) + model.Beta*(outB[r]+inB[r])
		if c > d.MigCost {
			d.MigCost = c
		}
	}

	d.Rebalance = d.MovedElems > 0 &&
		d.ImbalanceBefore > cfg.Threshold &&
		d.GainPerStep*float64(cfg.Horizon) > d.MigCost+cfg.MinGain
	return d
}
