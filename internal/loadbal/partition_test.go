package loadbal

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/netmodel"
)

func testBox(t *testing.T) *mesh.Box {
	t.Helper()
	b, err := mesh.NewBox([3]int{2, 2, 2}, [3]int{4, 4, 4}, 5, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMortonOrderIsPermutation(t *testing.T) {
	b := testBox(t)
	order := MortonOrder(b)
	if len(order) != b.TotalElems() {
		t.Fatalf("order has %d entries, want %d", len(order), b.TotalElems())
	}
	seen := make(map[int64]bool, len(order))
	for _, gid := range order {
		if gid < 0 || gid >= int64(b.TotalElems()) || seen[gid] {
			t.Fatalf("gid %d out of range or repeated", gid)
		}
		seen[gid] = true
	}
	// The curve should visit spatial neighbors often: consecutive
	// elements at unit Chebyshev distance for the leading octant.
	c0 := elemCoords(b, order[0])
	if c0 != [3]int{0, 0, 0} {
		t.Fatalf("Z-order must start at the origin, got %v", c0)
	}
}

func elemCoords(b *mesh.Box, gid int64) [3]int {
	var g [3]int
	for g[2] = 0; g[2] < b.ElemGrid[2]; g[2]++ {
		for g[1] = 0; g[1] < b.ElemGrid[1]; g[1]++ {
			for g[0] = 0; g[0] < b.ElemGrid[0]; g[0]++ {
				if b.GlobalElemID(g) == gid {
					return g
				}
			}
		}
	}
	return [3]int{-1, -1, -1}
}

func TestChainPartitionBalancesSkewedCosts(t *testing.T) {
	b := testBox(t)
	order := MortonOrder(b)
	cost := make([]float64, b.TotalElems())
	for gid := range cost {
		cost[gid] = 1
	}
	// One hot octant: the uniform owner 3's elements cost 4x.
	for _, gid := range b.Partition(3).GIDs() {
		cost[gid] = 4
	}
	const p = 8
	owner := ChainPartition(order, cost, p)

	per := make([]float64, p)
	count := make([]int, p)
	for gid, c := range cost {
		r := owner[gid]
		if r < 0 || r >= p {
			t.Fatalf("gid %d assigned to rank %d", gid, r)
		}
		per[r] += c
		count[r]++
	}
	for r := 0; r < p; r++ {
		if count[r] == 0 {
			t.Fatalf("rank %d received no elements", r)
		}
	}
	// Chunks must be contiguous along the chain.
	prev := owner[order[0]]
	for _, gid := range order[1:] {
		if owner[gid] < prev {
			t.Fatalf("ownership not monotone along the chain")
		}
		prev = owner[gid]
	}
	if imb := imbalance(per); imb > 1.5 {
		t.Fatalf("greedy partition imbalance %.3f, want <= 1.5 (per-rank %v)", imb, per)
	}
	// Static split imbalance for reference: 4x octant over 8 equal
	// octants = 4 / ((7+4)/8) = 2.9.
	static := rankCosts(b.UniformOwnership().Owner, cost, p)
	if imbalance(static) < 2 {
		t.Fatalf("test setup lost its skew: static imbalance %.3f", imbalance(static))
	}
}

func TestChainPartitionUniformCostsFallback(t *testing.T) {
	b := testBox(t)
	order := MortonOrder(b)
	const p = 8
	for _, cost := range [][]float64{
		make([]float64, b.TotalElems()), // all-zero: count fallback
		func() []float64 {
			c := make([]float64, b.TotalElems())
			for i := range c {
				c[i] = 2.5
			}
			return c
		}(),
	} {
		owner := ChainPartition(order, cost, p)
		count := make([]int, p)
		for _, r := range owner {
			count[r]++
		}
		for r := 0; r < p; r++ {
			if count[r] != b.TotalElems()/p {
				t.Fatalf("uniform costs: rank %d got %d elements, want %d", r, count[r], b.TotalElems()/p)
			}
		}
	}
}

func TestPlanDecision(t *testing.T) {
	b := testBox(t)
	own := b.UniformOwnership()
	cfg := Config{Threshold: 1.2, Every: 5}
	const elemBytes = 8 * (1 + 5*125 + 1)

	balanced := make([]float64, b.TotalElems())
	for i := range balanced {
		balanced[i] = 1e-4
	}
	d := Plan(own, balanced, own.Box().Ranks(), elemBytes, netmodel.QDR, cfg)
	if d.Rebalance {
		t.Fatalf("balanced load must not trigger a rebalance: %+v", d)
	}
	if d.ImbalanceBefore > 1.001 {
		t.Fatalf("balanced imbalance %.3f", d.ImbalanceBefore)
	}

	skewed := append([]float64(nil), balanced...)
	for _, gid := range b.Partition(3).GIDs() {
		skewed[gid] = 4e-4
	}
	d = Plan(own, skewed, own.Box().Ranks(), elemBytes, netmodel.QDR, cfg)
	if !d.Rebalance {
		t.Fatalf("4x skew must trigger a rebalance: %+v", d)
	}
	if d.ImbalanceAfter >= d.ImbalanceBefore {
		t.Fatalf("plan does not improve imbalance: %.3f -> %.3f", d.ImbalanceBefore, d.ImbalanceAfter)
	}
	if d.GainPerStep <= 0 || d.MovedElems == 0 {
		t.Fatalf("degenerate plan: %+v", d)
	}

	// A network so slow the migration never pays must veto the plan.
	glacial := netmodel.Model{Name: "glacial", Alpha: 10, Beta: 1}
	d = Plan(own, skewed, own.Box().Ranks(), elemBytes, glacial, cfg)
	if d.Rebalance {
		t.Fatalf("migration cost veto failed: gain %.3g over %d steps vs cost %.3g",
			d.GainPerStep, cfg.Every, d.MigCost)
	}
}
