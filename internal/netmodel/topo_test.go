package netmodel

import (
	"math"
	"testing"
)

// flatEquivFatTree builds a fat-tree whose route pricing should collapse
// to the flat model m for every pair: intra-node pricing equals the flat
// pair, NIC links carry half the latency each, spine traversals are
// free, every link runs at the flat Beta, and full bisection keeps all
// concurrency shares at 1.
func flatEquivFatTree(t *testing.T, m Model) *Topology {
	t.Helper()
	topo, err := FatTree(FatTreeConfig{
		RanksPerNode: 4, NodesPerLeaf: 8, Leaves: 4, Oversub: 1,
		IntraAlpha: m.Alpha, IntraBeta: m.Beta,
		LinkAlpha: m.Alpha / 2, LinkBeta: m.Beta,
		SpineAlpha: 0, SpineBeta: m.Beta,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// A zero-congestion fat-tree with matched parameters must price every
// pair exactly like the flat alpha-beta model (bitwise: the hierarchy
// layer relies on topology pricing degrading gracefully).
func TestFatTreeZeroCongestionReducesToFlat(t *testing.T) {
	m := QDR
	m.SwitchHops = 0
	topo := flatEquivFatTree(t, m)
	for _, size := range []int{0, 8, 512, 65536} {
		want := m.Cost(size, 1)
		wantOver := m.Alpha + m.InjectionFactor*m.Beta*float64(size)
		for _, pair := range [][2]int{{0, 1}, {0, 5}, {3, 17}, {0, 127}, {40, 90}} {
			cost, over, _ := topo.PairCost(pair[0], pair[1], size, m.InjectionFactor, 1)
			if math.Float64bits(cost) != math.Float64bits(want) {
				t.Errorf("pair %v size %d: topo cost %.12e, flat %.12e", pair, size, cost, want)
			}
			if math.Float64bits(over) != math.Float64bits(wantOver) {
				t.Errorf("pair %v size %d: topo overhead %.12e, flat %.12e", pair, size, over, wantOver)
			}
		}
	}
}

// Pricing must be monotone in the background offered load, for every
// route class and concurrency level.
func TestCongestionMonotoneInLoad(t *testing.T) {
	topo, err := FatTreeCluster(512)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int{
		{0, 1},   // intra-node
		{0, 17},  // same leaf, different node
		{0, 300}, // cross-leaf
	}
	for _, flows := range []int{1, 4, 16} {
		for _, pair := range pairs {
			prev := -1.0
			for load := 0.0; load <= 1.0; load += 0.125 {
				topo.SetBackgroundLoad(load)
				cost, _, _ := topo.PairCost(pair[0], pair[1], 4096, 0, flows)
				if cost < prev {
					t.Fatalf("pair %v flows %d: cost decreased from %.3e to %.3e at load %.3f",
						pair, flows, prev, cost, load)
				}
				prev = cost
			}
		}
	}
	topo.SetBackgroundLoad(0)
}

// Declared sender concurrency must never make a message cheaper, and
// oversubscribed links must get strictly more expensive once declared
// flows exceed the width.
func TestConcurrencyMonotone(t *testing.T) {
	topo, err := FatTreeCluster(512) // 2:1 oversubscribed uplinks
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, flows := range []int{1, 2, 4, 8, 16} {
		cost, _, _ := topo.PairCost(0, 300, 4096, 0, flows)
		if cost < prev {
			t.Fatalf("flows %d: cross-leaf cost decreased %.3e -> %.3e", flows, prev, cost)
		}
		prev = cost
	}
	lone, _, _ := topo.PairCost(0, 300, 65536, 0, 1)
	full, _, _ := topo.PairCost(0, 300, 65536, 0, 16)
	if full <= lone {
		t.Fatalf("16 concurrent node flows priced %.3e, not above lone flow %.3e", full, lone)
	}
}

func TestFatTreeRouteCounts(t *testing.T) {
	topo, err := FatTree(FatTreeConfig{
		RanksPerNode: 2, NodesPerLeaf: 2, Leaves: 2,
		LinkAlpha: 1e-6, LinkBeta: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ src, dst, want int }{
		{0, 1, 0}, // same node
		{0, 2, 2}, // same leaf: nic up + nic down
		{0, 4, 4}, // cross leaf: + leaf up + leaf down
		{3, 7, 4},
	}
	for _, c := range cases {
		if got := topo.MinRouteLinks(c.src, c.dst); got != c.want {
			t.Errorf("route %d->%d: %d links, want %d", c.src, c.dst, got, c.want)
		}
	}
}

// Hand-computed minimal-route link counts for a 2-group dragonfly:
// rpn=2, 2 nodes/router, 2 routers/group. Ranks 0..7 are group 0
// (routers 0,1), ranks 8..15 group 1 (routers 2,3).
func TestDragonflyMinRouteCounts(t *testing.T) {
	topo, err := Dragonfly(DragonflyConfig{
		RanksPerNode: 2, NodesPerRouter: 2, RoutersPerGroup: 2, Groups: 2,
		LinkAlpha: 1e-6, LinkBeta: 1e-9, LocalAlpha: 1e-6, LocalBeta: 1e-9,
		GlobalAlpha: 2e-6, GlobalBeta: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Ranks() != 16 {
		t.Fatalf("ranks = %d, want 16", topo.Ranks())
	}
	cases := []struct {
		name           string
		src, dst, want int
	}{
		{"same node", 0, 1, 0},
		{"same router", 0, 2, 2},              // nic up + nic down
		{"same group, other router", 0, 4, 3}, // + one local hop
		// Cross-group aligned: src on its group's gateway router for
		// group 1 (gw = 1%2 = 1, nodes 2,3 → ranks 4..7), dst on group
		// 1's receiving gateway (gw = 0%2 = 0, nodes 8,9 → ranks 8..11):
		// nic up + global + nic down.
		{"cross group via gateways", 4, 8, 3},
		// General cross-group: both endpoints off-gateway adds two
		// local hops: nic, local, global, local, nic.
		{"cross group general", 0, 12, 5},
	}
	for _, c := range cases {
		if got := topo.MinRouteLinks(c.src, c.dst); got != c.want {
			t.Errorf("%s (%d->%d): %d links, want %d", c.name, c.src, c.dst, got, c.want)
		}
	}
}

func TestReplayDeterministicAndMonotone(t *testing.T) {
	topo, err := FatTreeCluster(512)
	if err != nil {
		t.Fatal(err)
	}
	flows := []Flow{
		{Src: 0, Dst: 300, Bytes: 4096, Start: 0},
		{Src: 1, Dst: 301, Bytes: 4096, Start: 0},
		{Src: 2, Dst: 302, Bytes: 4096, Start: 1e-6},
		{Src: 17, Dst: 18, Bytes: 128, Start: 0},
		{Src: 5, Dst: 6, Bytes: 64, Start: 2e-6}, // intra-node
	}
	a := topo.ReplayCongestion(flows)
	b := topo.ReplayCongestion(flows)
	if a.Makespan != b.Makespan || a.QueueTotal != b.QueueTotal || len(a.Links) != len(b.Links) {
		t.Fatalf("replay not deterministic: %+v vs %+v", a, b)
	}

	// Adding flows must never shrink the replayed makespan or queueing.
	more := append(append([]Flow(nil), flows...),
		Flow{Src: 3, Dst: 303, Bytes: 8192, Start: 0},
		Flow{Src: 4, Dst: 304, Bytes: 8192, Start: 0},
	)
	c := topo.ReplayCongestion(more)
	if c.Makespan < a.Makespan {
		t.Fatalf("superset makespan %.3e < subset %.3e", c.Makespan, a.Makespan)
	}
	if c.QueueTotal < a.QueueTotal {
		t.Fatalf("superset queue %.3e < subset %.3e", c.QueueTotal, a.QueueTotal)
	}

	// Flows 0 and 1 leave the same node at the same instant: the shared
	// NIC-up link must have queued one of them.
	queued := false
	for _, l := range a.Links {
		if l.Queue > 0 {
			queued = true
		}
	}
	if !queued {
		t.Fatal("concurrent same-node flows produced no queueing")
	}
}

// The preset cluster builders must produce the shapes the scaling study
// and its committed baseline rely on, up to and beyond 10k ranks.
func TestClusterBuilders(t *testing.T) {
	for _, ranks := range []int{64, 256, 1024, 4096, 16384} {
		ft, err := FatTreeCluster(ranks)
		if err != nil {
			t.Fatalf("FatTreeCluster(%d): %v", ranks, err)
		}
		if ft.Ranks() != ranks {
			t.Fatalf("FatTreeCluster(%d) hosts %d ranks", ranks, ft.Ranks())
		}
		df, err := DragonflyCluster(ranks)
		if err != nil {
			t.Fatalf("DragonflyCluster(%d): %v", ranks, err)
		}
		if df.Ranks() != ranks {
			t.Fatalf("DragonflyCluster(%d) hosts %d ranks", ranks, df.Ranks())
		}
	}
}
