package loadbal

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/netmodel"
)

func edgeBox(t *testing.T) *mesh.Box {
	t.Helper()
	b, err := mesh.NewBox([3]int{2, 2, 1}, [3]int{4, 4, 2}, 5, [3]bool{true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

const edgeElemBytes = 5 * 5 * 5 * 5 * 8 // NumFields * N^3 floats

// TestPlanZeroCostElements: a cost vector of all zeros means no
// measurable imbalance (max/mean defined as 1) — the planner must not
// migrate on it.
func TestPlanZeroCostElements(t *testing.T) {
	box := edgeBox(t)
	cur := box.UniformOwnership()
	cost := make([]float64, box.TotalElems())
	d := Plan(cur, cost, cur.Box().Ranks(), edgeElemBytes, netmodel.QDR, Config{})
	if d.ImbalanceBefore != 1 {
		t.Fatalf("zero-cost imbalance = %v, want the defined value 1", d.ImbalanceBefore)
	}
	if d.Rebalance {
		t.Fatal("planner wants to migrate a perfectly cost-free mesh")
	}
	if d.GainPerStep != 0 {
		t.Fatalf("zero-cost gain = %v, want 0", d.GainPerStep)
	}
}

// TestPlanAllCostOnOneElement: when a single element carries all the
// cost, no partition can beat putting it alone — makespan is that
// element's cost wherever it lives, the gain is 0, and migrating gains
// nothing.
func TestPlanAllCostOnOneElement(t *testing.T) {
	box := edgeBox(t)
	cur := box.UniformOwnership()
	cost := make([]float64, box.TotalElems())
	cost[17] = 3.5
	d := Plan(cur, cost, cur.Box().Ranks(), edgeElemBytes, netmodel.QDR, Config{})
	// Imbalance is maximal (max/mean = p), well over any threshold...
	if want := float64(box.Ranks()); d.ImbalanceBefore != want {
		t.Fatalf("one-hot imbalance = %v, want %v", d.ImbalanceBefore, want)
	}
	// ...but the bottleneck is irreducible, so there is nothing to gain.
	if d.GainPerStep != 0 {
		t.Fatalf("one-hot gain per step = %v, want 0", d.GainPerStep)
	}
	if d.Rebalance {
		t.Fatal("planner wants to migrate although the makespan cannot improve")
	}
}

// skewedCost builds a cost vector with a genuine imbalance the chain
// partitioner can fix: rank 0's elements cost 4x the rest.
func skewedCost(box *mesh.Box) []float64 {
	own := box.UniformOwnership()
	cost := make([]float64, box.TotalElems())
	for gid := range cost {
		if own.Owner(int64(gid)) == 0 {
			cost[gid] = 4e-3
		} else {
			cost[gid] = 1e-3
		}
	}
	return cost
}

// TestPlanPayForItselfThreshold brackets the migration break-even point
// from both sides: with MinGain just below the plan's net gain the
// planner migrates; nudged just above, it refuses. This pins the
// pay-for-itself inequality Gain*Horizon > MigCost + MinGain exactly.
func TestPlanPayForItselfThreshold(t *testing.T) {
	box := edgeBox(t)
	cur := box.UniformOwnership()
	cost := skewedCost(box)
	cfg := Config{Threshold: 1.1, Horizon: 10}

	base := Plan(cur, cost, cur.Box().Ranks(), edgeElemBytes, netmodel.QDR, cfg)
	if !base.Rebalance {
		t.Fatalf("skewed scenario does not trigger at all: %+v", base)
	}
	if base.GainPerStep <= 0 || base.MigCost <= 0 {
		t.Fatalf("degenerate plan: gain=%v migCost=%v", base.GainPerStep, base.MigCost)
	}

	// Net headroom the decision currently clears.
	net := base.GainPerStep*float64(cfg.Horizon) - base.MigCost
	eps := net * 1e-9

	cfg.MinGain = net - eps
	if d := Plan(cur, cost, cur.Box().Ranks(), edgeElemBytes, netmodel.QDR, cfg); !d.Rebalance {
		t.Fatalf("MinGain just below break-even (%v) blocked the migration", cfg.MinGain)
	}
	cfg.MinGain = net + eps
	if d := Plan(cur, cost, cur.Box().Ranks(), edgeElemBytes, netmodel.QDR, cfg); d.Rebalance {
		t.Fatalf("MinGain just above break-even (%v) still migrated", cfg.MinGain)
	}
}

// TestPlanHorizonScalesBreakEven: the same imbalance that pays for
// itself over a long horizon must be refused when the partition will
// only live one step and the migration costs more than one step's gain.
func TestPlanHorizonScalesBreakEven(t *testing.T) {
	box := edgeBox(t)
	cur := box.UniformOwnership()
	cost := skewedCost(box)

	long := Plan(cur, cost, cur.Box().Ranks(), edgeElemBytes, netmodel.QDR, Config{Threshold: 1.1, Horizon: 1000})
	if !long.Rebalance {
		t.Fatalf("long horizon refuses a clearly amortizable migration: %+v", long)
	}
	// Price migration up: a slow network makes MigCost exceed one step's
	// gain, so a one-step horizon cannot pay for it.
	slow := netmodel.Model{Name: "slow", Alpha: 1, Beta: 1e-3, GammaCompute: 1}
	short := Plan(cur, cost, cur.Box().Ranks(), edgeElemBytes, slow, Config{Threshold: 1.1, Horizon: 1})
	if short.Rebalance {
		t.Fatalf("one-step horizon on a slow network still migrates: gain=%v mig=%v",
			short.GainPerStep, short.MigCost)
	}
}
