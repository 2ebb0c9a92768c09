package loadbal

import (
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/particles"
	"repro/internal/solver"
)

// gidState keys every element's conserved state by global element id, so
// runs with different partitions compare element-for-element.
type gidState map[int64][solver.NumFields][]float64

func collect(s *solver.Solver) gidState {
	n3 := s.Cfg.N * s.Cfg.N * s.Cfg.N
	out := make(gidState, s.Local.Nel)
	for e := 0; e < s.Local.Nel; e++ {
		var st [solver.NumFields][]float64
		for c := 0; c < solver.NumFields; c++ {
			st[c] = append([]float64(nil), s.U[c][e*n3:(e+1)*n3]...)
		}
		out[s.Local.GID(e)] = st
	}
	return out
}

// hotRank returns a HotElems map making every element of the uniform
// split's given rank cost factor-times more.
func hotRank(t *testing.T, cfg solver.Config, rank int, factor float64) map[int64]float64 {
	t.Helper()
	box, err := cfg.Mesh()
	if err != nil {
		t.Fatal(err)
	}
	hot := make(map[int64]float64)
	for _, gid := range box.Partition(rank).GIDs() {
		hot[gid] = factor
	}
	return hot
}

// runSim runs np ranks for steps timesteps, optionally with a balancer,
// and returns the global element-keyed final state, the modeled
// makespan, and the per-rank balancers (nil entries when lb == nil).
func runSim(t *testing.T, np, steps, workers int, hot map[int64]float64, lb *Config, metrics *obs.Registry) (gidState, float64, []*Balancer) {
	t.Helper()
	cfg := solver.DefaultConfig(np, 5, 2)
	cfg.Workers = workers
	cfg.HotElems = hot
	state := make(gidState)
	var mu sync.Mutex
	bals := make([]*Balancer, np)
	stats, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		var after func(int)
		if lb != nil {
			b := New(s, nil, metrics, *lb)
			bals[r.ID()] = b
			after = b.AfterStep
		}
		s.RunWith(steps, after)
		local := collect(s)
		mu.Lock()
		for gid, st := range local {
			state[gid] = st
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return state, stats.MaxVirtualTime(), bals
}

func requireSameState(t *testing.T, got, want gidState, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: covered %d elements, want %d", label, len(got), len(want))
	}
	for gid, w := range want {
		g, ok := got[gid]
		if !ok {
			t.Fatalf("%s: element %d missing", label, gid)
		}
		for c := 0; c < solver.NumFields; c++ {
			for i, v := range w[c] {
				if math.Float64bits(g[c][i]) != math.Float64bits(v) {
					t.Fatalf("%s: element %d field %d point %d: %x != %x",
						label, gid, c, i, math.Float64bits(g[c][i]), math.Float64bits(v))
				}
			}
		}
	}
}

// TestRebalanceBitIdentical is the subsystem's correctness contract:
// migrating elements mid-run must not change one bit of the solution.
// An 8-rank run with one 4x-hot octant rebalances at least once; the
// final per-element state must equal the never-balanced run exactly.
func TestRebalanceBitIdentical(t *testing.T) {
	const np, steps = 8, 12
	hot := hotRank(t, solver.DefaultConfig(np, 5, 2), 3, 4)

	ref, _, _ := runSim(t, np, steps, 1, hot, nil, nil)
	lb := Config{Every: 2}
	got, _, bals := runSim(t, np, steps, 1, hot, &lb, nil)

	reb := 0
	for _, b := range bals {
		if b.Rebalances > 0 {
			reb++
		}
	}
	if reb != np {
		t.Fatalf("expected every rank to see a rebalance, got %d/%d", reb, np)
	}
	requireSameState(t, got, ref, "loadbal on vs off")
}

// TestMakespanReduction is the acceptance criterion: on a skewed load
// (one rank's elements 4x the cost), dynamic load balancing must cut the
// modeled makespan by at least 25% against the static partition.
func TestMakespanReduction(t *testing.T) {
	const np, steps = 8, 12
	hot := hotRank(t, solver.DefaultConfig(np, 5, 2), 3, 4)

	_, static, _ := runSim(t, np, steps, 1, hot, nil, nil)
	lb := Config{Every: 2}
	reg := obs.NewRegistry()
	_, balanced, bals := runSim(t, np, steps, 1, hot, &lb, reg)

	if bals[0].Rebalances == 0 {
		t.Fatal("balancer never fired on a 4x skew")
	}
	reduction := 1 - balanced/static
	t.Logf("makespan: static %.4gs, loadbal %.4gs (%.1f%% reduction; imbalance %.2f -> %.2f)",
		static, balanced, 100*reduction,
		reg.Gauge("loadbal_imbalance_before").Value(), reg.Gauge("loadbal_imbalance_after").Value())
	if reduction < 0.25 {
		t.Fatalf("makespan reduction %.1f%% < 25%% (static %.4g, balanced %.4g)",
			100*reduction, static, balanced)
	}
	if reg.Counter("loadbal_rebalances").Value() == 0 {
		t.Fatal("loadbal_rebalances metric not incremented")
	}
	if reg.Counter("loadbal_migrated_elems").Value() == 0 {
		t.Fatal("loadbal_migrated_elems metric not incremented")
	}
}

// TestBalancedLoadNeverMigrates: with uniform costs the imbalance stays
// ~1, every epoch must decide to skip, and the state is untouched.
func TestBalancedLoadNeverMigrates(t *testing.T) {
	const np, steps = 8, 8
	ref, _, _ := runSim(t, np, steps, 1, nil, nil, nil)
	lb := Config{Every: 2}
	got, _, bals := runSim(t, np, steps, 1, nil, &lb, nil)
	for r, b := range bals {
		if b.Rebalances != 0 {
			t.Fatalf("rank %d rebalanced %d times on a balanced load", r, b.Rebalances)
		}
		if b.Epochs == 0 || b.Skips != b.Epochs {
			t.Fatalf("rank %d epochs=%d skips=%d", r, b.Epochs, b.Skips)
		}
	}
	requireSameState(t, got, ref, "balanced loadbal vs off")
}

// TestRebalanceUnderWorkers runs the full rebalance path with the
// intra-rank worker pool on — the configuration the race detector
// exercises in CI — and requires bit-identity with the serial run. The
// virtual clock is charged analytically, so the measured costs and thus
// the rebalance decisions are identical at any worker count.
func TestRebalanceUnderWorkers(t *testing.T) {
	const np, steps = 8, 8
	hot := hotRank(t, solver.DefaultConfig(np, 5, 2), 3, 4)
	lb := Config{Every: 2}

	ref, refVT, _ := runSim(t, np, steps, 1, hot, &lb, nil)
	got, vt, bals := runSim(t, np, steps, 3, hot, &lb, nil)
	if bals[0].Rebalances == 0 {
		t.Fatal("balancer never fired under workers")
	}
	if vt != refVT {
		t.Fatalf("modeled makespan %v != serial %v", vt, refVT)
	}
	requireSameState(t, got, ref, "workers=3 vs workers=1")
}

// TestRebalanceWithParticles runs the full loop with a particle cloud
// attached: after rebalances have moved elements off the uniform split,
// every particle must sit on the rank that owns its element under the
// new map, and none may be lost.
func TestRebalanceWithParticles(t *testing.T) {
	const np, steps, perRank = 8, 8, 50
	cfg := solver.DefaultConfig(np, 5, 2)
	cfg.HotElems = hotRank(t, cfg, 3, 4)
	rebalanced := false
	_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		cloud, err := particles.New(s, particles.Config{Tau: 0.5})
		if err != nil {
			return err
		}
		cloud.Seed(perRank, 42)
		b := New(s, cloud, nil, Config{Every: 2, ParticleCost: 1e-7})
		s.RunWith(steps, b.AfterStep)
		if b.Rebalances > 0 && r.ID() == 0 {
			rebalanced = true
		}
		if got := cloud.GlobalCount(); got != np*perRank {
			t.Errorf("rank %d sees %d particles globally, want %d", r.ID(), got, np*perRank)
		}
		// Every local particle must live in a locally owned element.
		own := s.Ownership()
		box := s.Local.Box
		for _, p := range cloud.Particles() {
			var g [3]int
			for d := 0; d < 3; d++ {
				g[d] = int(p.Pos[d])
				if g[d] >= box.ElemGrid[d] {
					g[d] = box.ElemGrid[d] - 1
				}
			}
			if owner := own.Owner(box.GlobalElemID(g)); owner != r.ID() {
				t.Errorf("particle %d at %v lives on rank %d but element belongs to %d",
					p.ID, p.Pos, r.ID(), owner)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rebalanced {
		t.Fatal("balancer never fired with particles attached")
	}
}

// TestGSExchangeOnMigratedTopology forces a maximally scrambled
// partition — round-robin along the Morton chain, every rank's subdomain
// non-contiguous — via a direct Remap, runs more steps on the rebuilt
// gather-scatter topology, and requires bit-identity with the
// uninterrupted run.
func TestGSExchangeOnMigratedTopology(t *testing.T) {
	const np, steps = 8, 6
	cfg := solver.DefaultConfig(np, 5, 2)
	ref, _, _ := runSim(t, np, steps, 1, nil, nil, nil)

	state := make(gidState)
	var mu sync.Mutex
	_, err := comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		s.Run(2)
		box := s.Local.Box
		order := MortonOrder(box)
		owner := make([]int, len(order))
		for i, gid := range order {
			owner[gid] = i % np
		}
		newOwn, err := mesh.NewOwnership(box, owner)
		if err != nil {
			return err
		}
		s.Remap(newOwn)
		s.Run(steps - 2)
		local := collect(s)
		mu.Lock()
		for gid, st := range local {
			state[gid] = st
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, state, ref, "round-robin remap vs uniform")
}
