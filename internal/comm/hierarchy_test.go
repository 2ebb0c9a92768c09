package comm

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/netmodel"
)

func TestNewHierarchyDenseRenumbering(t *testing.T) {
	// Sparse labels, interleaved map: ranks 0,2 on node 7; ranks 1,3 on
	// node 3. Labels must renumber densely by ascending label.
	h, err := NewHierarchy([]int{7, 3, 7, 3})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", h.NumNodes())
	}
	if h.NodeOf(1) != 0 || h.NodeOf(0) != 1 {
		t.Fatalf("dense renumbering wrong: nodeOf = %v", h.nodeOf)
	}
	if got := h.Members(0); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("node 0 members %v", got)
	}
	if h.Leader(0) != 1 || h.Leader(1) != 0 {
		t.Fatalf("leaders %v", h.leaders)
	}
	if h.MaxRanksPerNode() != 2 {
		t.Fatalf("MaxRanksPerNode = %d", h.MaxRanksPerNode())
	}
	if _, err := NewHierarchy([]int{0, -1}); err == nil {
		t.Fatal("negative node label accepted")
	}
}

func TestBlockHierarchyShapes(t *testing.T) {
	h := BlockHierarchy(10, 4) // nodes of 4,4,2
	if h.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d", h.NumNodes())
	}
	if got := h.Members(2); !reflect.DeepEqual(got, []int{8, 9}) {
		t.Fatalf("last node %v", got)
	}
	if h.Leader(1) != 4 {
		t.Fatalf("leader of node 1 = %d", h.Leader(1))
	}
	if h.MaxRanksPerNode() != 4 {
		t.Fatalf("MaxRanksPerNode = %d", h.MaxRanksPerNode())
	}
}

// runCollect runs fn under the given options and returns rank 0's result.
func runCollect(t *testing.T, p int, opts Options, fn func(*Rank) []float64) [][]float64 {
	t.Helper()
	out := make([][]float64, p)
	_, err := Run(p, opts, func(r *Rank) error {
		out[r.ID()] = fn(r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Power-of-two block layouts must make every hierarchical collective
// bit-identical to the flat path — the invariant that lets the solver
// switch methods without perturbing physics.
func TestHierBitIdenticalPow2(t *testing.T) {
	const p, rpn = 16, 4
	hierOpts := Options{Hierarchy: BlockHierarchy(p, rpn)}
	for _, op := range []ReduceOp{OpSum, OpProd, OpMin, OpMax} {
		for _, n := range []int{1, 5, 64} {
			flat := runCollect(t, p, Options{}, func(r *Rank) []float64 {
				return r.Allreduce(op, collProbe(r.ID(), n, 0xabc))
			})
			hier := runCollect(t, p, hierOpts, func(r *Rank) []float64 {
				return r.Allreduce(op, collProbe(r.ID(), n, 0xabc))
			})
			for id := range flat {
				for j := range flat[id] {
					if math.Float64bits(flat[id][j]) != math.Float64bits(hier[id][j]) {
						t.Fatalf("op=%v n=%d rank=%d slot %d: flat %x hier %x",
							op, n, id, j, flat[id][j], hier[id][j])
					}
				}
			}
		}
	}
}

// Every hierarchical collective must produce correct results on any
// layout, including non-power-of-two nodes (correctness is layout-free;
// only float bit-identity needs the pow2 shape).
func TestHierCollectivesCorrectIrregular(t *testing.T) {
	const p = 11
	opts := Options{Hierarchy: BlockHierarchy(p, 3)}
	_, err := Run(p, opts, func(r *Rank) error {
		id := r.ID()
		// Allreduce ints: exact under any association.
		ints := r.AllreduceInts(OpSum, []int64{int64(id), 1})
		if ints[0] != int64(p*(p-1))/2 || ints[1] != int64(p) {
			t.Errorf("rank %d: int allreduce got %v", id, ints)
		}
		mx := r.Allreduce(OpMax, []float64{float64(id)})
		if mx[0] != float64(p-1) {
			t.Errorf("rank %d: max got %v", id, mx[0])
		}
		// Bcast from a non-leader root.
		var in []float64
		if id == 4 {
			in = []float64{3.5, -1}
		}
		got := r.Bcast(4, in)
		if !reflect.DeepEqual(got, []float64{3.5, -1}) {
			t.Errorf("rank %d: bcast got %v", id, got)
		}
		var iin []int64
		if id == 7 {
			iin = []int64{9, 8}
		}
		igot := r.BcastInts(7, iin)
		if !reflect.DeepEqual(igot, []int64{9, 8}) {
			t.Errorf("rank %d: bcast ints got %v", id, igot)
		}
		// Reduce onto rank 0 (always a node leader).
		red := r.Reduce(OpSum, 0, []float64{1})
		if id == 0 && red[0] != float64(p) {
			t.Errorf("reduce got %v", red)
		}
		if id != 0 && red != nil {
			t.Errorf("rank %d: non-root reduce got %v", id, red)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A hierarchy built from a topology's node map groups the ranks the way
// the topology hosts them, and the hierarchical collectives run over it.
func TestHierAutoDerivedFromTopology(t *testing.T) {
	topo, err := netmodel.FatTreeCluster(64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(topo.NodeMap())
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != topo.Nodes() || h.MaxRanksPerNode() != topo.RanksPerNode() {
		t.Fatalf("hierarchy %d nodes of <= %d, topology %d nodes of %d",
			h.NumNodes(), h.MaxRanksPerNode(), topo.Nodes(), topo.RanksPerNode())
	}
	for r := 0; r < 64; r++ {
		if h.NodeOf(r) != topo.NodeOf(r) {
			t.Fatalf("rank %d: hierarchy node %d, topology node %d", r, h.NodeOf(r), topo.NodeOf(r))
		}
	}
	model := netmodel.QDR
	model.Topo = topo
	_, err = Run(64, Options{Model: model, Hierarchy: h}, func(r *Rank) error {
		if !r.hierOn() {
			t.Errorf("rank %d: hierarchical collectives off", r.ID())
			return nil
		}
		got := r.AllreduceInts(OpSum, []int64{1})
		if got[0] != 64 {
			t.Errorf("rank %d: allreduce got %d", r.ID(), got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A topology too small for the communicator must be rejected.
func TestTopologyTooSmallRejected(t *testing.T) {
	topo, err := netmodel.FatTreeCluster(16)
	if err != nil {
		t.Fatal(err)
	}
	model := netmodel.Loopback
	model.Topo = topo
	_, err = Run(32, Options{Model: model}, func(r *Rank) error { return nil })
	if err == nil {
		t.Fatal("undersized topology accepted")
	}
}

// Shrinking a hierarchical communicator must drop to flat collectives
// (the survivor set has no guaranteed node layout) and still work.
func TestShrinkDropsHierarchy(t *testing.T) {
	const p = 8
	opts := Options{Hierarchy: BlockHierarchy(p, 4)}
	_, err := Run(p, opts, func(r *Rank) error {
		if r.ID() == 5 {
			r.Kill()
		}
		if _, err := r.AllreduceErr(OpSum, []float64{1}); err == nil {
			t.Errorf("rank %d: allreduce survived member death", r.ID())
			return nil
		}
		sub, err := r.Shrink([]int{0, 1, 2, 3, 4, 6, 7})
		if err != nil {
			return err
		}
		if sub.hierOn() {
			t.Errorf("rank %d: shrunken comm still hierarchical", r.ID())
		}
		got := sub.AllreduceInts(OpSum, []int64{1})
		if got[0] != int64(p-1) {
			t.Errorf("rank %d: shrunken allreduce got %d", r.ID(), got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// collProbe fills a deterministic pseudo-random probe vector: full
// mantissas so any change in floating-point association shows up
// bitwise.
func collProbe(rank, n int, salt uint64) []float64 {
	out := make([]float64, n)
	for i := range out {
		h := uint64(rank+1)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + salt
		h ^= h >> 31
		h *= 0x94d049bb133111eb
		h ^= h >> 29
		// Uniform in [1, 2) with full mantissa entropy, sign-flipped on
		// odd hashes: sums are well-conditioned but association-
		// sensitive in the low bits.
		v := 1 + float64(h>>12)/(1<<52)
		if h&1 != 0 {
			v = -v
		}
		out[i] = v
	}
	return out
}

// collProbeInts fills an integer-valued float probe in [-8, 8): sums of
// up to ~2^49 such values are exact, so any two associations agree
// bitwise — the payload used to cross-check algorithms whose combine
// trees legitimately differ.
func collProbeInts(rank, n int, salt uint64) []float64 {
	out := make([]float64, n)
	for i := range out {
		h := uint64(rank+1)*0xd1342543de82ef95 + uint64(i)*0xaf251af3b0f025b5 + salt
		h ^= h >> 33
		out[i] = float64(int64(h%16) - 8)
	}
	return out
}
