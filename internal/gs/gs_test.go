package gs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/comm"
)

// serialGS is an independent reference: combine values sharing an id
// across all ranks and write back.
func serialGS(ids [][]int64, values [][]float64, op comm.ReduceOp) [][]float64 {
	acc := map[int64]float64{}
	seen := map[int64]bool{}
	for r := range ids {
		for i, id := range ids[r] {
			if id < 0 {
				continue
			}
			if !seen[id] {
				acc[id] = values[r][i]
				seen[id] = true
			} else {
				acc[id] = combiner(op)(acc[id], values[r][i])
			}
		}
	}
	out := make([][]float64, len(values))
	for r := range values {
		out[r] = append([]float64(nil), values[r]...)
		for i, id := range ids[r] {
			if id >= 0 {
				out[r][i] = acc[id]
			}
		}
	}
	return out
}

// runGS executes a gather-scatter over the given per-rank ids/values with
// the given method and returns the resulting per-rank vectors.
func runGS(t *testing.T, ids [][]int64, values [][]float64, op comm.ReduceOp, m Method) [][]float64 {
	t.Helper()
	p := len(ids)
	out := make([][]float64, p)
	_, err := comm.RunSimple(p, func(r *comm.Rank) error {
		g := Setup(r, ids[r.ID()])
		v := append([]float64(nil), values[r.ID()]...)
		g.OpWith(v, op, m)
		out[r.ID()] = v
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertMatch(t *testing.T, got, want [][]float64, label string) {
	t.Helper()
	for r := range want {
		for i := range want[r] {
			if math.Abs(got[r][i]-want[r][i]) > 1e-10*(1+math.Abs(want[r][i])) {
				t.Fatalf("%s: rank %d slot %d = %v, want %v", label, r, i, got[r][i], want[r][i])
			}
		}
	}
}

func TestSingleRankLocalDuplicates(t *testing.T) {
	ids := [][]int64{{5, 7, 5, 9, 7, 5}}
	values := [][]float64{{1, 2, 3, 4, 5, 6}}
	for _, op := range []comm.ReduceOp{comm.OpSum, comm.OpMin, comm.OpMax, comm.OpProd} {
		for _, m := range Methods {
			got := runGS(t, ids, values, op, m)
			want := serialGS(ids, values, op)
			assertMatch(t, got, want, op.String()+"/"+m.String())
		}
	}
}

func TestNegativeIDsIgnored(t *testing.T) {
	ids := [][]int64{{-1, 3, -1}, {3, -1, -1}}
	values := [][]float64{{10, 1, 20}, {2, 30, 40}}
	for _, m := range Methods {
		got := runGS(t, ids, values, comm.OpSum, m)
		if got[0][0] != 10 || got[0][2] != 20 || got[1][1] != 30 || got[1][2] != 40 {
			t.Fatalf("%v: negative-id entries were touched: %v", m, got)
		}
		if got[0][1] != 3 || got[1][0] != 3 {
			t.Fatalf("%v: shared id not combined: %v", m, got)
		}
	}
}

func TestMethodsMatchSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range []int{2, 3, 4, 5, 8} {
		ids := make([][]int64, p)
		values := make([][]float64, p)
		for r := 0; r < p; r++ {
			n := 20 + rng.Intn(20)
			ids[r] = make([]int64, n)
			values[r] = make([]float64, n)
			for i := 0; i < n; i++ {
				ids[r][i] = int64(rng.Intn(30)) // heavy sharing
				values[r][i] = rng.NormFloat64()
			}
		}
		want := serialGS(ids, values, comm.OpSum)
		for _, m := range Methods {
			got := runGS(t, ids, values, comm.OpSum, m)
			assertMatch(t, got, want, m.String())
		}
	}
}

func TestAllOpsAllMethodsProperty(t *testing.T) {
	ops := []comm.ReduceOp{comm.OpSum, comm.OpMin, comm.OpMax}
	f := func(seed int64, rawP, rawOp uint8) bool {
		p := int(rawP)%5 + 2
		op := ops[int(rawOp)%len(ops)]
		rng := rand.New(rand.NewSource(seed))
		ids := make([][]int64, p)
		values := make([][]float64, p)
		for r := 0; r < p; r++ {
			n := 5 + rng.Intn(15)
			ids[r] = make([]int64, n)
			values[r] = make([]float64, n)
			for i := 0; i < n; i++ {
				ids[r][i] = int64(rng.Intn(25))
				values[r][i] = rng.NormFloat64()
			}
		}
		want := serialGS(ids, values, op)
		for _, m := range Methods {
			got := make([][]float64, p)
			_, err := comm.RunSimple(p, func(r *comm.Rank) error {
				g := Setup(r, ids[r.ID()])
				v := append([]float64(nil), values[r.ID()]...)
				g.OpWith(v, op, m)
				got[r.ID()] = v
				return nil
			})
			if err != nil {
				return false
			}
			for r := range want {
				for i := range want[r] {
					if math.Abs(got[r][i]-want[r][i]) > 1e-9*(1+math.Abs(want[r][i])) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedOpsStable(t *testing.T) {
	// Applying gs-max twice must be idempotent.
	ids := [][]int64{{1, 2, 3}, {2, 3, 4}}
	values := [][]float64{{5, 1, 9}, {7, 2, 8}}
	p := len(ids)
	_, err := comm.RunSimple(p, func(r *comm.Rank) error {
		g := Setup(r, ids[r.ID()])
		v := append([]float64(nil), values[r.ID()]...)
		g.OpWith(v, comm.OpMax, Pairwise)
		once := append([]float64(nil), v...)
		g.OpWith(v, comm.OpMax, Pairwise)
		for i := range v {
			if v[i] != once[i] {
				t.Errorf("rank %d: second max changed slot %d: %v -> %v", r.ID(), i, once[i], v[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	// Ring sharing: rank r shares id r with r+1 and id r-1 with r-1.
	const p = 5
	neighborSets := make([][]int, p)
	_, err := comm.RunSimple(p, func(r *comm.Rank) error {
		me := int64(r.ID())
		prev := (me - 1 + p) % p
		g := Setup(r, []int64{prev, me})
		neighborSets[r.ID()] = g.Neighbors()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		for _, q := range neighborSets[r] {
			found := false
			for _, back := range neighborSets[q] {
				if back == r {
					found = true
				}
			}
			if !found {
				t.Fatalf("rank %d lists %d but not vice versa (%v / %v)", r, q, neighborSets[r], neighborSets[q])
			}
		}
	}
}

func TestSharedSlotsAndBigVector(t *testing.T) {
	// 3 ranks: id 100 on all, id 200 on rank 0 only (duplicated), id 300
	// unshared singleton.
	ids := [][]int64{{100, 200, 200, 300}, {100, 400}, {100, 500}}
	slots := make([]int, 3)
	bigs := make([]int, 3)
	_, err := comm.RunSimple(3, func(r *comm.Rank) error {
		g := Setup(r, ids[r.ID()])
		slots[r.ID()] = g.SharedSlots()
		bigs[r.ID()] = g.BigVectorLen()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if slots[0] != 2 { // 100 (remote) + 200 (local dup); 300 inactive
		t.Fatalf("rank 0 active slots = %d, want 2", slots[0])
	}
	if slots[1] != 1 || slots[2] != 1 {
		t.Fatalf("ranks 1,2 active slots = %d,%d, want 1,1", slots[1], slots[2])
	}
	// Only id 100 is shared across ranks (200 is a local duplicate), so
	// the all_reduce big vector covers exactly one id — on every rank.
	for r, b := range bigs {
		if b != 1 {
			t.Fatalf("rank %d big vector len = %d, want 1", r, b)
		}
	}
}

func TestVectorLengthMismatchPanics(t *testing.T) {
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		g := Setup(r, []int64{1, 1})
		defer func() {
			if recover() == nil {
				t.Error("length mismatch must panic")
			}
		}()
		g.Op(make([]float64, 5), comm.OpSum)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTuneSelectsConsistently(t *testing.T) {
	const p = 4
	choices := make([]Method, p)
	counts := make([]int, p)
	_, err := comm.RunSimple(p, func(r *comm.Rank) error {
		// Everyone shares a block of ids with everyone: dense pattern.
		ids := make([]int64, 32)
		for i := range ids {
			ids[i] = int64(i)
		}
		g := Setup(r, ids)
		m, timings := Tune(g, 2)
		choices[r.ID()] = m
		counts[r.ID()] = len(timings)
		if g.Method() != m {
			t.Errorf("rank %d: Tune did not set the default method", r.ID())
		}
		for _, tm := range timings {
			if tm.WallMax < tm.WallMin || tm.WallAvg <= 0 {
				t.Errorf("rank %d: inconsistent timing %+v", r.ID(), tm)
			}
			if tm.ModelMax < tm.ModelMin || tm.ModelAvg <= 0 {
				t.Errorf("rank %d: inconsistent modeled timing %+v", r.ID(), tm)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		if choices[r] != choices[0] {
			t.Fatalf("ranks disagree on tuned method: %v", choices)
		}
		if counts[r] != len(Methods) {
			t.Fatalf("rank %d timed %d methods", r, counts[r])
		}
	}
}

func TestMethodStrings(t *testing.T) {
	if Pairwise.String() != "pairwise exchange" ||
		CrystalRouter.String() != "crystal router" ||
		AllReduce.String() != "all_reduce" {
		t.Fatal("method names must match the paper's terminology")
	}
}

func TestParseMethod(t *testing.T) {
	cases := map[string]Method{
		"pairwise": Pairwise, "crystal": CrystalRouter, "allreduce": AllReduce,
	}
	for name, want := range cases {
		got, err := ParseMethod(name)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseMethod("carrier-pigeon"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestFeasibleMethodsThreshold(t *testing.T) {
	_, err := comm.RunSimple(2, func(r *comm.Rank) error {
		// Tiny shared set: all methods feasible.
		g := Setup(r, []int64{1, 2, 3})
		if len(g.FeasibleMethods()) != len(Methods) {
			t.Errorf("small pattern should allow all methods, got %v", g.FeasibleMethods())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
