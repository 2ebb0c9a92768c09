package comm

import (
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// testSizes covers 1 rank, powers of two, and awkward non-powers.
var testSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestBarrierSynchronizes(t *testing.T) {
	for _, p := range testSizes {
		var before, after int64
		_, err := RunSimple(p, func(r *Rank) error {
			atomic.AddInt64(&before, 1)
			r.Barrier()
			// Every rank must observe all arrivals once past the barrier.
			if got := atomic.LoadInt64(&before); got != int64(p) {
				t.Errorf("p=%d rank %d passed barrier with only %d arrivals", p, r.ID(), got)
			}
			atomic.AddInt64(&after, 1)
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if after != int64(p) {
			t.Fatalf("p=%d: %d ranks finished", p, after)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, p := range testSizes {
		for root := 0; root < p; root++ {
			payload := []float64{float64(root) + 0.5, 42}
			_, err := RunSimple(p, func(r *Rank) error {
				var in []float64
				if r.ID() == root {
					in = payload
				}
				got := r.Bcast(root, in)
				if !reflect.DeepEqual(got, payload) {
					t.Errorf("p=%d root=%d rank=%d got %v", p, root, r.ID(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestBcastInts(t *testing.T) {
	_, err := RunSimple(5, func(r *Rank) error {
		var in []int64
		if r.ID() == 3 {
			in = []int64{-1, 2, 3}
		}
		got := r.BcastInts(3, in)
		if !reflect.DeepEqual(got, []int64{-1, 2, 3}) {
			t.Errorf("rank %d got %v", r.ID(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	for _, p := range testSizes {
		for root := 0; root < p; root += max(1, p/3) {
			_, err := RunSimple(p, func(r *Rank) error {
				data := []float64{float64(r.ID()), 1}
				got := r.Reduce(OpSum, root, data)
				if r.ID() == root {
					wantSum := float64(p*(p-1)) / 2
					if got[0] != wantSum || got[1] != float64(p) {
						t.Errorf("p=%d root=%d reduce got %v", p, root, got)
					}
				} else if got != nil {
					t.Errorf("non-root got non-nil %v", got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
		}
	}
}

func TestAllreduceOps(t *testing.T) {
	for _, p := range testSizes {
		_, err := RunSimple(p, func(r *Rank) error {
			id := float64(r.ID())
			sum := r.Allreduce(OpSum, []float64{id})
			if sum[0] != float64(p*(p-1))/2 {
				t.Errorf("p=%d sum got %v", p, sum[0])
			}
			min := r.Allreduce(OpMin, []float64{id})
			if min[0] != 0 {
				t.Errorf("p=%d min got %v", p, min[0])
			}
			max := r.Allreduce(OpMax, []float64{id})
			if max[0] != float64(p-1) {
				t.Errorf("p=%d max got %v", p, max[0])
			}
			prod := r.Allreduce(OpProd, []float64{2})
			if prod[0] != math.Pow(2, float64(p)) {
				t.Errorf("p=%d prod got %v", p, prod[0])
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllreduceInts(t *testing.T) {
	for _, p := range testSizes {
		_, err := RunSimple(p, func(r *Rank) error {
			got := r.AllreduceInts(OpMax, []int64{int64(r.ID()), -int64(r.ID())})
			if got[0] != int64(p-1) || got[1] != 0 {
				t.Errorf("p=%d got %v", p, got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllreduceMatchesSerialProperty(t *testing.T) {
	// Property: Allreduce(sum) over random vectors equals the serial sum,
	// within floating-point reassociation tolerance.
	f := func(seed int64, rawP uint8) bool {
		p := int(rawP)%6 + 2
		n := 17
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]float64, p)
		want := make([]float64, n)
		for i := range inputs {
			inputs[i] = make([]float64, n)
			for j := range inputs[i] {
				inputs[i][j] = rng.NormFloat64()
				want[j] += inputs[i][j]
			}
		}
		ok := true
		_, err := RunSimple(p, func(r *Rank) error {
			buf := append([]float64(nil), inputs[r.ID()]...)
			got := r.Allreduce(OpSum, buf)
			for j := range got {
				if math.Abs(got[j]-want[j]) > 1e-9*(1+math.Abs(want[j])) {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterInverse(t *testing.T) {
	const p, n = 6, 3
	_, err := RunSimple(p, func(r *Rank) error {
		mine := make([]float64, n)
		for i := range mine {
			mine[i] = float64(r.ID()*100 + i)
		}
		all := r.Gather(2, mine)
		if r.ID() == 2 {
			if len(all) != p*n {
				t.Errorf("gather len %d", len(all))
			}
			for rank := 0; rank < p; rank++ {
				for i := 0; i < n; i++ {
					if all[rank*n+i] != float64(rank*100+i) {
						t.Errorf("gather[%d][%d] = %v", rank, i, all[rank*n+i])
					}
				}
			}
		}
		// Scatter the gathered vector back: every rank must get its own
		// contribution again.
		back := r.Scatter(2, all, n)
		if !reflect.DeepEqual(back, mine) {
			t.Errorf("rank %d scatter got %v want %v", r.ID(), back, mine)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	for _, p := range testSizes {
		_, err := RunSimple(p, func(r *Rank) error {
			got := r.Allgather([]float64{float64(r.ID()), float64(-r.ID())})
			if len(got) != 2*p {
				t.Errorf("p=%d len %d", p, len(got))
				return nil
			}
			for rank := 0; rank < p; rank++ {
				if got[2*rank] != float64(rank) || got[2*rank+1] != float64(-rank) {
					t.Errorf("p=%d slot %d = %v,%v", p, rank, got[2*rank], got[2*rank+1])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAllgatherInts(t *testing.T) {
	_, err := RunSimple(7, func(r *Rank) error {
		got := r.AllgatherInts(int64(r.ID() * r.ID()))
		for rank := range got {
			if got[rank] != int64(rank*rank) {
				t.Errorf("slot %d = %d", rank, got[rank])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallTransposes(t *testing.T) {
	for _, p := range testSizes {
		_, err := RunSimple(p, func(r *Rank) error {
			// send[dst] = 1000*me + dst, so recv[src] must be 1000*src + me.
			send := make([]float64, p)
			for dst := range send {
				send[dst] = float64(1000*r.ID() + dst)
			}
			got := r.Alltoall(send, 1)
			for src := range got {
				if got[src] != float64(1000*src+r.ID()) {
					t.Errorf("p=%d recv[%d] = %v", p, src, got[src])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestAlltoallvInts(t *testing.T) {
	const p = 4
	_, err := RunSimple(p, func(r *Rank) error {
		// Rank i sends (i+dst) copies of value i*10+dst to dst.
		var send []int64
		counts := make([]int, p)
		for dst := 0; dst < p; dst++ {
			counts[dst] = r.ID() + dst
			for k := 0; k < counts[dst]; k++ {
				send = append(send, int64(r.ID()*10+dst))
			}
		}
		recv, rc := r.AlltoallvInts(send, counts)
		off := 0
		for src := 0; src < p; src++ {
			wantCount := src + r.ID()
			if rc[src] != wantCount {
				t.Errorf("rank %d: recvCounts[%d] = %d, want %d", r.ID(), src, rc[src], wantCount)
			}
			for k := 0; k < rc[src]; k++ {
				if recv[off+k] != int64(src*10+r.ID()) {
					t.Errorf("rank %d: bad value from %d: %d", r.ID(), src, recv[off+k])
				}
			}
			off += rc[src]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallvFloats(t *testing.T) {
	const p = 3
	_, err := RunSimple(p, func(r *Rank) error {
		counts := []int{1, 2, 3}
		send := []float64{
			float64(r.ID()),
			float64(r.ID()) + 0.1, float64(r.ID()) + 0.2,
			float64(r.ID()) + 0.3, float64(r.ID()) + 0.4, float64(r.ID()) + 0.5,
		}
		recv, rc := r.Alltoallv(send, counts)
		wantTotal := 0
		for src := 0; src < p; src++ {
			wantTotal += r.ID() + 1
			if rc[src] != r.ID()+1 {
				t.Errorf("rank %d rc[%d]=%d", r.ID(), src, rc[src])
			}
		}
		if len(recv) != wantTotal {
			t.Errorf("rank %d got %d values, want %d", r.ID(), len(recv), wantTotal)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveSequences(t *testing.T) {
	// Back-to-back collectives of the same kind must not cross-match.
	_, err := RunSimple(6, func(r *Rank) error {
		for iter := 0; iter < 20; iter++ {
			v := r.Allreduce(OpSum, []float64{float64(iter)})
			if v[0] != float64(6*iter) {
				t.Errorf("iter %d: got %v", iter, v[0])
				return nil
			}
		}
		r.Barrier()
		r.Barrier()
		got := r.Bcast(0, pick(r.ID() == 0, []float64{99}, nil))
		if got[0] != 99 {
			t.Errorf("bcast after barriers got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func pick[T any](cond bool, a, b T) T {
	if cond {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestAllreduceRabenseifnerLargeVectors(t *testing.T) {
	// Vectors above the size threshold take the reduce-scatter/allgather
	// path; results must match the serial sum exactly, including odd
	// lengths and non-power-of-two rank counts.
	for _, p := range []int{3, 4, 5, 7, 8} {
		for _, n := range []int{rabenseifnerMinLen, rabenseifnerMinLen + 1, rabenseifnerMinLen + 1023} {
			inputs := make([][]float64, p)
			want := make([]float64, n)
			rng := rand.New(rand.NewSource(int64(p*100000 + n)))
			for r := 0; r < p; r++ {
				inputs[r] = make([]float64, n)
				for i := range inputs[r] {
					inputs[r][i] = rng.NormFloat64()
					want[i] += inputs[r][i]
				}
			}
			_, err := RunSimple(p, func(r *Rank) error {
				buf := append([]float64(nil), inputs[r.ID()]...)
				got := r.Allreduce(OpSum, buf)
				for i := range got {
					if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
						t.Errorf("p=%d n=%d rank=%d slot %d: %v want %v",
							p, n, r.ID(), i, got[i], want[i])
						return nil
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
		}
	}
}

// TestRabenseifnerMatchesRecursiveDoubling cross-checks the two flat
// allreduce algorithms at the switch length, bit for bit, on payloads
// where every association is exact: integer-valued sums and full-mantissa
// min/max. A divergence is implementation drift in one of them, not
// rounding.
func TestRabenseifnerMatchesRecursiveDoubling(t *testing.T) {
	const n = rabenseifnerMinLen
	for _, p := range []int{3, 4, 5, 8, 12} {
		_, err := RunSimple(p, func(r *Rank) error {
			for _, c := range []struct {
				op    ReduceOp
				probe []float64
			}{
				{OpSum, collProbeInts(r.ID(), n, 0x51ab)},
				{OpMin, collProbe(r.ID(), n, 0x7a11)},
				{OpMax, collProbe(r.ID(), n, 0x7a11)},
			} {
				rd := append([]float64(nil), c.probe...)
				rab := append([]float64(nil), c.probe...)
				r.world().allreduce(c.op, collTagBase+3, rd, nil)
				r.allreduceRabenseifner(c.op, rab)
				for i := range rd {
					if math.Float64bits(rd[i]) != math.Float64bits(rab[i]) {
						t.Errorf("p=%d %v rank %d slot %d: recursive doubling %x, Rabenseifner %x",
							p, c.op, r.ID(), i, math.Float64bits(rd[i]), math.Float64bits(rab[i]))
						return nil
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestAllreduceSwitchLength pins where Allreduce changes algorithm, read
// off the MPI_Allreduce byte count each rank's profile records. At p=4
// recursive doubling sends the whole vector log2(4) = 2 times (16n
// bytes); Rabenseifner sends n/2 + n/4 in the reduce-scatter and
// n/4 + n/2 in the allgather (12n bytes).
func TestAllreduceSwitchLength(t *testing.T) {
	const p = 4
	for _, c := range []struct {
		n         int
		wantBytes int64
	}{
		{rabenseifnerMinLen, 12 * rabenseifnerMinLen},
		{rabenseifnerMinLen - 1, 16 * (rabenseifnerMinLen - 1)},
	} {
		stats, err := RunSimple(p, func(r *Rank) error {
			r.Allreduce(OpSum, make([]float64, c.n))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for id, prof := range stats.Profiles {
			var got int64 = -1
			for _, cs := range prof.Calls() {
				if cs.Op == "MPI_Allreduce" {
					got = cs.Bytes
				}
			}
			if got != c.wantBytes {
				t.Errorf("n=%d rank %d: MPI_Allreduce recorded %d bytes, want %d", c.n, id, got, c.wantBytes)
			}
		}
	}
}

func TestAllreduceLargeMinMax(t *testing.T) {
	const p, n = 6, rabenseifnerMinLen + 7
	_, err := RunSimple(p, func(r *Rank) error {
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = float64(r.ID()*n + i)
		}
		got := r.Allreduce(OpMax, buf)
		for i := range got {
			want := float64((p-1)*n + i)
			if got[i] != want {
				t.Errorf("max slot %d = %v, want %v", i, got[i], want)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
