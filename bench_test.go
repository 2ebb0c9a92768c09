// Package repro's root benchmark harness: one testing.B benchmark per
// table/figure of the paper's evaluation (Figures 4-10), plus ablation
// benches for the design choices DESIGN.md calls out. Regenerate all
// reproduction numbers with:
//
//	go test -bench=. -benchmem
//
// The cmd/ tools print the full tables; these benches provide the
// repeatable timed kernels behind them and report the headline shape
// metrics via b.ReportMetric.
package repro

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/gs"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sem"
	"repro/internal/solver"
)

// ---------------------------------------------------------------- Fig 4

// BenchmarkFig04ExecutionProfile times one full CMT-bone timestep on a
// single rank — the workload behind the Figure 4 gprof profile — and
// reports the share of time spent in the derivative (ax_) kernel.
func BenchmarkFig04ExecutionProfile(b *testing.B) {
	_, err := comm.RunSimple(1, func(r *comm.Rank) error {
		cfg := solver.DefaultConfig(1, 8, 2)
		s, err := solver.New(r, cfg)
		if err != nil {
			return err
		}
		s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
		dt := s.StableDt()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step(dt)
		}
		b.StopTimer()
		var deriv, total float64
		for _, reg := range s.Rec.Flat() {
			total += reg.Self
			switch reg.Name {
			case "ax_deriv_dudr", "ax_deriv_duds", "ax_deriv_dudt":
				deriv += reg.Self
			}
		}
		if total > 0 {
			b.ReportMetric(100*deriv/total, "%deriv")
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// ------------------------------------------------------------ Figs 5, 6

func benchDeriv(b *testing.B, dir sem.Direction, v sem.KernelVariant) {
	const n, nel = 5, 512 // paper: N=5 (1563 elements; scaled for bench time)
	ref := sem.NewRef1D(n)
	rng := rand.New(rand.NewSource(1))
	u := make([]float64, nel*n*n*n)
	for i := range u {
		u[i] = rng.Float64()
	}
	du := make([]float64, len(u))
	var ops sem.OpCount
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops = sem.Deriv(dir, v, ref, u, du, nel)
	}
	b.StopTimer()
	flops := float64(ops.Flops()) * float64(b.N)
	b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

// BenchmarkFig05OptimizedDerivatives regenerates the Figure 5 rows: the
// derivative kernels with the loop transformations applied.
func BenchmarkFig05OptimizedDerivatives(b *testing.B) {
	for _, dir := range []sem.Direction{sem.DirT, sem.DirR, sem.DirS} {
		b.Run(dir.String(), func(b *testing.B) { benchDeriv(b, dir, sem.Optimized) })
	}
}

// BenchmarkFig06BasicDerivatives regenerates the Figure 6 rows: the basic
// (untransformed) derivative kernels.
func BenchmarkFig06BasicDerivatives(b *testing.B) {
	for _, dir := range []sem.Direction{sem.DirT, sem.DirR, sem.DirS} {
		b.Run(dir.String(), func(b *testing.B) { benchDeriv(b, dir, sem.Basic) })
	}
}

// ---------------------------------------------------------------- Fig 7

func benchGSMethod(b *testing.B, ids func(*mesh.Local) []int64, m gs.Method) {
	const np = 16
	procGrid := comm.FactorGrid(np)
	local := 2
	elemGrid := [3]int{procGrid[0] * local, procGrid[1] * local, procGrid[2] * local}
	box, err := mesh.NewBox(procGrid, elemGrid, 5, [3]bool{true, true, true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	_, err = comm.Run(np, comm.Options{Model: netmodel.QDR, Grid: procGrid,
		Periodic: [3]bool{true, true, true}}, func(r *comm.Rank) error {
		g := gs.Setup(r, ids(box.Partition(r.ID())))
		v := make([]float64, g.SharedSlots())
		vals := make([]float64, lenIDs(box, r.ID(), ids))
		for i := range vals {
			vals[i] = float64(i)
		}
		_ = v
		for i := 0; i < b.N; i++ {
			g.OpWith(vals, comm.OpSum, m)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func lenIDs(box *mesh.Box, rank int, ids func(*mesh.Local) []int64) int {
	return len(ids(box.Partition(rank)))
}

// BenchmarkFig07GatherScatterMethods regenerates the Figure 7 comparison:
// each gather-scatter algorithm on CMT-bone's face pattern and Nekbone's
// continuous pattern. (cmd/gssweep prints the full avg/min/max table.)
func BenchmarkFig07GatherScatterMethods(b *testing.B) {
	patterns := map[string]func(*mesh.Local) []int64{
		"cmtbone": func(l *mesh.Local) []int64 { return l.DGFaceIDs() },
		"nekbone": func(l *mesh.Local) []int64 { return l.ContinuousIDs() },
	}
	for _, app := range []string{"cmtbone", "nekbone"} {
		for _, m := range []gs.Method{gs.Pairwise, gs.CrystalRouter, gs.AllReduce} {
			b.Run(app+"/"+m.String(), func(b *testing.B) {
				benchGSMethod(b, patterns[app], m)
			})
		}
	}
}

// ------------------------------------------------------------ Figs 8-10

// benchMPIProfile runs a short multi-rank CMT-bone simulation per
// iteration and reports one headline metric from the mpiP-style profile.
func benchMPIProfile(b *testing.B, metric func(*comm.Stats) (float64, string)) {
	const np = 8
	cfg := solver.DefaultConfig(np, 6, 2)
	b.ResetTimer()
	var stats *comm.Stats
	for i := 0; i < b.N; i++ {
		var err error
		stats, err = comm.Run(np, cfg.CommOptions(netmodel.QDR), func(r *comm.Rank) error {
			s, err := solver.New(r, cfg)
			if err != nil {
				return err
			}
			s.SetInitial(solver.GaussianPulse(2, 2, 2, 0.1, 0.5))
			s.Run(2)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	v, unit := metric(stats)
	b.ReportMetric(v, unit)
}

// BenchmarkFig08MPITimeFraction reports the mean modeled MPI time share
// across ranks (the level of the Figure 8 bars).
func BenchmarkFig08MPITimeFraction(b *testing.B) {
	benchMPIProfile(b, func(stats *comm.Stats) (float64, string) {
		fr := stats.RankMPIFractions()
		sum := 0.0
		for _, f := range fr {
			sum += f.FracModeled()
		}
		return 100 * sum / float64(len(fr)), "%mpi"
	})
}

// BenchmarkFig09TopMPICalls reports the share of total MPI wall time
// spent in MPI_Wait — the paper's headline Figure 9 observation.
func BenchmarkFig09TopMPICalls(b *testing.B) {
	benchMPIProfile(b, func(stats *comm.Stats) (float64, string) {
		wait, total := 0.0, 0.0
		for _, s := range stats.AggregateSites() {
			total += s.Wall
			if s.Op == "MPI_Wait" {
				wait += s.Wall
			}
		}
		if total == 0 {
			return 0, "%wait"
		}
		return 100 * wait / total, "%wait"
	})
}

// BenchmarkFig10MessageSizes reports the average nearest-neighbor message
// size of the gs exchange (the dominant row of Figure 10).
func BenchmarkFig10MessageSizes(b *testing.B) {
	benchMPIProfile(b, func(stats *comm.Stats) (float64, string) {
		for _, s := range stats.AggregateSites() {
			if s.Op == "MPI_Isend" && s.Site == "gs_op" {
				return s.AvgBytes(), "bytes/msg"
			}
		}
		return 0, "bytes/msg"
	})
}

// ------------------------------------------------------------ Ablations

// BenchmarkAblationMxM compares the four mxm loop structures on the
// paper's small-matrix shapes (N=5..25).
func BenchmarkAblationMxM(b *testing.B) {
	for _, n := range []int{5, 10, 16, 25} {
		rng := rand.New(rand.NewSource(2))
		a := make([]float64, n*n)
		bm := make([]float64, n*n*n) // (n x n^2): one element derivative
		c := make([]float64, n*n*n)
		for i := range a {
			a[i] = rng.Float64()
		}
		for i := range bm {
			bm[i] = rng.Float64()
		}
		for _, v := range sem.MxMVariants {
			b.Run(v.String()+"/N="+itoa(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sem.MxM(v, a, n, bm, n, c, n*n)
				}
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationGSScale sweeps the gather-scatter methods across rank
// counts, exposing the crossover the autotuner exploits.
func BenchmarkAblationGSScale(b *testing.B) {
	for _, np := range []int{4, 16, 32} {
		for _, m := range []gs.Method{gs.Pairwise, gs.CrystalRouter} {
			b.Run(m.String()+"/np="+itoa(np), func(b *testing.B) {
				procGrid := comm.FactorGrid(np)
				elemGrid := [3]int{procGrid[0] * 2, procGrid[1] * 2, procGrid[2] * 2}
				box, err := mesh.NewBox(procGrid, elemGrid, 4, [3]bool{true, true, true})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				_, err = comm.Run(np, comm.Options{Grid: procGrid, Periodic: [3]bool{true, true, true}},
					func(r *comm.Rank) error {
						g := gs.Setup(r, box.Partition(r.ID()).DGFaceIDs())
						vals := make([]float64, len(box.Partition(r.ID()).DGFaceIDs()))
						for i := 0; i < b.N; i++ {
							g.OpWith(vals, comm.OpSum, m)
						}
						return nil
					})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkAblationCommEager measures the eager-send path across message
// sizes (the copy cost traded for deadlock-freedom).
func BenchmarkAblationCommEager(b *testing.B) {
	for _, size := range []int{16, 1024, 65536} {
		b.Run("floats="+itoa(size), func(b *testing.B) {
			_, err := comm.RunSimple(2, func(r *comm.Rank) error {
				buf := make([]float64, size)
				if r.ID() == 0 {
					for i := 0; i < b.N; i++ {
						r.Send(1, 1, buf)
						r.Recv(1, 2)
					}
				} else {
					for i := 0; i < b.N; i++ {
						r.Recv(0, 1)
						r.Send(0, 2, nil)
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size * 8))
		})
	}
}

// BenchmarkAblationDealias measures the cost the dealiasing round trip
// adds to a timestep.
func BenchmarkAblationDealias(b *testing.B) {
	for _, dealias := range []bool{false, true} {
		name := "off"
		if dealias {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			_, err := comm.RunSimple(1, func(r *comm.Rank) error {
				cfg := solver.DefaultConfig(1, 6, 2)
				cfg.Dealias = dealias
				s, err := solver.New(r, cfg)
				if err != nil {
					return err
				}
				s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
				dt := s.StableDt()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step(dt)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationNetModel runs the same gs exchange under different
// machine models and reports the modeled per-op cost — the signal that
// flips the tuner's choice between fabrics.
func BenchmarkAblationNetModel(b *testing.B) {
	for _, model := range []netmodel.Model{netmodel.Loopback, netmodel.QDR, netmodel.GigE, netmodel.Exascale} {
		b.Run(model.Name, func(b *testing.B) {
			const np = 8
			procGrid := comm.FactorGrid(np)
			elemGrid := [3]int{procGrid[0] * 2, procGrid[1] * 2, procGrid[2] * 2}
			box, err := mesh.NewBox(procGrid, elemGrid, 4, [3]bool{true, true, true})
			if err != nil {
				b.Fatal(err)
			}
			var modeled float64
			b.ResetTimer()
			stats, err := comm.Run(np, comm.Options{Model: model, Grid: procGrid,
				Periodic: [3]bool{true, true, true}}, func(r *comm.Rank) error {
				g := gs.Setup(r, box.Partition(r.ID()).DGFaceIDs())
				vals := make([]float64, len(box.Partition(r.ID()).DGFaceIDs()))
				for i := 0; i < b.N; i++ {
					g.OpWith(vals, comm.OpSum, gs.Pairwise)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			modeled = stats.MaxVirtualTime() / float64(b.N)
			b.ReportMetric(modeled*1e6, "modeled-us/op")
		})
	}
}

// BenchmarkAblationKernelVariantSolver compares full solver steps with
// the optimized vs basic derivative kernels (the end-to-end effect of the
// Section V loop transformations).
func BenchmarkAblationKernelVariantSolver(b *testing.B) {
	for _, v := range []sem.KernelVariant{sem.Optimized, sem.Basic} {
		b.Run(v.String(), func(b *testing.B) {
			_, err := comm.RunSimple(1, func(r *comm.Rank) error {
				cfg := solver.DefaultConfig(1, 8, 2)
				cfg.Variant = v
				s, err := solver.New(r, cfg)
				if err != nil {
					return err
				}
				s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
				dt := s.StableDt()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step(dt)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationPackedExchange compares per-field gs_op (the paper's
// profile: 10 messages per neighbor per RHS) against the packed
// gs_op_fields path (2 messages per neighbor) — the latency/bandwidth
// trade of message aggregation.
func BenchmarkAblationPackedExchange(b *testing.B) {
	for _, packed := range []bool{false, true} {
		name := "per-field"
		if packed {
			name = "packed"
		}
		b.Run(name, func(b *testing.B) {
			_, err := comm.RunSimple(8, func(r *comm.Rank) error {
				cfg := solver.DefaultConfig(8, 6, 2)
				cfg.PackedExchange = packed
				s, err := solver.New(r, cfg)
				if err != nil {
					return err
				}
				s.SetInitial(solver.GaussianPulse(2, 2, 2, 0.1, 0.5))
				dt := s.StableDt()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step(dt)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationViscousPath compares the inviscid (Euler) and viscous
// (Navier-Stokes) right-hand sides: the viscous path nearly doubles the
// derivative-kernel work (27 vs 15 ax_ passes per RHS).
func BenchmarkAblationViscousPath(b *testing.B) {
	for _, mu := range []float64{0, 0.01} {
		name := "euler"
		if mu > 0 {
			name = "navier-stokes"
		}
		b.Run(name, func(b *testing.B) {
			_, err := comm.RunSimple(1, func(r *comm.Rank) error {
				cfg := solver.DefaultConfig(1, 8, 2)
				cfg.Mu = mu
				s, err := solver.New(r, cfg)
				if err != nil {
					return err
				}
				s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.05, 0.5))
				dt := s.StableDt()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step(dt)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationAllreduceSize crosses the size threshold where
// Allreduce switches from recursive doubling to Rabenseifner
// reduce-scatter/allgather, the algorithm switch production MPI
// libraries make.
func BenchmarkAblationAllreduceSize(b *testing.B) {
	for _, n := range []int{64, 1024, 4096, 65536} {
		b.Run("len="+itoa(n), func(b *testing.B) {
			_, err := comm.RunSimple(8, func(r *comm.Rank) error {
				buf := make([]float64, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.Allreduce(comm.OpSum, buf)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * n))
		})
	}
}

// ------------------------------------------------------- Worker sweep

// workerCounts returns 1, 2, 4, ... up to NumCPU (plus NumCPU itself
// when it is not a power of two) — the intra-rank pool widths the
// worker-sweep benches cover.
func workerCounts() []int {
	ws := []int{1}
	for w := 2; w <= runtime.NumCPU(); w *= 2 {
		ws = append(ws, w)
	}
	if last := ws[len(ws)-1]; last != runtime.NumCPU() {
		ws = append(ws, runtime.NumCPU())
	}
	return ws
}

// BenchmarkWorkerSweepDeriv sweeps the intra-rank worker pool over the
// derivative kernel — the tentpole speedup measurement (on a multi-core
// host, workers=NumCPU should beat workers=1 by ~NumCPU/2 or better at
// this shape; on a single-core host the sweep degenerates to one row).
// Results are bit-identical at every width; only wall time moves.
func BenchmarkWorkerSweepDeriv(b *testing.B) {
	const n, nel = 9, 64
	ref := sem.NewRef1D(n)
	rng := rand.New(rand.NewSource(1))
	u := make([]float64, nel*n*n*n)
	for i := range u {
		u[i] = rng.Float64()
	}
	du := make([]float64, len(u))
	for _, w := range workerCounts() {
		b.Run("workers="+itoa(w), func(b *testing.B) {
			p := pool.New(w)
			defer p.Close()
			var ops sem.OpCount
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, dir := range []sem.Direction{sem.DirR, sem.DirS, sem.DirT} {
					ops = sem.DerivPool(p, dir, sem.Optimized, ref, u, du, nel)
				}
			}
			b.StopTimer()
			flops := 3 * float64(ops.Flops()) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}

// BenchmarkWorkerSweepStep sweeps the pool width over a full solver
// timestep on one rank — the end-to-end effect of intra-rank
// parallelism on everything between exchanges.
func BenchmarkWorkerSweepStep(b *testing.B) {
	for _, w := range workerCounts() {
		b.Run("workers="+itoa(w), func(b *testing.B) {
			cfg := solver.DefaultConfig(1, 8, 2)
			cfg.Workers = w
			cfg.Dealias = true
			_, err := comm.RunSimple(1, func(r *comm.Rank) error {
				s, err := solver.New(r, cfg)
				if err != nil {
					return err
				}
				defer s.Close()
				s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
				dt := s.StableDt()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step(dt)
				}
				b.StopTimer()
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkHWModel exercises the PAPI-substitute estimator (it sits on
// every compute charge, so it must be cheap).
func BenchmarkHWModel(b *testing.B) {
	ops := hw.Ops{Mul: 1 << 20, Add: 1 << 20, Load: 1 << 21, Store: 1 << 18}
	for i := 0; i < b.N; i++ {
		hw.Model(hw.Opteron6378, ops, hw.DudtOptimized)
	}
}

// BenchmarkTelemetryOverhead times one full timestep with the span
// tracer attached ("on") and without it ("off") — the wall-clock cost
// of observability. The modeled virtual time is invariant by
// construction (TestTelemetryVTInvariance); this bench bounds the
// host-side overhead, which must stay well under 10%.
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, telemetry := range []bool{false, true} {
		name := "off"
		if telemetry {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := solver.DefaultConfig(1, 8, 2)
			if telemetry {
				tr := obs.NewTracer()
				// A span per kernel per step adds up across b.N: raise the
				// cap so late iterations are not artificially cheaper.
				tr.Cap = 1 << 26
				cfg.Obs = tr
			}
			_, err := comm.RunSimple(1, func(r *comm.Rank) error {
				s, err := solver.New(r, cfg)
				if err != nil {
					return err
				}
				s.SetInitial(solver.GaussianPulse(1, 1, 1, 0.1, 0.5))
				dt := s.StableDt()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step(dt)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
