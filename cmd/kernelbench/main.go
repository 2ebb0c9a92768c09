// Command kernelbench reproduces the paper's Figures 5 and 6: the
// performance statistics of the derivative-computing kernel (dudr, duds,
// dudt) with and without the loop transformations CMT-bone inherits from
// Nek5000. Runtime is measured on the host; total instructions and cycles
// come from the hw model standing in for PAPI.
//
// The paper's exact workload is -n 5 -nel 1563 -steps 1000 on the AMD
// Opteron 6378.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/hw"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/sem"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kernelbench: ")

	n := flag.Int("n", 5, "GLL points per direction per element")
	nel := flag.Int("nel", 1563, "number of elements")
	steps := flag.Int("steps", 100, "timesteps (the paper uses 1000)")
	variantName := flag.String("variant", "both", "kernel variant: optimized, basic, or both")
	machineName := flag.String("machine", hw.Opteron6378.Name, "hw model machine: opteron-6378, i5-2500, generic")
	sweep := flag.Bool("sweep", false, "sweep N over the paper's 5..25 range (constant total points) instead of one N")
	mxm := flag.Bool("mxm", false, "benchmark the mxm variants across the small-k range (generated/SIMD included)")
	workers := flag.Int("workers", 1, "intra-rank worker pool width for the element loop (0 = NumCPU)")
	workerSweep := flag.Bool("workersweep", false, "sweep the worker count 1,2,4..NumCPU on the derivative kernel")
	cli.Parse()

	if *workers == 0 {
		*workers = runtime.NumCPU()
	}

	machine, err := cli.ParseMachine(*machineName)
	if err != nil {
		log.Fatalf("-machine: %v", err)
	}

	var variants []sem.KernelVariant
	switch *variantName {
	case "optimized":
		variants = []sem.KernelVariant{sem.Optimized}
	case "basic":
		variants = []sem.KernelVariant{sem.Basic}
	case "both":
		variants = []sem.KernelVariant{sem.Optimized, sem.Basic}
	default:
		log.Fatalf("-variant: want optimized, basic, or both, got %q", *variantName)
	}

	if *mxm || *workerSweep {
		if *workerSweep {
			runWorkerSweep(variants[0], *n, *nel, *steps)
		}
		if *mxm {
			runMxM()
		}
		return
	}
	if *sweep {
		runSweep(machine, variants, *steps)
		return
	}
	runOne(machine, variants, *n, *nel, *steps, *workers)
}

// runWorkerSweep times the derivative kernel across worker counts and
// prints wall time and speedup versus serial.
func runWorkerSweep(v sem.KernelVariant, n, nel, steps int) {
	fmt.Printf("Derivative kernel worker sweep: N=%d, Nel=%d, %d steps, NumCPU=%d (%v)\n\n",
		n, nel, steps, runtime.NumCPU(), v)
	fmt.Printf("%8s %6s %12s %10s %9s\n", "workers", "dir", "wall(s)", "Gflop/s", "speedup")

	bench.WorkerSweep(bench.SweepOptions{
		N: n, Nel: nel, Steps: steps, Variant: v,
		Each: func(r bench.SweepRecord) {
			fmt.Printf("%8d %6s %12.4f %10.2f %8.2fx\n", r.Workers, r.Dir, r.Wall, r.Gflops, r.Speedup)
		},
	})
}

// runOne benchmarks the three derivative directions at one (N, Nel) and
// prints the Figure 5/6 tables.
func runOne(machine hw.Machine, variants []sem.KernelVariant, n, nel, steps, workers int) {
	ref := sem.NewRef1D(n)
	n3 := n * n * n
	rng := rand.New(rand.NewSource(1))
	u := make([]float64, nel*n3)
	for i := range u {
		u[i] = rng.Float64()
	}
	du := make([]float64, len(u))

	fmt.Printf("Derivative kernel statistics: N=%d, Nel=%d, %d timesteps, workers=%d, AVX2=%v, hw model %s\n\n",
		n, nel, steps, workers, sem.HasSIMD(), machine.Name)

	pl := pool.New(workers)
	defer pl.Close()
	for _, v := range variants {
		var rows []report.KernelRow
		// The paper lists dudt first in Figure 5.
		for _, dir := range []sem.Direction{sem.DirT, sem.DirR, sem.DirS} {
			wall, ops := timeDeriv(pl, dir, v, ref, u, du, nel, steps)
			est := hw.Model(machine, hw.Ops{Mul: ops.Mul, Add: ops.Add, Load: ops.Load, Store: ops.Store},
				hw.DerivTraits(int(dir), v == sem.Optimized))
			rows = append(rows, report.KernelEstimate(dir.String(), wall, est))
		}
		title := fmt.Sprintf("Figure 5 — partial derivatives WITH loop transformations (%v)", v)
		if v == sem.Basic {
			title = fmt.Sprintf("Figure 6 — partial derivatives, basic implementation (%v)", v)
		}
		fmt.Print(report.Fig5or6KernelTable(title, rows))
		fmt.Println()
	}
}

// runSweep scans the paper's N = 5..25 polynomial range at roughly
// constant total grid points and prints per-direction Gflop/s, showing
// how the O(N^4) kernel's arithmetic intensity grows with order.
func runSweep(machine hw.Machine, variants []sem.KernelVariant, steps int) {
	fmt.Printf("Derivative kernel N-sweep (constant ~200k points, %d steps, hw model %s)\n\n", steps, machine.Name)
	fmt.Printf("%4s %6s", "N", "Nel")
	for _, v := range variants {
		for _, dir := range []sem.Direction{sem.DirT, sem.DirR, sem.DirS} {
			fmt.Printf(" %14s", fmt.Sprintf("%s/%s", dir, v))
		}
	}
	fmt.Println("  (Gflop/s)")
	for _, n := range []int{5, 7, 10, 13, 16, 20, 25} {
		n3 := n * n * n
		nel := 200000 / n3
		if nel < 1 {
			nel = 1
		}
		ref := sem.NewRef1D(n)
		rng := rand.New(rand.NewSource(1))
		u := make([]float64, nel*n3)
		for i := range u {
			u[i] = rng.Float64()
		}
		du := make([]float64, len(u))
		fmt.Printf("%4d %6d", n, nel)
		for _, v := range variants {
			for _, dir := range []sem.Direction{sem.DirT, sem.DirR, sem.DirS} {
				wall, ops := timeDeriv(nil, dir, v, ref, u, du, nel, steps)
				gflops := float64(ops.Flops()) / wall / 1e9
				fmt.Printf(" %14.2f", gflops)
			}
		}
		fmt.Println()
	}
}

// runMxM benchmarks every MxM variant across the small-k range the
// spectral-element kernels produce (k = N is the 1D operator size), in
// the derivative kernel's dominant shape m = N^2, n = N, batched over
// elements. Each column is labeled with the kernel that actually ran:
// variants outside their specialization range (e.g. "generated" for
// k > 16) are footnoted with their effective fallback instead of
// silently crediting the named variant with the fallback's numbers.
func runMxM() {
	records := bench.MxMSweep(bench.MxMSweepOptions{})

	fmt.Printf("Small-matrix mxm sweep: shape (N*N x N) x (N x N), batched, AVX2=%v\n\n", sem.HasSIMD())
	fmt.Printf("%4s", "N")
	for _, v := range sem.MxMVariants {
		fmt.Printf(" %14s", v)
	}
	fmt.Println("  (Gflop/s)")
	var notes []string
	lastK := -1
	for _, r := range records {
		if r.K != lastK {
			if lastK != -1 {
				fmt.Println()
			}
			lastK = r.K
			fmt.Printf("%4d", r.K)
		}
		mark := " "
		if r.Effective != r.Variant {
			mark = "*"
			notes = append(notes, fmt.Sprintf("N=%d %s -> %s", r.K, r.Variant, r.Effective))
		}
		fmt.Printf(" %13.2f%s", r.Gflops, mark)
	}
	fmt.Println()
	if len(notes) > 0 {
		fmt.Println("\n* effective kernel differs from the requested variant:")
		for _, n := range notes {
			fmt.Printf("    %s\n", n)
		}
	}
}

// timeDeriv runs one direction/variant for the given number of steps on
// the pool (nil or width 1 runs serially) and returns total wall seconds
// and total op counts.
func timeDeriv(pl *pool.Pool, dir sem.Direction, v sem.KernelVariant, ref *sem.Ref1D, u, du []float64, nel, steps int) (float64, sem.OpCount) {
	start := time.Now()
	var ops sem.OpCount
	for s := 0; s < steps; s++ {
		ops = ops.Plus(sem.DerivPool(pl, dir, v, ref, u, du, nel))
	}
	return time.Since(start).Seconds(), ops
}
