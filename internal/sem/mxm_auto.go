package sem

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The kernel autotuner: the per-k mxm table behind MxMAuto and the
// per-order r/s table behind Deriv(Optimized). Mirrors the gather-scatter
// startup tuning in internal/gs/tune.go: time every feasible candidate
// on scratch data, SelectBest picks the smallest cost (ties keep the
// earlier entry, so a deterministic timing list yields a deterministic
// choice), and the winner is committed exactly once after all
// measurement. Unlike the gs tuner, every candidate is verified bit-exact
// against its reference (MxMBasic; dudrOpt/dudsOpt) before it may be
// timed, so a tuned table can never change numerical results — only wall
// time. Each committed table is published through an atomic pointer;
// dispatch concurrent with tuning sees either the old or the new table,
// both of which are correct.

// HasSIMD reports whether the AVX2 assembly backend is active in this
// build on this host.
func HasSIMD() bool {
	return hasAVX2
}

// mxmTable is the per-k kernel dispatch table for MxMAuto. Index k in
// [1, mxmGenMaxK]; index 0 is unused (the shape guard rejects k <= 0).
type mxmTable struct {
	fn   [mxmGenMaxK + 1]mxmFunc
	name [mxmGenMaxK + 1]string
}

var mxmAutoTab atomic.Pointer[mxmTable]

func init() {
	mxmAutoTab.Store(defaultMxMTable())
	derivAutoTab.Store(defaultDerivTable())
}

// defaultMxMTable statically prefers the widest-coverage fast kernel:
// SIMD when the host has AVX2, else the generated fully-unrolled
// kernels. TuneMxM refines this by measurement.
func defaultMxMTable() *mxmTable {
	t := &mxmTable{}
	for k := 1; k <= mxmGenMaxK; k++ {
		if hasAVX2 {
			t.fn[k], t.name[k] = mxmSIMDOrFallback, "simd"
		} else {
			t.fn[k], t.name[k] = mxmGenOrFallback, "generated"
		}
	}
	return t
}

// MxMCandidate is one timed kernel of one tuned table entry.
type MxMCandidate struct {
	Name string
	// Secs is the mean wall time of one call, summed over the entry's
	// shapes.
	Secs float64
	// Exact records the pre-timing verification: bit-identical output to
	// the reference on random data at every shape. Inexact candidates are
	// never selectable (none exist today; the check is the safety
	// interlock).
	Exact bool
}

// MxMTuneResult records one tuned reduction size: the shapes it was
// measured at, the candidates, and the committed winner.
type MxMTuneResult struct {
	K          int
	Shapes     [][3]int // (m, k, n), each with k == K
	Winner     string
	Candidates []MxMCandidate
}

// mxmTuneCandidates lists the (kernel, name) pairs feasible at reduction
// size k, fastest-expected last so ties favor the simpler kernel.
func mxmTuneCandidates(k int) (fns []mxmFunc, names []string) {
	add := func(fn mxmFunc, name string) {
		fns = append(fns, fn)
		names = append(names, name)
	}
	add(mxmFusedUnroll, "fused+unroll")
	if k >= 1 && k <= mxmGenMaxK {
		add(mxmGenOrFallback, "generated")
	}
	if hasAVX2 {
		add(mxmSIMDOrFallback, "simd")
	}
	return fns, names
}

// selectBestMxM returns the index of the candidate with the smallest
// cost among those marked exact; ties keep the earlier entry.
func selectBestMxM(cands []MxMCandidate) int {
	best := -1
	for i, c := range cands {
		if !c.Exact {
			continue
		}
		if best < 0 || c.Secs < cands[best].Secs {
			best = i
		}
	}
	return best
}

// tuneOne verifies and times one candidate: run fills got, which must
// equal want bit for bit before the reps timed calls happen. It returns
// the mean seconds per call and whether the candidate is exact.
func tuneOne(run func(), got, want []float64, reps int) (secs float64, exact bool) {
	for i := range got {
		got[i] = math.NaN()
	}
	run()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return 0, false
		}
	}
	start := time.Now()
	for t := 0; t < reps; t++ {
		run()
	}
	return time.Since(start).Seconds() / float64(reps), true
}

// tuneReps is the per-candidate repetition count for calls of the given
// flop cost when the caller did not fix one: ~2e6 flops — enough to
// resolve the ranking on these microsecond-scale kernels, cheap enough
// for startup.
func tuneReps(reps int, flops float64) int {
	if reps > 0 {
		return reps
	}
	return max(16, int(2e6/flops))
}

func randNorm(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

var mxmTuneMu sync.Mutex

// TuneMxM groups shapes (m, k, n) by reduction size k, times every
// feasible kernel at each of a k's shapes, verifies bit-exactness against
// MxMBasic, and commits the kernel with the smallest summed time as the
// MxMAuto dispatch entry for that k. Sizes outside [1, 16] are measured
// and reported but not committed (MxMAuto handles those k without a
// table). reps <= 0 picks a per-shape repetition count that keeps each
// candidate's measurement around a fixed flop budget.
func TuneMxM(shapes [][3]int, reps int) []MxMTuneResult {
	mxmTuneMu.Lock()
	defer mxmTuneMu.Unlock()

	var results []MxMTuneResult
	at := map[int]int{} // k -> index into results
	for _, s := range shapes {
		if s[0] <= 0 || s[1] <= 0 || s[2] <= 0 {
			continue
		}
		i, ok := at[s[1]]
		if !ok {
			i = len(results)
			at[s[1]] = i
			results = append(results, MxMTuneResult{K: s[1]})
		}
		results[i].Shapes = append(results[i].Shapes, s)
	}

	next := *mxmAutoTab.Load()
	rng := rand.New(rand.NewSource(1))
	for i := range results {
		res := &results[i]
		k := res.K
		fns, names := mxmTuneCandidates(k)
		res.Candidates = make([]MxMCandidate, len(fns))
		for c := range fns {
			res.Candidates[c] = MxMCandidate{Name: names[c], Exact: true}
		}
		for _, s := range res.Shapes {
			m, n := s[0], s[2]
			a, b := randNorm(rng, m*k), randNorm(rng, k*n)
			want := make([]float64, m*n)
			mxmBasic(a, m, b, k, want, n)
			got := make([]float64, m*n)
			r := tuneReps(reps, float64(2*m*k*n))
			for c, fn := range fns {
				secs, exact := tuneOne(func() { fn(a, m, b, k, got, n) }, got, want, r)
				res.Candidates[c].Secs += secs
				res.Candidates[c].Exact = res.Candidates[c].Exact && exact
			}
		}
		if best := selectBestMxM(res.Candidates); best >= 0 {
			res.Winner = names[best]
			if k >= 1 && k <= mxmGenMaxK {
				next.fn[k], next.name[k] = fns[best], names[best]
			}
		}
	}
	// Commit once, after all measurement (the gs tuner's rule): dispatch
	// never sees a transient, partially tuned table.
	mxmAutoTab.Store(&next)
	return results
}

// mxmTuneShapes lists the (m, k, n) products production code sends
// through the MxMAuto table at reduction size k: Deriv along t
// (applyTMxM, one n x n^2 block per element), ApplyDir along s
// (applySMxM, one n x n block per slab), and stages 2 and 3 of
// TensorApply3 as dealiasing calls it — ToFine from order k, and
// FromFine of every order whose fine mesh has k points.
// TestMxMTuneShapesMatchCallers holds the list to those callers.
func mxmTuneShapes(k int) [][3]int {
	shapes := [][3]int{{k, k, k * k}}
	if k > 1 {
		nf := fineOrder(k)
		shapes = append(shapes, [3]int{k, k, k}, [3]int{nf, k, nf}, [3]int{nf, k, nf * nf})
	}
	for n := 2; fineOrder(n) <= k; n++ {
		if fineOrder(n) == k {
			shapes = append(shapes, [3]int{n, k, n}, [3]int{n, k, n * n})
		}
	}
	return shapes
}

// derivKernel is one r or s kernel Deriv(Optimized) can run at the
// generated orders.
type derivKernel struct {
	name string
	fn   axisFunc
	// fnT, where set (r only), is fn taking the operator transposed, for
	// a caller that has the transpose at hand (ElemDeriv: Ref1D.Dt).
	fnT axisFunc
}

// derivTable is the per-order r/s kernel table behind Deriv(Optimized):
// k[dir][n] for dir in {DirR, DirS} and n in [derivGenMinN,
// derivGenMaxN]. Every entry is bit-identical to dudrOpt/dudsOpt.
type derivTable struct {
	k [2][derivGenMaxN + 1]derivKernel
}

var derivAutoTab atomic.Pointer[derivTable]

// derivCandidates lists the kernels for dir (DirR or DirS) at a
// generated order n, fastest-expected last.
func derivCandidates(dir Direction, n int) []derivKernel {
	gen := derivKernel{name: "generated", fn: derivRGen[n]}
	if dir == DirS {
		gen.fn = derivSGen[n]
	}
	if simd, ok := derivSIMD(dir); ok {
		return []derivKernel{gen, simd}
	}
	return []derivKernel{gen}
}

// defaultDerivTable statically prefers the AVX2 kernel when the host has
// one, else the generated Go kernel. TuneDeriv refines this by
// measurement.
func defaultDerivTable() *derivTable {
	t := &derivTable{}
	for _, dir := range []Direction{DirR, DirS} {
		for n := derivGenMinN; n <= derivGenMaxN; n++ {
			cands := derivCandidates(dir, n)
			t.k[dir][n] = cands[len(cands)-1]
		}
	}
	return t
}

// DerivTuneResult records one tuned (direction, order) entry of the r/s
// table: the candidates measured over nel elements and the committed
// winner.
type DerivTuneResult struct {
	Dir        Direction
	N, Nel     int
	Winner     string
	Candidates []MxMCandidate
}

// TuneDeriv times the r and s kernels Deriv(Optimized) can run at each
// generated order in ns over a batch of nel elements, verifies each
// bit-exact against dudrOpt/dudsOpt, and commits the winners. Orders
// outside the generated range have one kernel and are skipped.
func TuneDeriv(ns []int, nel, reps int) []DerivTuneResult {
	mxmTuneMu.Lock()
	defer mxmTuneMu.Unlock()

	var results []DerivTuneResult
	next := *derivAutoTab.Load()
	rng := rand.New(rand.NewSource(1))
	for _, n := range ns {
		if n < derivGenMinN || n > derivGenMaxN || nel < 1 {
			continue
		}
		d := randNorm(rng, n*n)
		u := randNorm(rng, nel*n*n*n)
		want, got := make([]float64, len(u)), make([]float64, len(u))
		r := tuneReps(reps, float64(2*n*len(u)))
		for _, dir := range []Direction{DirR, DirS} {
			[...]axisFunc{DirR: dudrOpt, DirS: dudsOpt}[dir](d, n, u, want, nel)
			cands := derivCandidates(dir, n)
			res := DerivTuneResult{Dir: dir, N: n, Nel: nel, Candidates: make([]MxMCandidate, len(cands))}
			for c, k := range cands {
				secs, exact := tuneOne(func() { k.fn(d, n, u, got, nel) }, got, want, r)
				res.Candidates[c] = MxMCandidate{Name: k.name, Secs: secs, Exact: exact}
			}
			if best := selectBestMxM(res.Candidates); best >= 0 {
				res.Winner = cands[best].name
				next.k[dir][n] = cands[best]
			}
			results = append(results, res)
		}
	}
	derivAutoTab.Store(&next)
	return results
}

var mxmTuneOnce sync.Once

// TuneMxMDefault tunes, once per process, every table entry production
// dispatches through: the MxMAuto kernel of each k in [1, 16] on the
// shapes the code calls it at (mxmTuneShapes), and the r/s derivative
// kernel of each generated order. Safe to call from concurrent solver
// constructions.
func TuneMxMDefault() {
	mxmTuneOnce.Do(func() {
		var shapes [][3]int
		for k := 1; k <= mxmGenMaxK; k++ {
			shapes = append(shapes, mxmTuneShapes(k)...)
		}
		TuneMxM(shapes, 0)
		var ns []int
		for n := derivGenMinN; n <= derivGenMaxN; n++ {
			ns = append(ns, n)
		}
		TuneDeriv(ns, 4, 0)
	})
}
