package sem

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The mxm autotuner. Mirrors the gather-scatter startup tuning in
// internal/gs/tune.go: time every feasible candidate on scratch data,
// SelectBest picks the smallest cost (ties keep the earlier entry, so a
// deterministic timing list yields a deterministic choice), and the
// winner is committed exactly once after all measurement. Unlike the gs
// tuner, every mxm candidate is verified bit-exact against MxMBasic
// before it may be timed, so the tuned table can never change numerical
// results — only wall time. The committed table is published through an
// atomic pointer; MxMAuto dispatch concurrent with tuning sees either
// the old or the new table, both of which are correct.

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

// MxMCandidate is one timed kernel for one shape.
type MxMCandidate struct {
	Name string
	// Secs is the mean wall time of one call at this shape.
	Secs float64
	// Exact records the pre-timing verification: bit-identical output to
	// MxMBasic on random data. Inexact candidates are never selectable
	// (none exist today; the check is the safety interlock).
	Exact bool
}

// MxMTuneResult records one tuned shape: the candidates measured and the
// committed winner.
type MxMTuneResult struct {
	M, K, N    int
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

var mxmTuneMu sync.Mutex

// TuneMxM times every feasible kernel at each shape (m, k, n), verifies
// bit-exactness against MxMBasic, and commits each shape's winner as the
// MxMAuto dispatch entry for its k. Shapes with k outside [1, 16] are
// measured and reported but not committed (MxMAuto handles those k
// without a table). reps <= 0 picks a per-shape repetition count that
// keeps each candidate's measurement around a fixed flop budget.
func TuneMxM(shapes [][3]int, reps int) []MxMTuneResult {
	mxmTuneMu.Lock()
	defer mxmTuneMu.Unlock()

	results := make([]MxMTuneResult, 0, len(shapes))
	next := *mxmAutoTab.Load()
	rng := rand.New(rand.NewSource(1))
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		if m <= 0 || k <= 0 || n <= 0 {
			continue
		}
		a := make([]float64, m*k)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		b := make([]float64, k*n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := make([]float64, m*n)
		mxmBasic(a, m, b, k, want, n)

		r := reps
		if r <= 0 {
			// ~2e6 flops per candidate: enough to resolve the ranking on
			// these microsecond-scale kernels, cheap enough for startup.
			r = int(2e6 / float64(2*m*k*n))
			if r < 16 {
				r = 16
			}
		}

		fns, names := mxmTuneCandidates(k)
		got := make([]float64, m*n)
		cands := make([]MxMCandidate, len(fns))
		for i, fn := range fns {
			for j := range got {
				got[j] = math.NaN()
			}
			fn(a, m, b, k, got, n)
			exact := true
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					exact = false
					break
				}
			}
			cands[i] = MxMCandidate{Name: names[i], Exact: exact}
			if !exact {
				continue
			}
			start := time.Now()
			for t := 0; t < r; t++ {
				fn(a, m, b, k, got, n)
			}
			cands[i].Secs = time.Since(start).Seconds() / float64(r)
		}

		res := MxMTuneResult{M: m, K: k, N: n, Candidates: cands}
		if best := selectBestMxM(cands); best >= 0 {
			res.Winner = cands[best].Name
			if k >= 1 && k <= mxmGenMaxK {
				next.fn[k], next.name[k] = fns[best], cands[best].Name
			}
		}
		results = append(results, res)
	}
	// Commit once, after all measurement (the gs tuner's rule): dispatch
	// never sees a transient, partially tuned table.
	committed := next
	mxmAutoTab.Store(&committed)
	return results
}

var mxmTuneOnce sync.Once

// TuneMxMDefault tunes the derivative kernel's dominant shapes
// (m = k*k, n = k for every k with a generated specialization) once per
// process. Safe to call from concurrent solver constructions.
func TuneMxMDefault() {
	mxmTuneOnce.Do(func() {
		shapes := make([][3]int, 0, mxmGenMaxK)
		for k := 1; k <= mxmGenMaxK; k++ {
			shapes = append(shapes, [3]int{k * k, k, k})
		}
		TuneMxM(shapes, 0)
	})
}
