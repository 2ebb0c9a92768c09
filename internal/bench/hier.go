package bench

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/obs/critpath"
	"repro/internal/report"
)

// HierOptions parameterize the hierarchical-collectives scaling study.
type HierOptions struct {
	// MaxRanks is the largest modeled rank count (0 = 4096). Rank counts
	// sweep 256, 1024, 4096, ... up to this value; every count must be a
	// multiple of 16 (the modeled node width) with a power-of-two node
	// count, which the 4^k sweep guarantees.
	MaxRanks int
	// Topos lists the modeled fabrics (nil = fat-tree and dragonfly).
	Topos []string
	// Iters is the number of timed repetitions per collective (0 = 3).
	Iters int
	// DiagLen is the diagnostics-allreduce payload in floats (0 = 256,
	// the size of the solver's per-step flow-diagnostics reduction at
	// scale); ResidLen the residual allreduce (0 = 8).
	DiagLen, ResidLen int
	// Load is the static background load on the fabric (0 = 0.25;
	// negative for an idle fabric).
	Load float64
	// ReplayMax bounds congestion replay: scenarios with more ranks skip
	// the replay to keep trace memory bounded (0 = 1024; negative
	// disables replay entirely).
	ReplayMax int
}

func (o *HierOptions) fill() {
	if o.MaxRanks == 0 {
		o.MaxRanks = 4096
	}
	if o.Topos == nil {
		o.Topos = []string{"fat-tree", "dragonfly"}
	}
	if o.Iters == 0 {
		o.Iters = 3
	}
	if o.DiagLen == 0 {
		o.DiagLen = 256
	}
	if o.ResidLen == 0 {
		o.ResidLen = 8
	}
	if o.Load == 0 {
		o.Load = 0.25
	} else if o.Load < 0 {
		o.Load = 0
	}
	if o.ReplayMax == 0 {
		o.ReplayMax = 1024
	}
}

// HierScenario is one measured (topology, rank count, method) point.
type HierScenario struct {
	Scenario string
	Topo     string
	Ranks    int
	Method   string // "flat" or "hier"
	// Worst-rank modeled seconds per operation (averaged over Iters),
	// and the modeled makespan of the whole collective sequence.
	DiagTime, ResidTime, BcastTime, BarrierTime float64
	CollTime                                    float64
	// DiagCRC fingerprints the bits of the final diagnostics-allreduce
	// result; the study errors out if flat and hier disagree.
	DiagCRC uint64
	// DiagReduction and CollReduction compare hier against flat at the
	// same (topology, ranks): 1 - hier/flat. Zero on flat scenarios.
	DiagReduction, CollReduction float64
	// Critpath carries the congestion replay (most-queued links) for
	// scenarios small enough to trace.
	Critpath *critpath.Summary
}

// HierResult is the study output plus the knobs that produced it.
type HierResult struct {
	MaxRanks, Iters, DiagLen, ResidLen int
	Load                               float64
	Scenarios                          []HierScenario
}

// hierTopo builds the modeled fabric for one scenario.
func hierTopo(name string, ranks int, load float64) (*netmodel.Topology, error) {
	var t *netmodel.Topology
	var err error
	switch name {
	case "fat-tree":
		t, err = netmodel.FatTreeCluster(ranks)
	case "dragonfly":
		t, err = netmodel.DragonflyCluster(ranks)
	default:
		err = fmt.Errorf("unknown topology %q (want fat-tree or dragonfly)", name)
	}
	if err != nil {
		return nil, err
	}
	t.SetBackgroundLoad(load)
	return t, nil
}

// hierPayload fills a deterministic rank-and-iteration-seeded payload
// with full-mantissa values in [1, 2) — every bit of every element
// participates in the flat-vs-hier identity check.
func hierPayload(dst []float64, rank, salt int) {
	for i := range dst {
		x := uint64(rank)*0x9e3779b97f4a7c15 + uint64(salt)*0xbf58476d1ce4e5b9 + uint64(i) + 1
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		dst[i] = math.Float64frombits(0x3ff0000000000000 | x>>12)
	}
}

// runHierScenario times the per-step collective sequence of a solver
// iteration — a diagnostics allreduce, a residual max-allreduce, a
// control broadcast, a barrier — at the given scale with collectives
// either flat or hierarchical.
func runHierScenario(opts HierOptions, topoName string, ranks int, hier bool) (HierScenario, error) {
	topo, err := hierTopo(topoName, ranks, opts.Load)
	if err != nil {
		return HierScenario{}, err
	}
	model := netmodel.QDR
	model.Topo = topo

	commOpts := comm.Options{Model: model}
	if hier {
		h, err := comm.NewHierarchy(topo.NodeMap())
		if err != nil {
			return HierScenario{}, err
		}
		commOpts.Hierarchy = h
	}
	var tel *obs.Tracer
	if opts.ReplayMax > 0 && ranks <= opts.ReplayMax {
		tel = obs.NewTracer()
		commOpts.Tracer = obs.NewCommTracer(tel, nil)
	}

	diagT := make([]float64, ranks)
	residT := make([]float64, ranks)
	bcastT := make([]float64, ranks)
	barrierT := make([]float64, ranks)
	var crc uint64
	stats, err := comm.Run(ranks, commOpts, func(r *comm.Rank) error {
		id := r.ID()
		diag := make([]float64, opts.DiagLen)
		resid := make([]float64, opts.ResidLen)
		ctrl := make([]float64, opts.ResidLen)
		var last []float64
		for it := 0; it < opts.Iters; it++ {
			hierPayload(diag, id, 2*it)
			hierPayload(resid, id, 2*it+1)
			t0 := r.Clock().Now()
			last = r.Allreduce(comm.OpSum, diag)
			t1 := r.Clock().Now()
			r.Allreduce(comm.OpMax, resid)
			t2 := r.Clock().Now()
			r.Bcast(0, ctrl)
			t3 := r.Clock().Now()
			r.Barrier()
			t4 := r.Clock().Now()
			diagT[id] += t1 - t0
			residT[id] += t2 - t1
			bcastT[id] += t3 - t2
			barrierT[id] += t4 - t3
		}
		if id == 0 {
			// FNV-1a over the result bits: any single-bit divergence
			// between the flat and hierarchical paths changes it.
			h := uint64(14695981039346656037)
			for _, v := range last {
				b := math.Float64bits(v)
				for s := 0; s < 64; s += 8 {
					h = (h ^ (b >> s & 0xff)) * 1099511628211
				}
			}
			crc = h
		}
		return nil
	})
	if err != nil {
		return HierScenario{}, err
	}

	method := "flat"
	if hier {
		method = "hier"
	}
	worst := func(per []float64) float64 {
		m := 0.0
		for _, v := range per {
			if v > m {
				m = v
			}
		}
		return m / float64(opts.Iters)
	}
	out := HierScenario{
		Scenario: fmt.Sprintf("%s/p%d/%s", topoName, ranks, method),
		Topo:     topoName, Ranks: ranks, Method: method,
		DiagTime: worst(diagT), ResidTime: worst(residT),
		BcastTime: worst(bcastT), BarrierTime: worst(barrierT),
		CollTime: stats.MaxVirtualTime(),
		DiagCRC:  crc,
	}
	if tel != nil {
		replay := topo.ReplayCongestion(critpath.WireFlows(tel.Flows()))
		s := &critpath.Summary{Domain: "virtual", Makespan: replay.Makespan}
		s.AttachCongestion(replay, 8)
		out.Critpath = s
	}
	return out, nil
}

// RunHierStudy measures flat versus hierarchical collectives across
// modeled fabrics and rank counts. Every metric is modeled (virtual
// clocks), so the study is bit-reproducible on any host; it also
// enforces the repo's physics invariant by fingerprinting the allreduce
// result bits and failing if the two methods ever disagree.
func RunHierStudy(opts HierOptions) (*HierResult, error) {
	opts.fill()
	var counts []int
	for p := 256; p <= opts.MaxRanks; p *= 4 {
		counts = append(counts, p)
	}
	if len(counts) == 0 {
		counts = []int{opts.MaxRanks}
	}
	res := &HierResult{
		MaxRanks: opts.MaxRanks, Iters: opts.Iters,
		DiagLen: opts.DiagLen, ResidLen: opts.ResidLen, Load: opts.Load,
	}
	for _, topoName := range opts.Topos {
		for _, p := range counts {
			flat, err := runHierScenario(opts, topoName, p, false)
			if err != nil {
				return nil, fmt.Errorf("hier study %s/p%d/flat: %w", topoName, p, err)
			}
			hier, err := runHierScenario(opts, topoName, p, true)
			if err != nil {
				return nil, fmt.Errorf("hier study %s/p%d/hier: %w", topoName, p, err)
			}
			if flat.DiagCRC != hier.DiagCRC {
				return nil, fmt.Errorf("hier study %s/p%d: allreduce bits diverge between flat (%#x) and hier (%#x)",
					topoName, p, flat.DiagCRC, hier.DiagCRC)
			}
			hier.DiagReduction = 1 - hier.DiagTime/flat.DiagTime
			hier.CollReduction = 1 - hier.CollTime/flat.CollTime
			res.Scenarios = append(res.Scenarios, flat, hier)
		}
	}
	return res, nil
}

// Results converts the study into the unified schema.
func (r *HierResult) Results() []report.BenchResult {
	var out []report.BenchResult
	for _, s := range r.Scenarios {
		metrics := []report.Metric{
			{Name: "coll_time_s", Value: s.CollTime, Unit: "s", Deterministic: true, LessIsBetter: true},
			{Name: "allreduce_diag_s", Value: s.DiagTime, Unit: "s", Deterministic: true, LessIsBetter: true},
			{Name: "allreduce_resid_s", Value: s.ResidTime, Unit: "s", Deterministic: true, LessIsBetter: true},
			{Name: "bcast_s", Value: s.BcastTime, Unit: "s", Deterministic: true, LessIsBetter: true},
			{Name: "barrier_s", Value: s.BarrierTime, Unit: "s", Deterministic: true, LessIsBetter: true},
		}
		if s.Method == "hier" {
			metrics = append(metrics,
				report.Metric{Name: "allreduce_diag_reduction", Value: s.DiagReduction, Unit: "frac", Deterministic: true},
				report.Metric{Name: "coll_time_reduction", Value: s.CollReduction, Unit: "frac", Deterministic: true},
			)
		}
		out = append(out, report.BenchResult{
			Suite:    "scalebench-hier",
			Scenario: s.Scenario,
			Params: map[string]string{
				"topo": s.Topo, "ranks": fmt.Sprint(s.Ranks), "method": s.Method,
				"iters": fmt.Sprint(r.Iters), "diag_len": fmt.Sprint(r.DiagLen),
				"resid_len": fmt.Sprint(r.ResidLen), "load": fmt.Sprint(r.Load),
				"diag_crc": fmt.Sprintf("%#x", s.DiagCRC),
			},
			Metrics:  metrics,
			Critpath: s.Critpath,
		})
	}
	return out
}
