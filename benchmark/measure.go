package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// A run first sets the workload up repeatedly without stepping it, for
// setupSeconds but at least setupReps times, on top of the set-up each
// measured round does anyway: set-up is short, so it takes many samples
// to pin down.
var (
	setupReps    = 20
	setupSeconds = 3.0
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one invocation measured; it is printed for
// people and stored next to the trace.
type report struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	result
	Problems []string `json:"problems,omitempty"`
	Final    final    `json:"final"`
	Rounds   int      `json:"rounds"`

	RawStepS       []float64 `json:"raw_step_s,omitempty"`
	RawSetupS      []float64 `json:"raw_setup_s,omitempty"`
	StepMedian     float64   `json:"step_median_s"`
	StepSamples    int       `json:"step_samples"`
	StepTail       tail      `json:"step_tail"`
	NsPerPointStep float64   `json:"ns_per_point_step"`
	SetupSamples   int       `json:"setup_samples"`

	Host *hostInfo `json:"host,omitempty"`
	// SpanS sums the harness's spans by name: total seconds and self
	// seconds (total minus what child spans cover), all ranks.
	SpanS  map[string][2]float64 `json:"span_total_self_s,omitempty"`
	Ledger []ledgerRow           `json:"ledger,omitempty"`
}

func fullRound(w workload, seed int64) roundSpec {
	return roundSpec{Workload: w.Name, Seed: seed, Mode: modePlain, TCP: w.TCP, Warmup: w.Warmup, Steps: w.Steps}
}

// shortRound is the round the unit tests and the probes run: long
// enough to reach steady state, short enough to cost nothing.
func shortRound(w workload, seed int64) roundSpec {
	return roundSpec{Workload: w.Name, Seed: seed, Mode: modePlain, TCP: w.TCP, Warmup: 1, Steps: 5}
}

func selfRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss)
}

// measure runs one workload for about seconds of measured rounds and
// returns its report: end-to-end metrics untraced, or per-layer metrics
// when traced.
func measure(ctx context.Context, w workload, seed int64, seconds float64, traced bool) (*report, error) {
	chk, err := newChecker(w, seed)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced}
	if traced {
		err = measureLayers(ctx, w, seed, seconds, chk, rep)
	} else {
		measureEndToEnd(ctx, w, seed, seconds, chk, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct, rep.Attempted, rep.Failed, rep.Problems = chk.correct(), chk.attempted, chk.failed, chk.problems
	if f, ok := chk.seen[w.Warmup+w.Steps]; ok {
		rep.Final = f
	}
	return rep, nil
}

func measureEndToEnd(ctx context.Context, w workload, seed int64, seconds float64, chk *checker, rep *report) {
	var setups, steps []float64
	var childRSS int64

	run := func(spec roundSpec) bool {
		out, err := runRound(ctx, spec)
		if !chk.round(ctx, spec, out, err) {
			return false
		}
		setups = append(setups, out.setupS())
		steps = append(steps, out.Ranks[0].StepS...)
		childRSS = max(childRSS, out.ChildRSS)
		// A round's solver is garbage once it is judged; collecting it
		// now keeps the peak at one live solver however rounds fall.
		runtime.GC()
		return true
	}

	setupOnly := fullRound(w, seed)
	setupOnly.Warmup, setupOnly.Steps = 0, 0
	for i, start := 0, time.Now(); i < setupReps || time.Since(start).Seconds() < setupSeconds; i++ {
		if !run(setupOnly) {
			return
		}
	}
	full := fullRound(w, seed)
	for start := time.Now(); rep.Rounds == 0 || time.Since(start).Seconds() < seconds; rep.Rounds++ {
		if !run(full) {
			return
		}
	}

	stepS := fastEdge(steps)
	rep.RawStepS, rep.RawSetupS = steps, setups
	rep.StepMedian, rep.StepSamples, rep.StepTail, rep.SetupSamples = median(steps), len(steps), highTail(steps), len(setups)
	rep.NsPerPointStep = stepS * 1e9 / float64(w.points())
	rep.Metrics = map[string]metric{
		"step_s":      {stepS, "s"},
		"setup_s":     {fastEdge(setups), "s"},
		"peak_rss_mb": {float64(selfRSSKB()+childRSS) / 1024, "MB"},
	}
}

// ledgerRow attributes part of a step to one probe: its unit time, how
// many units a step runs, and what share of the untraced step that is.
// Kernel rows also carry the roofline comparison.
type ledgerRow struct {
	Probe        string  `json:"probe"`
	UnitS        float64 `json:"unit_s"`
	CallsPerStep float64 `json:"calls_per_step"`
	StepShare    float64 `json:"step_share"`
	Flops        int64   `json:"flops,omitempty"`
	Bytes        int64   `json:"bytes_computed,omitempty"`
	FlopsPerByte float64 `json:"flops_per_byte,omitempty"`
	GFlops       float64 `json:"gflops,omitempty"`
	RooflineFrac float64 `json:"roofline_frac,omitempty"`
}

func newLedgerRow(name string, p probe, calls, stepS float64, host hostInfo) ledgerRow {
	row := ledgerRow{Probe: name, UnitS: p.Seconds, CallsPerStep: calls, StepShare: p.Seconds * calls / stepS,
		Flops: p.Flops, Bytes: p.Bytes}
	if p.Flops > 0 && p.Bytes > 0 {
		row.FlopsPerByte = float64(p.Flops) / float64(p.Bytes)
		row.GFlops = float64(p.Flops) / p.Seconds / 1e9
		row.RooflineFrac = row.GFlops / math.Min(host.GFlops, host.TriadGBs*row.FlopsPerByte)
	}
	return row
}

func measureLayers(ctx context.Context, w workload, seed int64, seconds float64, chk *checker, rep *report) error {
	// Rounds cycle plain -> traced -> obs so the three step times the
	// overhead fractions compare were taken side by side.
	modes := []string{modePlain, modeTraced, modeObs}
	steps := map[string][]float64{}
	var spans []span
	var dtS []float64
	var loopS, loopMPIS, loopVTS float64
	var alloc uint64
	var gsMsgs, gsBytes int64
	tracedRounds := 0
	for start := time.Now(); rep.Rounds < len(modes) || time.Since(start).Seconds() < seconds; rep.Rounds++ {
		spec := fullRound(w, seed)
		spec.Mode = modes[rep.Rounds%len(modes)]
		out, err := runRound(ctx, spec)
		if !chk.round(ctx, spec, out, err) {
			return nil
		}
		steps[spec.Mode] = append(steps[spec.Mode], out.Ranks[0].StepS...)
		if spec.Mode != modeTraced {
			continue
		}
		tracedRounds++
		rs := out.spans()
		for _, s := range rs {
			if s.Name == "solver.stabledt" && s.Rank == 0 {
				dtS = append(dtS, float64(s.End-s.Start)/1e9)
			}
		}
		spans = mergeSpans(spans, rs)
		alloc += out.Ranks[0].Alloc
		loopVTS += out.Ranks[0].LoopVTS
		for _, r := range out.Ranks {
			loopS += r.LoopS
			loopMPIS += r.LoopMPIS
			gsMsgs += r.GSMsgs
			gsBytes += r.GSBytes
		}
	}

	// The probes follow a short round on the workload's own transport;
	// the tcptransport probes are the communicator probes over worker
	// processes, whatever the workload's transport is.
	probeSpec := shortRound(w, seed)
	probeSpec.Mode, probeSpec.Probes = modeTraced, "all"
	out, err := runRound(ctx, probeSpec)
	if !chk.round(ctx, probeSpec, out, err) {
		return nil
	}
	probes := out.Ranks[0].Probes
	spans = mergeSpans(spans, out.spans())
	tcpProbes := probes
	if !w.TCP {
		tcpSpec := probeSpec
		tcpSpec.TCP, tcpSpec.Probes = true, "comm"
		out, err := runRound(ctx, tcpSpec)
		if !chk.round(ctx, tcpSpec, out, err) {
			return nil
		}
		tcpProbes = out.Ranks[0].Probes
		spans = mergeSpans(spans, out.spans())
	}
	if err := checkSpans(spans); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	total, self := spanTotals(spans)
	rep.SpanS = map[string][2]float64{}
	for name := range total {
		rep.SpanS[name] = [2]float64{total[name], self[name]}
	}
	if err := writeJSON(filepath.Join(outDir, "trace-"+w.Name+".json"),
		map[string]any{"workload": w.Name, "seed": seed, "spans": spans}); err != nil {
		return err
	}

	// The raw loopback ping-pong carries the workload's own gs_op
	// message size, so it bounds the transport probe like for like.
	host, err := probeHost(int(gsBytes / gsMsgs))
	if err != nil {
		return err
	}
	rep.Host = &host

	plainS, tracedS := fastEdge(steps[modePlain]), fastEdge(steps[modeTraced])
	calls := callsPerStep(w)
	attributed := 0.0
	rows := map[string]ledgerRow{}
	for _, name := range []string{pDeriv, pGrad3, pDealias, pFaceOut, pFaceIn, pGSOp, pAllreduce} {
		row := newLedgerRow(name, probes[name], calls[name], plainS, host)
		rows[name] = row
		rep.Ledger = append(rep.Ledger, row)
		attributed += row.StepShare
	}
	// The two face kernels are one layer metric: their unit times add,
	// and the roofline compares their summed work with their summed time.
	pf, pa := probes[pFaceOut], probes[pFaceIn]
	faces := newLedgerRow("sem.faces", probe{Seconds: pf.Seconds + pa.Seconds, Flops: pf.Flops + pa.Flops,
		Bytes: pf.Bytes + pa.Bytes}, 0, plainS, host)

	timedSteps := float64(tracedRounds * w.Steps)
	allSteps := float64(tracedRounds * (w.Warmup + w.Steps))
	rep.StepMedian, rep.StepSamples, rep.StepTail = median(steps[modeTraced]), len(steps[modeTraced]), highTail(steps[modeTraced])
	rep.Metrics = map[string]metric{
		"solver.step_s":                  {tracedS, "s"},
		"solver.stabledt_s":              {fastEdge(dtS), "s"},
		"solver.alloc_bytes_per_step":    {float64(alloc) / timedSteps, "B/step"},
		"solver.model_ratio":             {tracedS / (loopVTS / timedSteps), "ratio"},
		"trace_overhead_frac":            {(tracedS - plainS) / plainS, "frac"},
		"unattributed_frac":              {1 - attributed, "frac"},
		"sem.deriv_s":                    {probes[pDeriv].Seconds, "s"},
		"sem.deriv_roofline_frac":        {rows[pDeriv].RooflineFrac, "frac"},
		"sem.grad3_s":                    {probes[pGrad3].Seconds, "s"},
		"sem.grad3_roofline_frac":        {rows[pGrad3].RooflineFrac, "frac"},
		"sem.dealias_s":                  {probes[pDealias].Seconds, "s"},
		"sem.dealias_roofline_frac":      {rows[pDealias].RooflineFrac, "frac"},
		"sem.faces_s":                    {faces.UnitS, "s"},
		"sem.faces_roofline_frac":        {faces.RooflineFrac, "frac"},
		"gs.op_s":                        {probes[pGSOp].Seconds, "s"},
		"gs.setup_s":                     {probes[pGSSetup].Seconds, "s"},
		"gs.msgs_per_step":               {float64(gsMsgs) / allSteps, "count"},
		"gs.bytes_per_step":              {float64(gsBytes) / allSteps, "B"},
		"comm.allreduce_s":               {probes[pAllreduce].Seconds, "s"},
		"comm.p2p_rtt_s":                 {probes[pP2P].Seconds, "s"},
		"comm.wait_frac":                 {loopMPIS / loopS, "frac"},
		"tcptransport.allreduce_s":       {tcpProbes[pAllreduce].Seconds, "s"},
		"tcptransport.p2p_rtt_s":         {tcpProbes[pP2P].Seconds, "s"},
		"tcptransport.rtt_over_loopback": {tcpProbes[pP2P].Seconds * 1e6 / host.LoopbackRTTus, "ratio"},
		"obs.overhead_frac":              {(fastEdge(steps[modeObs]) - plainS) / plainS, "frac"},
	}
	return nil
}
