package repro

import (
	"io"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/fault"
	"repro/internal/loadbal"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/solver"
)

// The option matrix runs one small problem under each execution option
// through fault.Runner, which runs the steps of every cmtbone run.
const (
	matrixRanks = 8
	matrixSteps = 6
)

// matrixSetup is one row's run: the solver and communicator
// configuration, and what the rank program adds on top.
type matrixSetup struct {
	cfg       solver.Config
	opts      comm.Options
	spec      *fault.Spec
	ckptEvery int
	loadbal   bool
	// preemptAt, when positive, stops the run through the runner's hook
	// once it reaches that step, writes a suspend image into a memory
	// store and resumes from it in a fresh comm.Run — the server's
	// preemption path.
	preemptAt int
	reg       *obs.Registry
	tel       *obs.Tracer
	coll      *obs.StepCollector
}

// matrixResult is what one run leaves: the final state by gid, every
// world rank's virtual clock, the finishing ranks' reports and
// balancers by world rank, with overlap the interior element count of
// each world rank's solver as a segment starts and the finishing
// solvers' total, and the injector, registry and tracer the row
// installed.
type matrixResult struct {
	state       map[int64][]float64
	clocks      []float64
	reports     map[int]solver.Report
	lbs         map[int]*loadbal.Balancer
	overlap     bool
	interior    map[int]int
	interiorEnd int
	stats       *comm.Stats
	inj         *fault.Injector
	reg         *obs.Registry
	tel         *obs.Tracer
}

// runMatrix runs the problem. plain runs Solver.Run, the reference;
// otherwise the row's option is applied and fault.Runner drives.
func runMatrix(t *testing.T, physics func(*solver.Config), option func(*matrixSetup), plain bool) matrixResult {
	t.Helper()
	cfg := solver.DefaultConfig(matrixRanks, 4, 2)
	if physics != nil {
		physics(&cfg)
	}
	m := &matrixSetup{cfg: cfg, opts: cfg.CommOptions(netmodel.QDR)}
	if option != nil {
		option(m)
	}
	var inj *fault.Injector
	if m.spec != nil {
		inj = fault.NewInjector(m.spec, matrixRanks, nil)
		m.opts.Faults = inj
	}
	dir := checkpoint.Dir(t.TempDir())
	suspended := new(checkpoint.Mem)
	res := matrixResult{
		state: map[int64][]float64{}, reports: map[int]solver.Report{}, lbs: map[int]*loadbal.Balancer{},
		overlap: m.cfg.Overlap, interior: map[int]int{}, inj: inj, reg: m.reg, tel: m.tel,
	}
	var mu sync.Mutex
	// segment runs the steps from first on; a preempt row's first
	// segment stops at preemptAt and the second resumes from its image.
	segment := func(first int) (*comm.Stats, error) {
		return comm.Run(matrixRanks, m.opts, func(r *comm.Rank) error {
			s, err := solver.New(r, m.cfg)
			if err != nil {
				return err
			}
			if first > 0 {
				_, tm, err := checkpoint.RestoreRemapped(s, suspended, "suspend", matrixRanks)
				if err != nil {
					s.Close()
					return err
				}
				s.SetSimTime(tm)
			} else {
				s.SetInitial(solver.GaussianPulse(
					float64(m.cfg.ElemGrid[0])/2, float64(m.cfg.ElemGrid[1])/2, float64(m.cfg.ElemGrid[2])/2,
					0.1, 0.5))
			}
			if m.cfg.Overlap {
				mu.Lock()
				res.interior[r.WorldID()] = s.InteriorElems()
				mu.Unlock()
			}
			var rep solver.Report
			var b *loadbal.Balancer
			if plain {
				defer s.Close()
				rep = s.Run(matrixSteps)
			} else {
				if m.loadbal {
					b = loadbal.New(s, nil, m.reg, loadbal.Config{Every: 2})
				}
				fcfg := fault.Config{Spec: m.spec, Store: dir, CkptEvery: m.ckptEvery}
				if m.preemptAt > 0 && first == 0 {
					fcfg.Hook = func(step int, _ float64, _ *solver.Solver) bool { return step+1 == m.preemptAt }
				}
				rn, err := fault.NewRunner(s, fcfg)
				if err != nil {
					s.Close()
					return err
				}
				defer rn.Close()
				if rep, err = rn.Run(first, matrixSteps, b); err != nil {
					return err
				}
				s = rn.Solver()
				if rep.Steps < matrixSteps {
					return suspended.Write("suspend", s, int64(rep.Steps), s.SimTime())
				}
			}
			n3 := s.Cfg.N * s.Cfg.N * s.Cfg.N
			mu.Lock()
			defer mu.Unlock()
			for e := 0; e < s.Local.Nel; e++ {
				flat := make([]float64, 0, solver.NumFields*n3)
				for c := 0; c < solver.NumFields; c++ {
					flat = append(flat, s.U[c][e*n3:(e+1)*n3]...)
				}
				res.state[s.Local.GID(e)] = flat
			}
			res.reports[r.WorldID()] = rep
			res.interiorEnd += s.InteriorElems()
			if b != nil {
				res.lbs[r.WorldID()] = b
			}
			return nil
		})
	}
	stats, err := segment(0)
	if err == nil && m.preemptAt > 0 && !plain {
		stats, err = segment(m.preemptAt)
	}
	if err != nil {
		t.Fatal(err)
	}
	if m.coll != nil {
		if _, err := m.coll.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	res.clocks, res.stats = stats.VirtualTimes, stats
	return res
}

func viscousDealias(cfg *solver.Config) {
	cfg.Mu = 0.01
	cfg.Dealias = true
}

func filtered(cfg *solver.Config) { cfg.FilterCutoff = 3 }

// interior gives each rank 4 x 4 x 4 elements, 8 of them interior (no
// face on a rank boundary), in four runs; at the matrix's 2 x 2 x 2
// every element is a boundary element and overlap has no interior work,
// so every overlap row runs on it.
func interior(cfg *solver.Config) {
	for d := range cfg.ElemGrid {
		cfg.ElemGrid[d] = 4 * cfg.ProcGrid[d]
	}
}

func filteredInterior(cfg *solver.Config) { filtered(cfg); interior(cfg) }

func viscousInterior(cfg *solver.Config) { viscousDealias(cfg); interior(cfg) }

func hotRank3(m *matrixSetup) {
	box, err := m.cfg.Mesh()
	if err != nil {
		panic(err)
	}
	m.cfg.HotElems = map[int64]float64{}
	for _, gid := range box.Partition(3).GIDs() {
		m.cfg.HotElems[gid] = 4
	}
	m.loadbal = true
	m.reg = obs.NewRegistry()
}

func hier(m *matrixSetup) { m.opts.Hierarchy = comm.BlockHierarchy(matrixRanks, 4) }

func messageFaults(m *matrixSetup) {
	m.spec = &fault.Spec{Seed: 12345, Messages: fault.MsgFaults{
		Drop: 0.05, Corrupt: 0.1, Delay: 0.05,
		DelaySeconds: 2e-6, RetransmitSeconds: 1e-5,
	}}
}

func preempt3(m *matrixSetup) { m.preemptAt = 3 }

func crash5(m *matrixSetup) {
	m.spec = &fault.Spec{Seed: 7, Crashes: []fault.CrashSpec{{Rank: 5, Step: 4}}}
	m.ckptEvery = 2
}

// TestOptionMatrixInvariance is the execution-option invariant: every
// option below changes how the run executes, never the physics, so each
// row's final state, gathered by gid, is bit-identical to the plain run
// (the survivors' state, after a crash). Options that only observe or
// parallelise inside a rank (telemetry, workers) leave every virtual
// clock bit-identical too, and every row is deterministic: two runs
// give the same per-rank clocks.
func TestOptionMatrixInvariance(t *testing.T) {
	rows := []struct {
		name    string
		physics func(*solver.Config)
		option  func(*matrixSetup)
		neutral bool // virtual clocks equal the plain run's
		check   func(t *testing.T, got, plain matrixResult)
	}{
		// A nil spec and no balancer: the runner is Solver.Run.
		{name: "runner", option: func(*matrixSetup) {}, neutral: true},
		{
			name: "telemetry", neutral: true,
			option: func(m *matrixSetup) {
				m.tel = obs.NewTracer()
				reg := obs.NewRegistry()
				m.cfg.Obs, m.cfg.Metrics = m.tel, reg
				m.coll = obs.NewStepCollector(io.Discard, matrixRanks, reg)
				m.cfg.Steps = m.coll
				m.opts.Tracer = obs.NewCommTracer(m.tel, reg)
			},
			check: checkTelemetry,
		},
		{name: "hier", option: hier, check: checkSameReports},
		{name: "workers=3", neutral: true, option: func(m *matrixSetup) { m.cfg.Workers = 3 }},
		{name: "overlap", physics: interior, option: func(m *matrixSetup) { m.cfg.Overlap = true }},
		{name: "loadbal+hot", option: hotRank3, check: checkMigrated},
		{name: "message-faults", option: messageFaults, check: checkFaultsCounted},
		{name: "crash+ckpt", option: crash5, check: checkCrash},
		{
			name:   "loadbal+crash",
			option: func(m *matrixSetup) { hotRank3(m); crash5(m) },
			check: func(t *testing.T, got, plain matrixResult) {
				checkCrash(t, got, plain)
				checkMigrated(t, got, plain)
			},
		},
		{
			name:    "viscous+dealias",
			physics: viscousInterior,
			option:  func(m *matrixSetup) { m.cfg.Workers = 3; m.cfg.Overlap = true },
		},
		// The viscous path paired with each option that reorders,
		// parallelises, migrates or restores its elements.
		{name: "viscous+overlap", physics: viscousInterior, option: func(m *matrixSetup) { m.cfg.Overlap = true }},
		{name: "viscous+workers=3", physics: viscousDealias, neutral: true, option: func(m *matrixSetup) { m.cfg.Workers = 3 }},
		{name: "viscous+loadbal+hot", physics: viscousDealias, option: hotRank3, check: checkMigrated},
		{name: "viscous+crash+ckpt", physics: viscousDealias, option: crash5, check: checkCrash},
		// Overlap bills its interior and boundary runs one by one, and
		// those runs are rebuilt after a Remap and after the Shrink
		// rebuild.
		{
			name: "overlap+loadbal+hot", physics: interior,
			option: func(m *matrixSetup) { hotRank3(m); m.cfg.Overlap = true },
			check:  checkMigrated,
		},
		{
			name: "viscous+overlap+crash+ckpt", physics: viscousInterior,
			option: func(m *matrixSetup) { crash5(m); m.cfg.Overlap = true },
			check:  checkCrash,
		},
		// The spectral filter runs per element in the post-exchange pass,
		// on every pool slot, and the slots' scratch is rebuilt with the
		// solver after the Shrink.
		{name: "filter+workers=3", physics: filtered, neutral: true, option: func(m *matrixSetup) { m.cfg.Workers = 3 }},
		// The inviscid overlap path runs the interior elements' whole
		// post-exchange pass (volume, lift, update) inside the exchange
		// window, on every pool slot, with the filter after the last
		// stage.
		{name: "overlap+workers=3", physics: interior, option: func(m *matrixSetup) { m.cfg.Overlap = true; m.cfg.Workers = 3 }},
		{name: "filter+overlap", physics: filteredInterior, option: func(m *matrixSetup) { m.cfg.Overlap = true }},
		{
			name:   "workers=3+crash+ckpt",
			option: func(m *matrixSetup) { crash5(m); m.cfg.Workers = 3 },
			check:  checkCrash,
		},
		// The gs handle and the face pairing are rebuilt after a Remap
		// and after the Shrink rebuild, here under hierarchical
		// collectives; the split-phase exchange runs in place on the
		// rank-boundary faces while the wire drops, corrupts and delays.
		{
			name:   "hier+loadbal+hot",
			option: func(m *matrixSetup) { hotRank3(m); hier(m) },
			check:  checkMigrated,
		},
		{
			name: "message-faults+overlap", physics: interior,
			option: func(m *matrixSetup) {
				messageFaults(m)
				m.cfg.Overlap = true
			},
			check: checkFaultsCounted,
		},
		{
			name:   "hier+crash+ckpt",
			option: func(m *matrixSetup) { crash5(m); hier(m) },
			check:  checkCrash,
		},
		// The server's preemption: stop through the runner's hook, write
		// a suspend image into a memory store, restore it onto a fresh
		// communicator and finish there.
		{name: "preempt+resume", option: preempt3},
		{name: "overlap+preempt+resume", physics: interior, option: func(m *matrixSetup) { preempt3(m); m.cfg.Overlap = true }},
		{name: "loadbal+hot+preempt+resume", option: func(m *matrixSetup) { hotRank3(m); preempt3(m) }},
	}
	plains := map[uintptr]matrixResult{} // by physics
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			physics := reflect.ValueOf(row.physics).Pointer()
			plain, ok := plains[physics]
			if !ok {
				plain = runMatrix(t, row.physics, nil, true)
				plains[physics] = plain
			}
			got := runMatrix(t, row.physics, row.option, false)
			compareMatrixStates(t, got.state, plain.state)
			if row.neutral {
				compareClocks(t, "plain run", got.clocks, plain.clocks)
			}
			again := runMatrix(t, row.physics, row.option, false)
			compareClocks(t, "first run", again.clocks, got.clocks)
			if got.overlap {
				checkInterior(t, got)
			}
			if row.check != nil {
				row.check(t, got, plain)
			}
		})
	}
}

// checkInterior: an overlap row holds the interior path (work inside the
// exchange window) only where ranks hold interior elements: every rank
// when a segment starts, and some rank still at the end, after any
// Remap or Shrink rebuild. (A rebalanced rank may hold none: the Morton
// chunks that split overlap+loadbal+hot's hot block give ranks 2-4 22 to
// 34 elements and no interior one.)
func checkInterior(t *testing.T, got matrixResult) {
	t.Helper()
	if len(got.interior) != matrixRanks {
		t.Fatalf("interior counts from %d ranks, want %d", len(got.interior), matrixRanks)
	}
	for w, n := range got.interior {
		if n == 0 {
			t.Errorf("overlap row: rank %d starts with no interior element, so no work overlaps its exchange", w)
		}
	}
	if got.interiorEnd == 0 {
		t.Error("overlap row: no finishing rank holds an interior element")
	}
}

// checkTelemetry: telemetry reads the virtual clock but never advances
// it, so the makespan and the physics are bit-identical — and it
// actually observed the run: every rank produced spans, and the wire
// messages produced flows.
func checkTelemetry(t *testing.T, got, plain matrixResult) {
	if a, b := got.stats.MaxVirtualTime(), plain.stats.MaxVirtualTime(); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("telemetry changed the modeled makespan: %v -> %v", b, a)
	}
	if a, b := got.reports[0].Mass, plain.reports[0].Mass; math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("telemetry changed the physics: mass %v -> %v", b, a)
	}
	perRank := map[int]int{}
	for _, s := range got.tel.Spans() {
		perRank[s.Rank]++
	}
	if len(perRank) != matrixRanks {
		t.Fatalf("spans cover %d ranks, want %d", len(perRank), matrixRanks)
	}
	if len(got.tel.Flows()) == 0 {
		t.Error("no flow events recorded for wire messages")
	}
}

// checkSameReports: the report's scalars come out of collectives, so
// every rank holds the same bits — a divergence would mean the
// hierarchical tree combined in a different order on different ranks.
func checkSameReports(t *testing.T, got, plain matrixResult) {
	for w, rep := range got.reports {
		if rep != got.reports[0] {
			t.Fatalf("rank %d report %+v differs from rank 0's %+v", w, rep, got.reports[0])
		}
	}
	if got.reports[0] != plain.reports[0] {
		t.Fatalf("report %+v, flat %+v", got.reports[0], plain.reports[0])
	}
}

// checkMigrated: the balancer migrated, and every finishing rank holds
// the global migration volume — what the ranks' own Remap calls sent,
// summed in the shared registry, the dead rank's sends included.
func checkMigrated(t *testing.T, got, _ matrixResult) {
	elems := got.reg.Counter("loadbal_migrated_elems").Value()
	bytes := got.reg.Counter("loadbal_migrated_bytes").Value()
	if elems == 0 {
		t.Fatal("the balancer never migrated")
	}
	for w, b := range got.lbs {
		if int64(b.MovedElems) != elems || b.MovedBytes != bytes {
			t.Fatalf("rank %d counts %d elements (%d B) migrated, the ranks sent %d (%d B)",
				w, b.MovedElems, b.MovedBytes, elems, bytes)
		}
	}
}

// checkFaultsCounted: the faults fired, and without a crash every
// corrupted copy was received and caught.
func checkFaultsCounted(t *testing.T, got, _ matrixResult) {
	c := got.inj.Total()
	if c.Drops == 0 || c.Corrupts == 0 || c.Delays == 0 || c.Detected != c.Corrupts {
		t.Fatalf("fault counts %+v", c)
	}
}

func checkCrash(t *testing.T, got, _ matrixResult) {
	if len(got.stats.Killed) != 1 || got.stats.Killed[0] != 5 {
		t.Fatalf("Stats.Killed = %v, want [5]", got.stats.Killed)
	}
	if len(got.reports) != matrixRanks-1 {
		t.Fatalf("%d ranks finished, want %d", len(got.reports), matrixRanks-1)
	}
}

func compareMatrixStates(t *testing.T, got, want map[int64][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("state covers %d elements, want %d", len(got), len(want))
	}
	for gid, w := range want {
		g, ok := got[gid]
		if !ok {
			t.Fatalf("element %d missing", gid)
		}
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("element %d value %d: %v != %v (not bit-identical)", gid, j, g[j], w[j])
			}
		}
	}
}

func compareClocks(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for r := range want {
		if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
			t.Fatalf("rank %d virtual clock %v, %v in the %s", r, got[r], want[r], what)
		}
	}
}
