package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/comm"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/solver"
)

// np is the rank count of every workload: the host this benchmark is
// sized for reports two cores, so each rank gets one (Workers=1) and
// wall-clock scaling is not diluted by oversubscription.
const np = 2

// defaultSeed is the seed the committed goldens were recorded with.
const defaultSeed = 1

// workload is one benchmark problem (why each was chosen is recorded in
// BENCHMARK.json and README.md). A round builds its solver from
// nothing, discards Warmup steps, and times Steps steps; the step
// counts are frozen so a round's final state can be compared bit for
// bit with a golden, and --seconds decides only how many rounds run.
type workload struct {
	Name    string
	N       int     // LGL points per direction per element
	Local   int     // elements per rank per direction
	Mu      float64 // > 0: viscous Navier-Stokes path
	Dealias bool
	TCP     bool   // ranks are OS processes over loopback TCP
	Golden  string // golden file (tcp.n5 must equal comm.n5's)
	Warmup  int
	Steps   int
}

// massTol bounds |mass - mass0| / mass0 after a round: the scheme
// conserves mass on a periodic box up to summation rounding (3e-14 seen).
const massTol = 1e-12

var workloads = []workload{
	{Name: "compute.n10", N: 10, Local: 4, Golden: "compute.n10", Warmup: 3, Steps: 40},
	{Name: "visc.n10", N: 10, Local: 3, Mu: 0.01, Dealias: true, Golden: "visc.n10", Warmup: 3, Steps: 40},
	{Name: "comm.n5", N: 5, Local: 2, Golden: "comm.n5", Warmup: 50, Steps: 700},
	{Name: "tcp.n5", N: 5, Local: 2, TCP: true, Golden: "comm.n5", Warmup: 50, Steps: 700},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// points is the number of grid points advanced per step, the divisor
// of the ns/point/step figure of merit.
func (w workload) points() int { return np * w.Local * w.Local * w.Local * w.N * w.N * w.N }

func (w workload) config() solver.Config {
	cfg := solver.DefaultConfig(np, w.N, w.Local)
	cfg.Workers = 1
	cfg.Mu = w.Mu
	cfg.Dealias = w.Dealias
	return cfg
}

// pulse is the workload's only generated input: the seed moves the
// Gaussian pulse's centre by up to half an element and scales its
// amplitude, so every seed is a different but equally smooth problem.
func pulse(cfg solver.Config, seed int64) func(x, y, z float64) [solver.NumFields]float64 {
	rng := rand.New(rand.NewSource(seed))
	var c [3]float64
	for d := range c {
		c[d] = float64(cfg.ElemGrid[d])/2 + rng.Float64() - 0.5
	}
	amp := 0.1 * (0.75 + 0.5*rng.Float64())
	return solver.GaussianPulse(c[0], c[1], c[2], amp, float64(cfg.ElemGrid[0])/8+0.25)
}

// Round modes. Plain is what end-to-end metrics are measured with;
// traced adds the harness's own spans around the calls into the solver;
// obs attaches the program's own telemetry (tracer, registry, step
// collector) through Config, to price it.
const (
	modePlain  = "plain"
	modeTraced = "traced"
	modeObs    = "obs"
)

// roundSpec is everything a rank needs to run one round; it crosses to
// worker processes as JSON.
type roundSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Mode     string `json:"mode"`
	Warmup   int    `json:"warmup"`
	Steps    int    `json:"steps"`
	TCP      bool   `json:"tcp"`
	// Probes selects the layer probes run after the steps: "" none,
	// "all", or "comm" for the communicator probes alone.
	Probes string `json:"probes,omitempty"`
}

// final is the state a round ends in. Every field is a modeled or
// physical quantity, so it repeats bit for bit.
type final struct {
	Dt       float64 `json:"dt"`
	Mass0    float64 `json:"mass0"`
	Mass     float64 `json:"mass"`
	Energy   float64 `json:"energy"`
	Lambda   float64 `json:"lambda"`
	Makespan float64 `json:"makespan"`
}

func (f final) values() [6]float64 {
	return [6]float64{f.Dt, f.Mass0, f.Mass, f.Energy, f.Lambda, f.Makespan}
}

func (f final) equal(g final) bool {
	a, b := f.values(), g.values()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (f final) finite() bool {
	for _, v := range f.values() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// rankOut is what one rank reports from a round.
type rankOut struct {
	Rank     int       `json:"rank"`
	ReadyNs  int64     `json:"ready_ns"` // Unix ns at "first step may start"
	StepS    []float64 `json:"step_s"`   // timed steps, rank 0 only
	BadSteps int       `json:"bad_steps"`
	LoopS    float64   `json:"loop_s"`     // wall seconds of the timed steps
	LoopMPIS float64   `json:"loop_mpi_s"` // of those, inside comm calls
	LoopVTS  float64   `json:"loop_vt_s"`  // modeled seconds of the timed steps
	Alloc    uint64    `json:"alloc"`      // bytes allocated over the timed steps (traced, rank 0)
	GSMsgs   int64     `json:"gs_msgs"`    // gs_op sends of this rank, all steps
	GSBytes  int64     `json:"gs_bytes"`
	Final    final     `json:"final"`
	Spans    []span    `json:"spans,omitempty"`
	Probes   probeSet  `json:"probes,omitempty"`
}

// roundOut is one completed round.
type roundOut struct {
	StartNs  int64 // Unix ns at "nothing": comm.Run entry, or first process spawn
	Ranks    []rankOut
	ChildRSS int64 // summed ru_maxrss (KB) of worker processes
}

// setupS is the wall time from nothing until the slowest rank may take
// its first step.
func (o *roundOut) setupS() float64 {
	ready := int64(0)
	for _, r := range o.Ranks {
		ready = max(ready, r.ReadyNs)
	}
	return float64(ready-o.StartNs) / 1e9
}

func (o *roundOut) spans() []span {
	lists := make([][]span, len(o.Ranks))
	for i, r := range o.Ranks {
		lists[i] = r.Spans
	}
	return mergeSpans(lists...)
}

// commOptions is the communicator contract shared by both transports:
// QDR network model on the solver's grid.
func commOptions(cfg solver.Config) comm.Options { return cfg.CommOptions(netmodel.QDR) }

// attachObs wires the program's own telemetry into a round the way
// cmd/cmtbone does for -trace -metrics; locals is the number of ranks
// this process hosts (the step collector seals a record when that many
// have reported).
func attachObs(cfg *solver.Config, opts *comm.Options, locals int) {
	reg := obs.NewRegistry()
	tel := obs.NewTracer()
	cfg.Obs, cfg.Metrics = tel, reg
	cfg.Steps = obs.NewStepCollector(io.Discard, locals, reg)
	opts.Tracer = obs.NewCommTracer(tel, reg)
}

// runRound runs one round on the spec's transport.
func runRound(ctx context.Context, spec roundSpec) (*roundOut, error) {
	if spec.TCP {
		return runTCPRound(ctx, spec)
	}
	w, err := findWorkload(spec.Workload)
	if err != nil {
		return nil, err
	}
	cfg := w.config()
	opts := commOptions(cfg)
	if spec.Mode == modeObs {
		attachObs(&cfg, &opts, np)
	}
	out := &roundOut{Ranks: make([]rankOut, np), StartNs: time.Now().UnixNano()}
	_, err = comm.Run(np, opts, func(r *comm.Rank) error {
		return rankBody(r, spec, cfg, &out.Ranks[r.ID()])
	})
	if err != nil {
		return nil, fmt.Errorf("%s round: %w", spec.Workload, err)
	}
	return out, nil
}

// rankBody is one rank's share of a round, identical whether the rank
// is a goroutine of this process or a worker process of its own.
func rankBody(r *comm.Rank, spec roundSpec, cfg solver.Config, out *rankOut) error {
	s, err := solver.New(r, cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	s.SetInitial(pulse(cfg, spec.Seed))
	out.Rank = r.ID()
	out.ReadyNs = time.Now().UnixNano()

	mass0 := s.TotalMass()
	total := spec.Warmup + spec.Steps
	timer := r.ID() == 0
	traced := spec.Mode == modeTraced
	var rec *recorder
	if traced || spec.Probes != "" {
		rec = newRecorder(r.ID(), 3*spec.Steps+256)
	}
	if timer {
		out.StepS = make([]float64, 0, spec.Steps)
	}

	var (
		dt        float64
		loopStart time.Time
		mpi0, vt0 float64
		mem0      runtime.MemStats
	)
	for i := 0; i < total; i++ {
		if i == spec.Warmup {
			if traced && timer {
				runtime.ReadMemStats(&mem0)
			}
			mpi0, vt0 = r.Profile().MPIWall(), r.Clock().Now()
			loopStart = time.Now()
		}
		stepRec := rec
		if i < spec.Warmup {
			stepRec = nil
		}
		t0 := time.Now()
		if traced {
			// AdvanceStep split at its one seam, so the per-step
			// reduction and the RK3 step get a span each.
			stepRec.begin("solver.step")
			stepRec.begin("solver.stabledt")
			dt = s.StableDt()
			stepRec.end()
			stepRec.begin("solver.rk3")
			s.Step(dt)
			stepRec.end()
			stepRec.end()
		} else {
			dt = s.AdvanceStep(i)
		}
		el := time.Since(t0)
		if !(dt > 0) || math.IsInf(dt, 1) {
			out.BadSteps++
		}
		if timer && i >= spec.Warmup {
			out.StepS = append(out.StepS, el.Seconds())
		}
	}
	if spec.Steps > 0 {
		out.LoopS = time.Since(loopStart).Seconds()
		out.LoopMPIS = r.Profile().MPIWall() - mpi0
		out.LoopVTS = r.Clock().Now() - vt0
		if traced && timer {
			var mem1 runtime.MemStats
			runtime.ReadMemStats(&mem1)
			out.Alloc = mem1.TotalAlloc - mem0.TotalAlloc
		}
	}
	for _, c := range r.Profile().Calls() {
		if c.Op == "MPI_Isend" && c.Site == "gs_op" {
			out.GSMsgs += c.Count
			out.GSBytes += c.Bytes
		}
	}

	rep := s.FinishReport(total, dt)
	// The makespan is reduced in-run, so it is the same collective —
	// and the same bits — on either transport.
	makespan := r.Allreduce(comm.OpMax, []float64{r.Clock().Now()})[0]
	out.Final = final{Dt: rep.Dt, Mass0: mass0, Mass: rep.Mass, Energy: rep.Energy,
		Lambda: rep.WaveSpeed, Makespan: makespan}

	if spec.Probes != "" {
		out.Probes = runProbes(r, s, rec, spec.Probes, out.gsMsgFloats())
	}
	if rec != nil {
		out.Spans = rec.spans
	}
	return nil
}

// gsMsgFloats is the payload length of one gs_op message of this rank,
// the size the point-to-point probe sends.
func (o *rankOut) gsMsgFloats() int {
	if o.GSMsgs == 0 {
		return 200
	}
	return int(o.GSBytes / o.GSMsgs / 8)
}
