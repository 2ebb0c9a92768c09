// Package obs is the unified telemetry layer of the mini-app: every
// other layer reports into it, so one run yields one coherent set of
// observability artifacts instead of the isolated post-hoc tools the
// paper's figures were reproduced with.
//
// It provides three facilities:
//
//   - Region recording (RankTracer, one per rank): every instrumented
//     region — RK stage, kernel, gather-scatter exchange — is opened by
//     one call that pushes its accounting phase on the virtual clock and
//     feeds Figure 4's flat profile and call graph (Merge). With a Tracer
//     attached the regions are retained as spans stamped in two clock
//     domains — host wall time and the netmodel virtual clock — and
//     exported as Chrome/Perfetto trace-event JSON (WritePerfetto), one
//     track per rank and a flow arrow for every wire message.
//   - A concurrency-safe metrics Registry (counters, gauges,
//     fixed-bucket histograms) whose snapshot is served live over expvar
//     and folded into the per-timestep JSONL stream (StepCollector).
//   - Live endpoints (Serve): an opt-in net/http/pprof + expvar server
//     for inspecting long runs in flight.
//
// Recording is cheap and strictly read-only with respect to the
// simulation: spans and step records read the virtual clock but never
// advance it, so enabling telemetry changes modeled results by exactly
// zero.
package obs

import (
	"sync"
	"time"

	"repro/internal/netmodel"
)

// Category classifies a span for trace-viewer filtering.
type Category string

// Span categories.
const (
	CatStep   Category = "step"   // one whole timestep
	CatRK     Category = "rk"     // Runge-Kutta stage updates
	CatKernel Category = "kernel" // compute kernels (ax_, flux, filter, ...)
	CatGS     Category = "gs"     // gather-scatter exchanges
	CatComm   Category = "comm"   // other communication (reductions, setup)
)

// Span is one completed named interval on one rank, stamped in both
// clock domains: host wall seconds since the tracer's epoch, and the
// rank's netmodel virtual time.
type Span struct {
	Rank int
	Name string
	Cat  Category
	// Wall-clock domain: seconds since Tracer creation.
	WallStart, WallEnd float64
	// Virtual-time domain: the rank's netmodel clock.
	VTStart, VTEnd float64
}

// Flow is one wire-level message, rendered as a flow arrow from the
// source rank's track to the destination rank's track (virtual-time
// domain, where the modeled send and arrival times live).
type Flow struct {
	Src, Dst int
	Tag      int
	Bytes    int64
	SendVT   float64
	ArriveVT float64
	// SendWall is the wall-clock second (since Tracer creation) at which
	// the message was recorded on the send side. The in-process transport
	// has no meaningful wall-clock wire time, so this single stamp is the
	// flow's position in the wall domain (critical-path analysis uses it
	// to jump rank timelines when walking wall time).
	SendWall float64
	Site     string
	Hops     int // switch-hop distance under the processor grid
}

// DefaultCap bounds the number of spans (and, separately, flows) a
// Tracer retains; further records are counted as dropped rather than
// growing without bound on long runs.
const DefaultCap = 1 << 20

// Tracer collects spans and flows from every rank of a run. All methods
// are safe for concurrent use by many rank goroutines.
type Tracer struct {
	// Cap bounds retained spans and flows (each separately); zero means
	// DefaultCap. Set it before recording starts.
	Cap int

	epoch time.Time

	mu           sync.Mutex
	spans        []Span
	flows        []Flow
	droppedSpans int64
	droppedFlows int64
}

// NewTracer returns an empty tracer whose wall-clock epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

func (t *Tracer) limit() int {
	if t.Cap > 0 {
		return t.Cap
	}
	return DefaultCap
}

// Rank returns the region recorder of rank id running under clock. A nil
// Tracer returns one too: it aggregates the profile and drives the clock's
// phase accounting like any other, and retains no span.
func (t *Tracer) Rank(id int, clock *netmodel.Clock) *RankTracer {
	return &RankTracer{t: t, rank: id, clock: clock}
}

func (t *Tracer) addSpan(s Span) {
	t.mu.Lock()
	if len(t.spans) >= t.limit() {
		t.droppedSpans++
	} else {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// AddFlow records one wire-level message (normally via CommTracer).
// The wall-domain stamp is filled in here if the caller left it zero.
func (t *Tracer) AddFlow(f Flow) {
	if t == nil {
		return
	}
	if f.SendWall == 0 {
		f.SendWall = time.Since(t.epoch).Seconds()
	}
	t.mu.Lock()
	if len(t.flows) >= t.limit() {
		t.droppedFlows++
	} else {
		t.flows = append(t.flows, f)
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Flows returns a copy of the recorded flows.
func (t *Tracer) Flows() []Flow {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Flow(nil), t.flows...)
}

// Dropped returns how many spans and flows were discarded because the
// tracer hit its Cap.
func (t *Tracer) Dropped() (spans, flows int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.droppedSpans, t.droppedFlows
}
