package obs

import (
	"testing"
	"time"

	"repro/internal/netmodel"
)

func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// recorder returns an aggregate-only recorder: what a Solver holds when
// Config.Obs is nil.
func recorder() (*RankTracer, *netmodel.Clock) {
	clock := netmodel.NewClock(netmodel.QDR)
	return (*Tracer)(nil).Rank(0, clock), clock
}

func TestFlatProfileBasics(t *testing.T) {
	p, _ := recorder()
	for i := 0; i < 3; i++ {
		reg := p.Region("kernel", CatKernel)
		spin(2 * time.Millisecond)
		reg.End()
	}
	p.Finish()
	flat := p.Flat()
	if len(flat) != 1 {
		t.Fatalf("regions = %d", len(flat))
	}
	r := flat[0]
	if r.Name != "kernel" || r.Calls != 3 {
		t.Fatalf("region = %+v", r)
	}
	if r.Self < 0.005 || r.Total < r.Self {
		t.Fatalf("timings inconsistent: %+v", r)
	}
	if p.Elapsed() < r.Total {
		t.Fatalf("elapsed %v < region total %v", p.Elapsed(), r.Total)
	}
}

func TestNestedSelfVsTotal(t *testing.T) {
	p, _ := recorder()
	outerReg := p.Region("outer", CatStep)
	spin(time.Millisecond)
	innerReg := p.Region("inner", CatKernel)
	spin(4 * time.Millisecond)
	innerReg.End()
	outerReg.End()

	byName := map[string]RegionStat{}
	for _, r := range p.Flat() {
		byName[r.Name] = r
	}
	outer, inner := byName["outer"], byName["inner"]
	if outer.Total < inner.Total {
		t.Fatalf("outer total %v < inner total %v", outer.Total, inner.Total)
	}
	// Outer self excludes inner, exactly; a leaf's self is its total.
	if diff := outer.Total - outer.Self - inner.Total; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("self/total bookkeeping off by %v", diff)
	}
	if inner.Self != inner.Total || outer.Self < 0.0009 {
		t.Fatalf("outer = %+v, inner = %+v", outer, inner)
	}
}

func edgeCalls(p Profile) map[string]int64 {
	got := map[string]int64{}
	for _, e := range p.Edges {
		got[e.Parent+"->"+e.Child] = e.Calls
	}
	return got
}

// TestCallGraphEdges covers all three feeds of the call graph: regions,
// self-timed Adds, and spans — which must stay out of it, as a node and
// as a parent.
func TestCallGraphEdges(t *testing.T) {
	p, clock := recorder()
	step := p.Region("step", CatStep)
	p.Region("flux", CatKernel).End()
	p.Region("flux", CatKernel).End()
	p.Add("deriv", CatKernel, time.Now(), time.Millisecond, clock.Now(), clock.Now())
	inner := p.Span("gs_begin", CatGS)
	p.Region("exchange", CatGS).End()
	inner.End()
	step.End()

	got := edgeCalls(Merge(p))
	want := map[string]int64{"<root>->step": 1, "step->flux": 2, "step->deriv": 1, "step->exchange": 1}
	if len(got) != len(want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("edge %s calls = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
	for _, r := range p.Flat() {
		if r.Name == "gs_begin" {
			t.Fatalf("a Span reached the flat profile: %+v", r)
		}
		if r.Name == "step" && r.Self > r.Total-0.001 {
			t.Fatalf("the Add's millisecond was not taken out of step's self time: %+v", r)
		}
	}
}

func TestUnbalancedEndPanics(t *testing.T) {
	p, _ := recorder()
	a := p.Region("a", CatKernel)
	p.Region("b", CatKernel) // never ended before a
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced End must panic")
		}
	}()
	a.End()
}

func TestMergeAcrossRanks(t *testing.T) {
	mk := func() *RankTracer {
		p, _ := recorder()
		reg := p.Region("work", CatKernel)
		spin(time.Millisecond)
		reg.End()
		p.Finish()
		return p
	}
	m := Merge(mk(), nil, mk(), mk()) // nil: a rank that never reported
	if len(m.Flat) != 1 || m.Flat[0].Calls != 3 {
		t.Fatalf("merged flat = %+v", m.Flat)
	}
	if len(m.Edges) != 1 || m.Edges[0].Calls != 3 {
		t.Fatalf("merged edges = %+v", m.Edges)
	}
	if m.Elapsed < m.Flat[0].Total {
		t.Fatalf("merged elapsed %v < total %v", m.Elapsed, m.Flat[0].Total)
	}
}

func TestFinishIdempotent(t *testing.T) {
	p, _ := recorder()
	p.Region("x", CatKernel).End()
	p.Finish()
	e1 := p.Elapsed()
	p.Finish()
	if p.Elapsed() != e1 {
		t.Fatal("double Finish changed elapsed")
	}
	// Reopening the window accumulates.
	p.Region("y", CatKernel).End()
	p.Finish()
	if p.Elapsed() < e1 {
		t.Fatal("elapsed shrank after reopen")
	}
}

// TestRegionPushesPhase: one call drives the clock's phase accounting —
// a charge inside a region lands in the region's phase, a container
// ("timestep") keeps the enclosing one, and a Span pushes its phase too.
func TestRegionPushesPhase(t *testing.T) {
	p, clock := recorder()
	step := p.Region("timestep", CatStep)
	kern := p.Region("compute_flux", CatKernel)
	clock.Advance(1e-6)
	inner := p.Region("timestep", CatStep) // a container: keeps rhs
	clock.Advance(2e-6)
	inner.End()
	kern.End()
	clock.Advance(1e-6) // between regions: no phase
	red := p.Span("glmax", CatComm)
	clock.Advance(2e-6)
	red.End()
	step.End()
	if clock.Phase() != "" {
		t.Fatalf("phase %q left set", clock.Phase())
	}
	sp := clock.PhaseSplits()
	if sp[PhaseRHS].Compute != 3e-6 || sp[""].Compute != 1e-6 || sp[PhaseReduce].Compute != 2e-6 {
		t.Fatalf("phase splits = %+v", sp)
	}
}

// TestNoSinkRetainsNothing: without a Tracer the recorder aggregates and
// keeps no span, and a steady-state region, span or Add allocates
// nothing: the handle is a value.
func TestNoSinkRetainsNothing(t *testing.T) {
	p, clock := recorder()
	now := time.Now()
	warm := func() {
		step := p.Region("timestep", CatStep)
		p.Region("compute_flux", CatKernel).End()
		p.Add("ax_deriv_dudr", CatKernel, now, time.Microsecond, clock.Now(), clock.Now())
		gs := p.Region("gs_op", CatGS)
		p.Span("gs_op", CatGS).End() // same phase as the enclosing region: nothing to do
		gs.End()
		step.End()
	}
	warm()
	if got := testing.AllocsPerRun(100, warm); got != 0 {
		t.Errorf("%.0f allocations per iteration of three regions, a span and an Add, want 0", got)
	}
	if p.t != nil {
		t.Fatal("recorder of a nil Tracer has a sink")
	}

	// The same regions with a sink: every one of them, the Add and the
	// span are retained, stamped in both clock domains.
	tr := NewTracer()
	q := tr.Rank(1, clock)
	reg := q.Region("compute_flux", CatKernel)
	clock.Advance(1e-6)
	reg.End()
	q.Add("ax_deriv_dudr", CatKernel, now, time.Microsecond, 1, 2)
	q.Span("gs_begin", CatGS).End()
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3: %+v", len(spans), spans)
	}
	if s := spans[0]; s.Name != "compute_flux" || s.Rank != 1 || s.VTEnd-s.VTStart <= 0 || s.WallEnd < s.WallStart {
		t.Fatalf("region span = %+v", s)
	}
	if s := spans[1]; s.VTStart != 1 || s.VTEnd != 2 || s.WallEnd-s.WallStart < 0.9e-6 || s.WallEnd-s.WallStart > 1.1e-6 {
		t.Fatalf("Add span = %+v", s)
	}
	if len(q.Flat()) != 2 {
		t.Fatalf("flat profile with a sink = %+v, want compute_flux and ax_deriv_dudr", q.Flat())
	}
}
