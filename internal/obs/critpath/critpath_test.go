package critpath

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// span is a shorthand constructor stamping both clock domains with the
// same times (the synthetic tests use one clock unless noted).
func span(rank int, name string, cat obs.Category, lo, hi float64) obs.Span {
	return obs.Span{Rank: rank, Name: name, Cat: cat,
		WallStart: lo, WallEnd: hi, VTStart: lo, VTEnd: hi}
}

// checkChain verifies the structural invariants every analysis must
// hold: segments in forward time order, contiguous, covering exactly
// [0, makespan], with the attribution table summing to the makespan.
func checkChain(t *testing.T, a *Analysis) {
	t.Helper()
	if len(a.Segments) == 0 {
		t.Fatal("no segments")
	}
	if a.Segments[0].Start != 0 {
		t.Fatalf("chain starts at %v, want 0", a.Segments[0].Start)
	}
	if got := a.Segments[len(a.Segments)-1].End; got != a.Makespan {
		t.Fatalf("chain ends at %v, want makespan %v", got, a.Makespan)
	}
	var sum float64
	for i, s := range a.Segments {
		if s.End < s.Start {
			t.Fatalf("segment %d inverted: %+v", i, s)
		}
		if i > 0 && s.Start != a.Segments[i-1].End {
			t.Fatalf("chain gap between segment %d (end %v) and %d (start %v)",
				i-1, a.Segments[i-1].End, i, s.Start)
		}
		sum += s.Dur()
	}
	if math.Abs(sum-a.Makespan) > 1e-9 {
		t.Fatalf("segment durations sum to %v, makespan %v", sum, a.Makespan)
	}
	if tot := a.Total().Total(); math.Abs(tot-a.Makespan) > 1e-9 {
		t.Fatalf("cell attribution sums to %v, makespan %v", tot, a.Makespan)
	}
}

// Two ranks, one binding message: rank 1 finishes last, blocked in a
// gather-scatter span on a message rank 0 sent at t=5.
func twoRankTrace() ([]obs.Span, []obs.Flow) {
	spans := []obs.Span{
		span(0, "compute_flux", obs.CatKernel, 0, 5),
		span(0, "gs_op", obs.CatGS, 5, 5.5),
		span(1, "compute_flux", obs.CatKernel, 0, 2),
		span(1, "gs_op", obs.CatGS, 2, 7),
	}
	flows := []obs.Flow{
		{Src: 0, Dst: 1, Bytes: 1024, SendVT: 5, ArriveVT: 6.5, SendWall: 5, Site: "gs_op"},
	}
	return spans, flows
}

func TestAnalyzeTwoRankVirtual(t *testing.T) {
	spans, flows := twoRankTrace()
	a, err := Analyze(spans, flows, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	checkChain(t, a)
	if a.Makespan != 7 || a.CritRank != 1 {
		t.Fatalf("makespan %v on rank %d, want 7 on rank 1", a.Makespan, a.CritRank)
	}
	// Path: rank0 compute [0,5] -> wire [5,6.5] -> rank1 comm [6.5,7].
	c0 := a.Cells[Cell{0, obs.PhaseRHS}]
	c1 := a.Cells[Cell{1, obs.PhaseGS}]
	if c0 == nil || c0.Compute != 5 {
		t.Fatalf("rank0 rhs compute = %+v, want 5", c0)
	}
	if c1 == nil || c1.Wait != 1.5 || c1.Comm != 0.5 {
		t.Fatalf("rank1 gs cell = %+v, want wait 1.5 comm 0.5", c1)
	}
	if len(a.Edges) != 1 {
		t.Fatalf("edges = %d, want 1", len(a.Edges))
	}
	e := a.Edges[0]
	if e.Src != 0 || e.Dst != 1 || e.Wait != 1.5 || e.Phase != obs.PhaseGS {
		t.Fatalf("edge = %+v", e)
	}
	if a.Slack[1] != 0 || a.Slack[0] != 1.5 {
		t.Fatalf("slack = %v, want rank0 1.5, rank1 0", a.Slack)
	}
}

func TestAnalyzeTwoRankWall(t *testing.T) {
	spans, flows := twoRankTrace()
	a, err := Analyze(spans, flows, Wall)
	if err != nil {
		t.Fatal(err)
	}
	checkChain(t, a)
	if a.Makespan != 7 {
		t.Fatalf("wall makespan = %v, want 7", a.Makespan)
	}
	// Wall domain: the whole [5,7] on rank 1 is blocked receive.
	c1 := a.Cells[Cell{1, obs.PhaseGS}]
	if c1 == nil || c1.Wait != 2 || c1.Comm != 0 {
		t.Fatalf("rank1 gs cell = %+v, want wait 2", c1)
	}
	if len(a.Edges) != 1 || a.Edges[0].Wait != 2 {
		t.Fatalf("edges = %+v", a.Edges)
	}
}

// Nested spans: the walk must attribute to the innermost span, and
// portions of a container not covered by children go to the container.
func TestAnalyzeNestedSpans(t *testing.T) {
	spans := []obs.Span{
		span(0, "timestep", obs.CatStep, 0, 10),
		span(0, "compute_flux", obs.CatKernel, 0, 4),
		span(0, "rk_update", obs.CatRK, 5, 10),
	}
	a, err := Analyze(spans, nil, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	checkChain(t, a)
	if c := a.Cells[Cell{0, obs.PhaseRHS}]; c == nil || c.Compute != 4 {
		t.Fatalf("rhs cell = %+v, want compute 4", c)
	}
	if c := a.Cells[Cell{0, obs.PhaseRK}]; c == nil || c.Compute != 5 {
		t.Fatalf("rk cell = %+v, want compute 5", c)
	}
	// [4,5] is covered only by the timestep container -> "other" compute.
	if c := a.Cells[Cell{0, obs.PhaseOther}]; c == nil || c.Compute != 1 {
		t.Fatalf("other cell = %+v, want compute 1", c)
	}
}

// A gap between spans on the critical rank becomes untracked time.
func TestAnalyzeUntrackedGap(t *testing.T) {
	spans := []obs.Span{
		span(0, "compute_flux", obs.CatKernel, 0, 1),
		span(0, "compute_flux", obs.CatKernel, 2, 3),
	}
	a, err := Analyze(spans, nil, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	checkChain(t, a)
	if tot := a.Total(); tot.Untracked != 1 || tot.Compute != 2 {
		t.Fatalf("total = %+v, want untracked 1 compute 2", tot)
	}
}

// A message that arrived before the receiver entered its comm span does
// not bind the path: the receiver's own prior work is the constraint.
func TestAnalyzeEarlyArrivalDoesNotBind(t *testing.T) {
	spans := []obs.Span{
		span(0, "gs_op", obs.CatGS, 0, 0.5),
		span(1, "compute_flux", obs.CatKernel, 0, 8),
		span(1, "gs_op", obs.CatGS, 8, 9),
	}
	flows := []obs.Flow{
		{Src: 0, Dst: 1, Bytes: 64, SendVT: 0.1, ArriveVT: 0.4, SendWall: 0.1, Site: "gs_op"},
	}
	a, err := Analyze(spans, flows, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	checkChain(t, a)
	if len(a.Edges) != 0 {
		t.Fatalf("early arrival must not create a path edge: %+v", a.Edges)
	}
	if c := a.Cells[Cell{1, obs.PhaseRHS}]; c == nil || c.Compute != 8 {
		t.Fatalf("rank1 compute = %+v, want 8", c)
	}
}

// Chained messages across three ranks: the walk hops twice.
func TestAnalyzeThreeRankChain(t *testing.T) {
	spans := []obs.Span{
		span(0, "compute_flux", obs.CatKernel, 0, 3),
		span(0, "gs_op", obs.CatGS, 3, 3.2),
		span(1, "gs_op", obs.CatGS, 0, 5),
		span(1, "gs_op", obs.CatGS, 5, 5.2),
		span(2, "gs_op", obs.CatGS, 0, 8),
	}
	flows := []obs.Flow{
		{Src: 0, Dst: 1, Bytes: 256, SendVT: 3, ArriveVT: 4.8, SendWall: 3, Site: "gs_op"},
		{Src: 1, Dst: 2, Bytes: 256, SendVT: 5, ArriveVT: 7.5, SendWall: 5, Site: "gs_op"},
	}
	a, err := Analyze(spans, flows, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	checkChain(t, a)
	if a.CritRank != 2 || a.Makespan != 8 {
		t.Fatalf("crit rank %d makespan %v, want rank 2, 8", a.CritRank, a.Makespan)
	}
	if len(a.Edges) != 2 {
		t.Fatalf("edges = %d, want 2 hops", len(a.Edges))
	}
	// Heaviest edge first: the 1->2 wire (2.5s) over the 0->1 wire (1.8s).
	if a.Edges[0].Src != 1 || a.Edges[0].Dst != 2 {
		t.Fatalf("top edge = %+v, want 1->2", a.Edges[0])
	}
}

// Ties are broken by content, not by the order the rank goroutines
// recorded spans and flows in (or map order): ranks 2 and 3 finish
// together, and two messages reach rank 2 at the same instant. A
// re-recorded baseline must carry the same summary.
func TestAnalyzeTiesIndependentOfRecordOrder(t *testing.T) {
	spans := []obs.Span{
		span(0, "compute_flux", obs.CatKernel, 0, 4),
		span(0, "gs_op", obs.CatGS, 4, 4.5),
		span(1, "compute_flux", obs.CatKernel, 0, 3),
		span(1, "gs_op", obs.CatGS, 3, 4.5),
		span(2, "gs_op", obs.CatGS, 0, 8),
		span(3, "gs_op", obs.CatGS, 0, 8),
	}
	flows := []obs.Flow{
		{Src: 0, Dst: 2, Bytes: 64, SendVT: 4, ArriveVT: 7, Site: "gs_op"},
		{Src: 1, Dst: 2, Bytes: 64, SendVT: 3, ArriveVT: 7, Site: "gs_op"},
	}
	a, err := Analyze(spans, flows, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Summary()
	if want.CritRank != 2 || len(want.Edges) != 1 || want.Edges[0].Src != 0 {
		t.Fatalf("summary = %+v, want crit rank 2 and the edge from rank 0", want)
	}
	for i := 0; i < 20; i++ {
		rs := append([]obs.Span(nil), spans...)
		rf := append([]obs.Flow(nil), flows...)
		if i%2 == 1 {
			for l, r := 0, len(rs)-1; l < r; l, r = l+1, r-1 {
				rs[l], rs[r] = rs[r], rs[l]
			}
			rf[0], rf[1] = rf[1], rf[0]
		}
		b, err := Analyze(rs, rf, Virtual)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Summary(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: summary %+v, want %+v", i, got, want)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	if _, err := Analyze(nil, nil, Virtual); err == nil {
		t.Fatal("empty trace must error")
	}
}

func TestSummaryAndFormat(t *testing.T) {
	spans, flows := twoRankTrace()
	a, err := Analyze(spans, flows, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	s := a.Summary()
	if s.Makespan != a.Makespan || s.CritRank != 1 || len(s.Cells) == 0 {
		t.Fatalf("summary = %+v", s)
	}
	var sum float64
	for _, c := range s.Cells {
		sum += c.Total()
	}
	if math.Abs(sum-s.Makespan) > 1e-9 {
		t.Fatalf("summary cells sum %v != makespan %v", sum, s.Makespan)
	}
	if len(s.Edges) != 1 || s.Edges[0].Count != 1 {
		t.Fatalf("summary edges = %+v", s.Edges)
	}
	out := a.Format(5)
	for _, want := range []string{"critical path", "gs-exchange", "rank 0 -> rank 1", "slack"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestBlameNamesGrownBucket(t *testing.T) {
	spans, flows := twoRankTrace()
	a, _ := Analyze(spans, flows, Virtual)
	base := a.Summary()

	// Same scenario, but the wire time of the binding message triples,
	// growing rank 1's gs wait from 1.5s to 4.5s.
	spans2 := []obs.Span{
		span(0, "compute_flux", obs.CatKernel, 0, 5),
		span(0, "gs_op", obs.CatGS, 5, 5.5),
		span(1, "compute_flux", obs.CatKernel, 0, 2),
		span(1, "gs_op", obs.CatGS, 2, 10),
	}
	flows2 := []obs.Flow{
		{Src: 0, Dst: 1, Bytes: 1024, SendVT: 5, ArriveVT: 9.5, SendWall: 5, Site: "gs_op"},
	}
	a2, err := Analyze(spans2, flows2, Virtual)
	if err != nil {
		t.Fatal(err)
	}
	lines := Blame(base, a2.Summary(), 3)
	if len(lines) == 0 {
		t.Fatal("no blame lines for a grown run")
	}
	if !strings.Contains(lines[0].Text, "wait on rank 1 gs-exchange grew") {
		t.Fatalf("top blame line = %+v, want grown gs wait on rank 1", lines[0])
	}
	if Blame(base, base, 3) != nil {
		t.Fatal("identical summaries must produce no blame")
	}
}
