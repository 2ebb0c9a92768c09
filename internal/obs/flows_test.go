package obs

import (
	"strings"
	"testing"

	"repro/internal/comm"
)

// traceRun runs fn on np ranks with a CommTracer feeding a tracer capped
// at limit (0: DefaultCap), and returns the tracer.
func traceRun(t *testing.T, np, limit int, grid [3]int, fn func(r *comm.Rank) error) *Tracer {
	t.Helper()
	tr := NewTracer()
	tr.Cap = limit
	if _, err := comm.Run(np, comm.Options{Tracer: NewCommTracer(tr, nil), Grid: grid}, fn); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFlowSummary(t *testing.T) {
	tr := traceRun(t, 4, 0, [3]int{4, 1, 1}, func(r *comm.Rank) error {
		switch r.ID() {
		case 0:
			r.Send(3, 1, make([]float64, 10)) // 3 hops on the grid
			r.Send(1, 2, make([]float64, 2))  // 1 hop
		case 3:
			r.Recv(0, 1)
		case 1:
			r.Recv(0, 2)
		}
		return nil
	})
	s := SummarizeFlows(tr.Flows())
	if s.Messages != 2 || s.Bytes != 96 || s.MeanBytes != 48 {
		t.Fatalf("summary = %+v", s)
	}
	if s.MaxHops != 3 || s.MeanHops != 2 {
		t.Fatalf("hops: max %d mean %v, want 3 and 2 (grid distances 3 and 1)", s.MaxHops, s.MeanHops)
	}
	if z := SummarizeFlows(nil); z != (FlowSummary{}) {
		t.Fatalf("empty trace summary = %+v", z)
	}
}

func TestFlowsCSV(t *testing.T) {
	tr := traceRun(t, 2, 0, [3]int{}, func(r *comm.Rank) error {
		if r.ID() == 0 {
			r.SetSite("exchange")
			r.Send(1, 7, []float64{1})
		} else {
			r.Recv(0, 7)
		}
		return nil
	})
	// A later message retained first: the dump orders by send time, and
	// by source rank within one instant.
	flows := append([]Flow{{Src: 1, Dst: 0, Tag: 9, Bytes: 16, SendVT: 5, ArriveVT: 6}}, tr.Flows()...)
	flows = append(flows, Flow{Src: 0, Dst: 1, Tag: 8, Bytes: 8, SendVT: 5, ArriveVT: 6})
	var b strings.Builder
	if err := WriteFlowsCSV(&b, flows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 || lines[0] != "src,dst,tag,bytes,hops,send_vt,arrive_vt,site" {
		t.Fatalf("csv:\n%s", b.String())
	}
	if !strings.HasPrefix(lines[1], "0,1,7,8,1,") || !strings.HasSuffix(lines[1], ",exchange") {
		t.Fatalf("wire event row = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "0,1,8,8,0,5.0") || !strings.HasPrefix(lines[3], "1,0,9,16,0,5.0") {
		t.Fatalf("rows not ordered by (send time, source):\n%s", b.String())
	}
	if flows[0].Tag != 9 {
		t.Fatal("WriteFlowsCSV reordered the caller's slice")
	}
}

func TestFlowCapDrops(t *testing.T) {
	tr := traceRun(t, 4, 3, [3]int{}, func(r *comm.Rank) error {
		r.Allreduce(comm.OpSum, []float64{1}) // 8 wire messages on 4 ranks
		return nil
	})
	flows := tr.Flows()
	if _, dropped := tr.Dropped(); len(flows) != 3 || dropped != 5 {
		t.Fatalf("retained %d flows and dropped %d, want Cap=3 and 5", len(flows), dropped)
	}
	if s := SummarizeFlows(flows); s.Messages != 3 {
		t.Fatalf("summary = %+v, want the 3 retained messages", s)
	}
}
