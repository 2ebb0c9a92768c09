package comm

import (
	"sync"
	"testing"
)

// sliceTracer retains every wire event (the production retainer is
// obs.Tracer, which this package cannot import).
type sliceTracer struct {
	mu     sync.Mutex
	events []TraceEvent
}

func (s *sliceTracer) Record(e TraceEvent) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func TestTracerRecordsP2P(t *testing.T) {
	var tr sliceTracer
	_, err := Run(2, Options{Tracer: &tr}, func(r *Rank) error {
		if r.ID() == 0 {
			r.SetSite("exchange")
			r.Send(1, 5, []float64{1, 2, 3})
		} else {
			r.Recv(0, 5)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	events := tr.events
	if len(events) != 1 {
		t.Fatalf("recorded %d events, want 1", len(events))
	}
	e := events[0]
	if e.Src != 0 || e.Dst != 1 || e.Tag != 5 || e.Bytes != 24 || e.Site != "exchange" {
		t.Fatalf("event = %+v", e)
	}
	if e.ArriveVT <= e.SendVT {
		t.Fatalf("arrival %v must follow send %v", e.ArriveVT, e.SendVT)
	}
}

func TestTracerSeesCollectiveWires(t *testing.T) {
	var tr sliceTracer
	_, err := Run(4, Options{Tracer: &tr}, func(r *Rank) error {
		r.Allreduce(OpSum, []float64{1})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Recursive doubling on 4 ranks: 2 rounds x 4 ranks = 8 wire
	// messages.
	if len(tr.events) != 8 {
		t.Fatalf("allreduce produced %d wire messages, want 8", len(tr.events))
	}
}

func TestNoTracerNoPanic(t *testing.T) {
	_, err := RunSimple(2, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 0, nil)
		} else {
			r.Recv(0, 0)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCalibrateModel(t *testing.T) {
	m, err := CalibrateModel("host", []int{1, 64, 4096, 65536}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "host" {
		t.Fatalf("name = %q", m.Name)
	}
	if m.Alpha <= 0 || m.Beta <= 0 {
		t.Fatalf("nonpositive fit: alpha=%g beta=%g", m.Alpha, m.Beta)
	}
	// Sanity: moving 1MB must be modeled slower than 8 bytes.
	if m.Cost(1<<20, 1) <= m.Cost(8, 1) {
		t.Fatal("calibrated model not size-sensitive")
	}
	// The in-process transport is far faster than gigabit Ethernet.
	if m.Alpha > 1e-3 {
		t.Fatalf("calibrated latency %g implausibly high", m.Alpha)
	}
}

func TestCalibrateModelDefaults(t *testing.T) {
	m, err := CalibrateModel("", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "calibrated" {
		t.Fatalf("default name = %q", m.Name)
	}
}
