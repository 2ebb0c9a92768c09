package comm

import (
	"math"
	"testing"

	"repro/internal/netmodel"
)

// White-box tests of posted receives: a message is delivered straight to
// the earliest-posted pending receive it matches, whether it arrived
// before the receive was posted or after, on every communicator.

// TestDirectDeliveryOrdering posts one receive after its message arrived
// and one before, and checks non-overtaking: the first completes as it
// is posted, the second only once its message lands, and both arrive in
// send order. Handshakes on a side tag pin the real-time interleaving.
func TestDirectDeliveryOrdering(t *testing.T) {
	_, err := RunSimple(2, func(r *Rank) error {
		const tag, hs = 7, 99
		if r.ID() == 0 {
			r.Send(1, tag, []float64{1}) // queued before any receive exists
			r.Send(1, hs, nil)           // handshake: m1 is in the mailbox
			r.Recv(1, hs)                // wait until both receives are posted
			r.Send(1, tag, []float64{2}) // delivered into the posted request
			return nil
		}
		r.Recv(0, hs) // m1 queued
		var r1, r2 Request
		r.IrecvInto(&r1, 0, tag) // matches the queued m1 immediately
		r.IrecvInto(&r2, 0, tag) // posted, waiting for m2
		if !r1.done || r2.done {
			t.Errorf("after posting: r1 done %v, r2 done %v; want true, false", r1.done, r2.done)
		}
		r.Send(0, hs, nil)
		d1, _ := r1.Wait()
		d2, _ := r2.Wait()
		if d1[0] != 1 || d2[0] != 2 {
			t.Errorf("non-overtaking violated: got %v then %v", d1[0], d2[0])
		}
		if r1.Source() != 0 || r2.Source() != 0 {
			t.Errorf("sources %d, %d, want 0, 0", r1.Source(), r2.Source())
		}
		if r2.Arrival() <= 0 {
			t.Errorf("posted receive recorded arrival %v", r2.Arrival())
		}
		r1.Free()
		r2.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDirectDeliveryMatchesStaged runs the identical posted-receive
// exchange on a plain communicator and on one with a fault plane that
// injects nothing (CRC-framed) and requires bit-identical payloads and
// identical modeled times: CRC framing must cost no modeled time.
func TestDirectDeliveryMatchesStaged(t *testing.T) {
	run := func(framed bool) ([]float64, float64, float64) {
		t.Helper()
		var data []float64
		var arrival float64
		opts := Options{Model: netmodel.QDR}
		if framed {
			opts.Faults = &scriptedFaults{} // no script: every message passes clean
		}
		stats, err := Run(2, opts, func(r *Rank) error {
			const tag, hs = 5, 50
			if r.ID() == 0 {
				r.Recv(1, hs)
				r.Send(1, tag, []float64{3.25, -0.5, math.Pi})
				return nil
			}
			var req Request
			r.IrecvInto(&req, 0, tag)
			r.Send(0, hs, nil)
			d, _ := req.Wait()
			data = append([]float64(nil), d...)
			arrival = req.Arrival()
			req.Free()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return data, arrival, stats.MaxVirtualTime()
	}

	pData, pArr, pVT := run(false)
	fData, fArr, fVT := run(true)
	if len(pData) != len(fData) {
		t.Fatalf("payload lengths differ: %d vs %d", len(pData), len(fData))
	}
	for i := range pData {
		if math.Float64bits(pData[i]) != math.Float64bits(fData[i]) {
			t.Fatalf("payload %d differs: %x vs %x", i,
				math.Float64bits(pData[i]), math.Float64bits(fData[i]))
		}
	}
	if pArr != fArr {
		t.Fatalf("modeled arrival differs: plain %v, framed %v", pArr, fArr)
	}
	if pVT != fVT {
		t.Fatalf("modeled makespan differs: plain %v, framed %v", pVT, fVT)
	}
}

// TestDirectDeliveryWildcard posts an AnySource/AnyTag receive before its
// message is sent and checks it resolves the actual source.
func TestDirectDeliveryWildcard(t *testing.T) {
	_, err := RunSimple(2, func(r *Rank) error {
		const hs = 60
		if r.ID() == 0 {
			r.Recv(1, hs)
			r.Send(1, 42, []float64{7})
			return nil
		}
		var req Request
		r.IrecvInto(&req, AnySource, AnyTag)
		r.Send(0, hs, nil)
		d, _ := req.Wait()
		if d[0] != 7 {
			t.Errorf("wildcard receive got %v", d[0])
		}
		if req.Source() != 0 {
			t.Errorf("wildcard source %d, want 0", req.Source())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
