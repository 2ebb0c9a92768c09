package comm

import (
	"math"
	"testing"

	"repro/internal/netmodel"
)

// White-box tests of the posted-receive direct-delivery fast path: when a
// receive is already posted at send time (and the communicator has no
// fault plane, hence no CRC framing), the sender copies the payload
// straight into the request-owned buffers, skipping the message envelope.

// TestDirectDeliveryOrdering drives both completion paths through one
// receiver and checks non-overtaking: a message queued before the receive
// was posted completes through the staged path, a message sent after
// completes by direct delivery, and both arrive in send order. Handshakes
// on a side tag pin the real-time interleaving.
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
		r.Send(0, hs, nil)
		d1, _ := r1.Wait()
		d2, _ := r2.Wait()
		if d1[0] != 1 || d2[0] != 2 {
			t.Errorf("non-overtaking violated: got %v then %v", d1[0], d2[0])
		}
		if r1.direct {
			t.Error("r1 matched a queued message but completed direct")
		}
		if !r2.direct {
			t.Error("r2 was posted before the send but did not go direct")
		}
		if r1.Source() != 0 || r2.Source() != 0 {
			t.Errorf("sources %d, %d, want 0, 0", r1.Source(), r2.Source())
		}
		if r2.Arrival() <= 0 {
			t.Errorf("direct delivery recorded arrival %v", r2.Arrival())
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
// exchange on a plain communicator (direct eligible) and on one with a
// fault plane that injects nothing (CRC-framed, staged only) and requires
// bit-identical payloads and identical modeled times — the fast path must
// be invisible except to the allocator.
func TestDirectDeliveryMatchesStaged(t *testing.T) {
	run := func(staged bool) ([]float64, float64, float64) {
		t.Helper()
		var data []float64
		var arrival float64
		opts := Options{Model: netmodel.QDR}
		if staged {
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
			if req.direct == staged {
				t.Errorf("staged=%v but direct=%v", staged, req.direct)
			}
			req.Free()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return data, arrival, stats.MaxVirtualTime()
	}

	dData, dArr, dVT := run(false)
	sData, sArr, sVT := run(true)
	if len(dData) != len(sData) {
		t.Fatalf("payload lengths differ: %d vs %d", len(dData), len(sData))
	}
	for i := range dData {
		if math.Float64bits(dData[i]) != math.Float64bits(sData[i]) {
			t.Fatalf("payload %d differs: %x vs %x", i,
				math.Float64bits(dData[i]), math.Float64bits(sData[i]))
		}
	}
	if dArr != sArr {
		t.Fatalf("modeled arrival differs: direct %v, staged %v", dArr, sArr)
	}
	if dVT != sVT {
		t.Fatalf("modeled makespan differs: direct %v, staged %v", dVT, sVT)
	}
}

// TestDirectDeliveryWildcard posts an AnySource/AnyTag receive and checks
// the direct path resolves the actual source and tag like the staged path
// does.
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
		if !req.direct {
			t.Error("posted wildcard receive did not go direct")
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
