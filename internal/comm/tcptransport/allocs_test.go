package tcptransport

import (
	"runtime"
	"testing"

	"repro/internal/comm"
)

// TestTCPExchangeAllocs pins the heap allocations of the wire path: 1 000
// round trips of a 200-float gs_op-sized message between two ranks over
// loopback TCP (IsendMsg, IrecvInto, Wait, Free), counted process-wide —
// both ranks, both transports, their reader and writer goroutines — per
// message. A message that beats its receive is staged in an envelope
// from the receiving mailbox's free list, which the warm-up fills, so
// what is left is the runtime's own (parking, the net poller). The worst
// of 200 runs, half of them beside other test packages, was 0.0065 (13
// allocations in 2 000 messages); the ceiling leaves 30 % for a busier
// host.
func TestTCPExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		rounds  = 1000
		warmup  = 50
		n       = 200
		ceiling = 0.0085
	)
	var perMsg float64
	runTCP(t, 2, comm.Options{}, func(r *comm.Rank) error {
		peer := 1 - r.ID()
		data := make([]float64, n)
		var req comm.Request
		exchange := func(k int) {
			data[0] = float64(k)
			r.IrecvInto(&req, peer, 7)
			r.IsendMsg(peer, 7, data, nil)
			req.Wait()
			req.Free()
		}
		for k := 0; k < warmup; k++ {
			exchange(k)
		}
		// One message that surely beats its receive (the barrier's own
		// messages follow it on the stream) warms the queued path too.
		r.IsendMsg(peer, 7, data, nil)
		r.Barrier()
		r.IrecvInto(&req, peer, 7)
		req.Wait()
		req.Free()
		r.Barrier()
		var before, after runtime.MemStats
		if r.ID() == 0 {
			runtime.ReadMemStats(&before)
		}
		for k := 0; k < rounds; k++ {
			exchange(k)
		}
		if r.ID() == 0 {
			runtime.ReadMemStats(&after)
			perMsg = float64(after.Mallocs-before.Mallocs) / (2 * rounds)
		}
		return nil
	})
	t.Logf("%.4f allocations per message", perMsg)
	if perMsg > ceiling {
		t.Errorf("%.4f allocations per message, want at most %.4f", perMsg, ceiling)
	}
}
