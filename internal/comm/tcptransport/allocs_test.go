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
// message. The ceiling is the worst of 60 runs plus 10 %: 0.0105, about
// 20 allocations in 2 000 messages, from the comm message pool refilling
// when a message beats its receive.
func TestTCPExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		rounds  = 1000
		warmup  = 50
		n       = 200
		ceiling = 0.012
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
	if perMsg > ceiling {
		t.Errorf("%.4f allocations per message, want at most %.4f", perMsg, ceiling)
	}
}
