package tcptransport

import (
	"fmt"
	"math/rand"

	"testing"

	"repro/internal/comm"
)

// TestTCPIsendIrecvStorm is the race-detector pattern for the TCP
// backend: every rank posts batches of nonblocking receives and fires
// eager sends at every peer concurrently with the transport's reader and
// writer goroutines, across both tag-matched and wildcard receives. Under
// `-race` (the CI race job runs ./internal/comm/..., which includes this
// package, and repeats this test 20 times) the detector watches the
// socket's hand-over between inline writes and the writer's backlog,
// the reader goroutine queueing from its reused frame while the rank
// matches its pending receives, and the teardown path all at once. Payload contents are seeded per (src, batch) so delivery is also
// verified, not just survived.
func TestTCPIsendIrecvStorm(t *testing.T) {
	const size = 3
	batches, perBatch := 40, 8
	if raceEnabled {
		batches = 15
	}
	if testing.Short() {
		batches = 5
	}
	runTCP(t, size, comm.Options{}, func(r *comm.Rank) error {
		id := r.ID()
		for b := 0; b < batches; b++ {
			// Ranks drift across batches (no barrier), so each batch gets
			// its own tag: an early send from a fast peer's later batch
			// queues instead of matching this batch's receives.
			tag := 100 + b
			// Post all receives first (some match queued messages, some
			// wait for frames the transport reader has yet to queue),
			// then fire all sends, then drain.
			// Every third batch receives entirely by wildcard; the others
			// entirely by specific source. Mixing them within one batch
			// would let a wildcard steal a message a specific receive is
			// counting on and starve it.
			wildcard := b%3 == 0
			reqs := make([]*comm.Request, 0, perBatch*(size-1))
			for peer := 0; peer < size; peer++ {
				if peer == id {
					continue
				}
				for k := 0; k < perBatch; k++ {
					src := peer
					if wildcard {
						src = comm.AnySource
					}
					reqs = append(reqs, r.Irecv(src, tag))
				}
			}
			for peer := 0; peer < size; peer++ {
				if peer == id {
					continue
				}
				rng := rand.New(rand.NewSource(int64(id)<<20 | int64(b)))
				for k := 0; k < perBatch; k++ {
					r.IsendMsg(peer, tag, []float64{rng.Float64(), float64(id)}, []int64{int64(b), int64(k)})
				}
			}
			got := 0
			for _, req := range reqs {
				data, ints, err := req.WaitErr()
				if err != nil {
					return fmt.Errorf("batch %d: %v", b, err)
				}
				if len(data) != 2 || len(ints) != 2 {
					return fmt.Errorf("batch %d: payload shape %d/%d", b, len(data), len(ints))
				}
				if int(ints[0]) != b {
					return fmt.Errorf("batch %d: cross-batch delivery (got batch %d)", b, ints[0])
				}
				got++
				req.Free()
			}
			if got != perBatch*(size-1) {
				return fmt.Errorf("batch %d: %d deliveries, want %d", b, got, perBatch*(size-1))
			}
		}
		return nil
	})
}
