package comm

import (
	"fmt"
	"testing"
)

// pingPongSink keeps each rank's payload sums of BenchmarkPingPong live.
var pingPongSink [2]float64

// BenchmarkPingPong times one in-process round trip of n floats between
// two ranks, posted as the solver's exchanges post theirs: IrecvInto,
// then IsendMsg, then Wait and Free. With read each receiver sums the
// payload it got, as a consumer does; without it a receiver only waits,
// as the benchmark module's p2p round-trip probe does. The two differ
// in who touches the receive buffer's cache lines last.
func BenchmarkPingPong(b *testing.B) {
	for _, n := range []int{1, 180, 1800} {
		for _, read := range []bool{true, false} {
			b.Run(fmt.Sprintf("floats=%d/read=%v", n, read), func(b *testing.B) {
				b.SetBytes(int64(2 * 8 * n))
				_, err := RunSimple(2, func(r *Rank) error {
					const tag = 9
					peer := 1 - r.ID()
					out := make([]float64, n)
					var req Request
					sum := 0.0
					recv := func() {
						r.IrecvInto(&req, peer, tag)
						data, _ := req.Wait()
						if read {
							for _, v := range data {
								sum += v
							}
						}
						req.Free()
					}
					if r.ID() == 0 {
						b.ResetTimer()
					}
					for i := 0; i < b.N; i++ {
						if r.ID() == 0 {
							r.IsendMsg(peer, tag, out, nil)
							recv()
						} else {
							recv()
							r.IsendMsg(peer, tag, out, nil)
						}
					}
					if r.ID() == 0 {
						b.StopTimer()
					}
					pingPongSink[r.ID()] = sum
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
