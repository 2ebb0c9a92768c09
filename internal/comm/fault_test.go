package comm

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/netmodel"
)

// scriptedFaults is a FaultPlane issuing pre-programmed actions keyed by
// (src, dst, tag); unmatched messages pass clean.
type scriptedFaults struct {
	mu       sync.Mutex
	act      map[[3]int]FaultAction
	once     bool // consume each scripted action on first use
	detected [][3]int
}

func (f *scriptedFaults) Message(src, dst, tag int, bytes int64, sendVT float64) FaultAction {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := [3]int{src, dst, tag}
	a, ok := f.act[k]
	if !ok {
		// Tag -1 is a wildcard: match any tag on the (src, dst) pair.
		k = [3]int{src, dst, -1}
		if a, ok = f.act[k]; !ok {
			return FaultAction{}
		}
	}
	if f.once {
		delete(f.act, k)
	}
	return a
}

func (f *scriptedFaults) CRCDetected(src, dst, tag int) {
	f.mu.Lock()
	f.detected = append(f.detected, [3]int{src, dst, tag})
	f.mu.Unlock()
}

// TestWaitErrDeadSender is the regression for the recv timeout path: a
// Wait on an Irecv whose sender died must return a typed error, not
// deadlock. Both orders are exercised — receiver already blocked when the
// sender dies, and death before the receive is posted.
func TestWaitErrDeadSender(t *testing.T) {
	for _, order := range []string{"already-dead", "dies-while-blocked"} {
		t.Run(order, func(t *testing.T) {
			deadCh := make(chan struct{})
			done := make(chan error, 1)
			_, err := RunSimple(2, func(r *Rank) error {
				if r.ID() == 1 {
					// The deferred close runs while the kill panic unwinds,
					// strictly after markDead — so once deadCh is closed the
					// death is visible to rank 0.
					defer close(deadCh)
					if order == "dies-while-blocked" {
						// Give rank 0 time to block inside WaitErr first.
						time.Sleep(20 * time.Millisecond)
					}
					r.Kill()
				}
				if order == "already-dead" {
					<-deadCh
				}
				_, _, werr := r.Irecv(1, 7).WaitErr()
				done <- werr
				return nil
			})
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			select {
			case werr := <-done:
				var dre DeadRankError
				if !errors.As(werr, &dre) {
					t.Fatalf("WaitErr returned %v, want DeadRankError", werr)
				}
				if dre.Rank != 1 || dre.World != 1 {
					t.Fatalf("DeadRankError names rank %d/world %d, want 1/1", dre.Rank, dre.World)
				}
			default:
				t.Fatal("WaitErr never completed")
			}
		})
	}
}

// TestWaitErrDrainsBeforeDeath: messages sent before the crash must all
// be received before the dead error fires, so no pre-crash data is lost
// and detection lands at a deterministic point.
func TestWaitErrDrainsBeforeDeath(t *testing.T) {
	_, err := RunSimple(2, func(r *Rank) error {
		if r.ID() == 1 {
			r.Send(0, 3, []float64{1})
			r.Send(0, 3, []float64{2})
			r.Kill()
		}
		for want := 1.0; want <= 2; want++ {
			data, _, werr := r.Irecv(1, 3).WaitErr()
			if werr != nil {
				return werr
			}
			if data[0] != want {
				t.Errorf("got %v, want %v", data[0], want)
			}
		}
		if _, _, werr := r.Irecv(1, 3).WaitErr(); !errors.As(werr, new(DeadRankError)) {
			t.Errorf("after draining: got %v, want DeadRankError", werr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKilledRankDoesNotAbortRun: a Kill is an injected fault, not a
// failure — survivors finish and the death is recorded in Stats.
func TestKilledRankDoesNotAbortRun(t *testing.T) {
	stats, err := RunSimple(3, func(r *Rank) error {
		if r.ID() == 1 {
			r.Kill()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("survivors should finish cleanly, got %v", err)
	}
	if len(stats.Killed) != 1 || stats.Killed[0] != 1 {
		t.Fatalf("Stats.Killed = %v, want [1]", stats.Killed)
	}
}

// TestBlockingRecvFromDeadRankFailsTyped: the blocking paths unwind the
// run with the typed cause instead of hanging.
func TestBlockingRecvFromDeadRankFailsTyped(t *testing.T) {
	_, err := RunSimple(2, func(r *Rank) error {
		if r.ID() == 1 {
			r.Kill()
		}
		r.Recv(1, 5)
		return nil
	})
	if err == nil || !errors.As(err, new(DeadRankError)) {
		t.Fatalf("run error = %v, want wrapped DeadRankError", err)
	}
}

// TestDropStillDelivers: a dropped first copy is replaced by a
// retransmission one timeout later — payload intact, arrival late.
func TestDropStillDelivers(t *testing.T) {
	faults := &scriptedFaults{act: map[[3]int]FaultAction{
		{0, 1, 9}: {Drop: true, RetransmitVT: 5e-3},
	}}
	var cleanVT, faultyVT float64
	run := func(f FaultPlane, out *float64) {
		t.Helper()
		_, err := Run(2, Options{Model: netmodel.QDR, Faults: f}, func(r *Rank) error {
			if r.ID() == 0 {
				r.Send(1, 9, []float64{42})
				return nil
			}
			if got := r.Recv(0, 9); got[0] != 42 {
				t.Errorf("payload %v, want 42", got[0])
			}
			*out = r.Clock().Now()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run(nil, &cleanVT)
	run(faults, &faultyVT)
	if d := faultyVT - cleanVT; math.Abs(d-5e-3) > 1e-9 {
		t.Fatalf("drop cost %.6f modeled seconds, want the 5e-3 retransmit timeout", d)
	}
}

// TestCorruptionDetectedAndRetried: a bit-flipped first copy must be
// caught by CRC and replaced by the clean retransmission — the receiver
// sees the exact payload, the detection is counted, and nothing is
// silently absorbed.
func TestCorruptionDetectedAndRetried(t *testing.T) {
	faults := &scriptedFaults{act: map[[3]int]FaultAction{
		{0, 1, 4}: {Corrupt: true, FlipBit: 17, RetransmitVT: 1e-3},
	}, once: true}
	payload := []float64{1, 2, 3, 4}
	stats, err := Run(2, Options{Model: netmodel.QDR, Faults: faults}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 4, payload)
			return nil
		}
		got := r.Recv(0, 4)
		for i, v := range payload {
			if math.Float64bits(got[i]) != math.Float64bits(v) {
				t.Errorf("value %d: got %x want %x — corruption leaked through", i, got[i], v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CRCDetected != 1 {
		t.Fatalf("CRCDetected = %d, want 1", stats.CRCDetected)
	}
	if stats.Retransmits != 1 {
		t.Fatalf("Retransmits = %d, want 1", stats.Retransmits)
	}
	if len(faults.detected) != 1 || faults.detected[0] != [3]int{0, 1, 4} {
		t.Fatalf("fault plane notified of %v, want [[0 1 4]]", faults.detected)
	}
}

// TestCorruptionDetectedOnCollectivePath: the raw receives inside
// collectives verify frames too.
func TestCorruptionDetectedOnCollectivePath(t *testing.T) {
	faults := &scriptedFaults{act: map[[3]int]FaultAction{
		{0, 1, -1}: {Corrupt: true, FlipBit: 3},
	}, once: true}
	stats, err := Run(2, Options{Faults: faults}, func(r *Rank) error {
		in := []float64{float64(r.ID() + 1)}
		out := r.Allreduce(OpSum, in)
		if out[0] != 3 {
			t.Errorf("allreduce under corruption = %v, want 3", out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CRCDetected != 1 {
		t.Fatalf("CRCDetected = %d, want 1", stats.CRCDetected)
	}
}

// TestDelayPricesVirtualTime: a delayed message shifts the receiver's
// modeled completion by the delay.
func TestDelayPricesVirtualTime(t *testing.T) {
	faults := &scriptedFaults{act: map[[3]int]FaultAction{
		{0, 1, 2}: {DelayVT: 7e-3},
	}}
	var vt float64
	_, err := Run(2, Options{Model: netmodel.QDR, Faults: faults}, func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 2, []float64{1})
			return nil
		}
		r.Recv(0, 2)
		vt = r.Clock().Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if vt < 7e-3 {
		t.Fatalf("receiver finished at %.6f modeled seconds, want >= the 7e-3 delay", vt)
	}
}

// TestCRCFramingIsVTInvariant: the CRC framing a fault plane turns on
// must not change modeled time or payloads when the plane injects
// nothing — checksums ride outside the modeled byte counts.
func TestCRCFramingIsVTInvariant(t *testing.T) {
	run := func(crc bool) []float64 {
		t.Helper()
		vts := make([]float64, 4)
		opts := Options{Model: netmodel.QDR}
		if crc {
			opts.Faults = &scriptedFaults{} // no script: every message passes clean
		}
		_, err := Run(4, opts, func(r *Rank) error {
			data := []float64{float64(r.ID())}
			sum := r.Allreduce(OpSum, data)
			if sum[0] != 6 {
				t.Errorf("allreduce = %v, want 6", sum[0])
			}
			r.Barrier()
			vts[r.ID()] = r.Clock().Now()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return vts
	}
	plain, framed := run(false), run(true)
	for i := range plain {
		if plain[i] != framed[i] {
			t.Fatalf("rank %d: VT %.9f with CRC vs %.9f without", i, framed[i], plain[i])
		}
	}
}

// TestShrink: survivors re-form a dense communicator sharing clocks and
// world identity; collectives over the sub-communicator work and world
// translation round-trips.
func TestShrink(t *testing.T) {
	_, err := RunSimple(4, func(r *Rank) error {
		if r.ID() == 1 {
			r.Kill()
		}
		// Drain nothing: rank 1 dies immediately; survivors shrink.
		sub, err := r.Shrink([]int{0, 2, 3})
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			t.Errorf("sub size %d, want 3", sub.Size())
		}
		wantWorld := []int{0, 2, 3}
		if w := sub.WorldID(); w != wantWorld[sub.ID()] {
			t.Errorf("sub rank %d has world id %d, want %d", sub.ID(), w, wantWorld[sub.ID()])
		}
		sum := sub.Allreduce(OpSum, []float64{float64(sub.WorldID())})
		if sum[0] != 5 {
			t.Errorf("sub allreduce = %v, want 5", sum[0])
		}
		// Point-to-point in the dense numbering.
		next := (sub.ID() + 1) % sub.Size()
		prev := (sub.ID() + sub.Size() - 1) % sub.Size()
		sub.Send(next, 11, []float64{float64(sub.ID())})
		if got := sub.Recv(prev, 11); int(got[0]) != prev {
			t.Errorf("sub recv %v from %d", got, prev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShrinkValidation: malformed member lists are rejected.
func TestShrinkValidation(t *testing.T) {
	_, err := RunSimple(3, func(r *Rank) error {
		if _, err := r.Shrink([]int{2, 0, 1}); err == nil {
			t.Error("unsorted member list accepted")
		}
		if _, err := r.Shrink([]int{0, 3}); err == nil {
			t.Error("out-of-range member accepted")
		}
		if r.ID() == 2 {
			if _, err := r.Shrink([]int{0, 1}); err == nil {
				t.Error("shrink excluding the caller accepted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKillInShrunkenComm: a death inside a sub-communicator is visible
// both there and at world level.
func TestKillInShrunkenComm(t *testing.T) {
	stats, err := RunSimple(3, func(r *Rank) error {
		sub, err := r.Shrink([]int{0, 1, 2})
		if err != nil {
			return err
		}
		if sub.ID() == 2 {
			// Wait until both survivors have shrunk (Shrink validates
			// member liveness, so dying first would fail their calls).
			r.Recv(0, 99)
			r.Recv(1, 99)
			sub.Kill()
		}
		r.Send(2, 99, nil)
		if _, _, werr := sub.Irecv(2, 1).WaitErr(); !errors.As(werr, new(DeadRankError)) {
			t.Errorf("sub comm: got %v, want DeadRankError", werr)
		}
		if _, _, werr := r.Irecv(2, 1).WaitErr(); !errors.As(werr, new(DeadRankError)) {
			t.Errorf("world comm: got %v, want DeadRankError", werr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Killed) != 1 || stats.Killed[0] != 2 {
		t.Fatalf("Stats.Killed = %v, want [2]", stats.Killed)
	}
}
