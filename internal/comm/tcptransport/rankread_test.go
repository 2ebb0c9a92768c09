package tcptransport

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
)

// parkDelay is how long a sender below waits before each write: far past
// the bounded poll of a blocked receive (50 µs), so the receiving rank
// has parked and only its reader goroutine can be reading.
const parkDelay = 20 * time.Millisecond

// handOffRun runs a two-rank job over a TCP mesh inside the test binary,
// one Transport per rank, and returns each rank's error; fn gets the rank
// and the transport it runs over. Every row of TestStreamHandOff hangs if
// an inbound stream is left with no one reading it, so a run still going
// after 5 s fails the test.
func handOffRun(t *testing.T, fn func(r *comm.Rank, tr *Transport) error) [2]error {
	t.Helper()
	rendezvous := filepath.Join(t.TempDir(), "rendezvous")
	var errs [2]error
	var wg sync.WaitGroup
	for rank := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := New(Config{
				Rank: rank, Size: 2,
				RendezvousFile:   rendezvous,
				BootstrapTimeout: 5 * time.Second,
				CloseTimeout:     5 * time.Second,
			})
			if err != nil {
				errs[rank] = fmt.Errorf("bootstrap: %w", err)
				return
			}
			_, errs[rank] = comm.RunDistributed(tr, comm.Options{}, func(r *comm.Rank) error { return fn(r, tr) })
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run still blocked after 5 s: an inbound stream was left unread")
	}
	return errs
}

func wantNoErrors(t *testing.T, errs [2]error) {
	t.Helper()
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

// TestStreamHandOff holds the hand-over of an inbound stream between the
// rank goroutine (Poll) and the peer's reader goroutine (after Park) to
// the cases where a wrong hand-over leaves a waiting rank with no one
// reading: a frame that arrives in pieces, frames for a communicator the
// receiver has not created yet, a rank that only ever calls Test, and a
// peer that disconnects without a goodbye.
func TestStreamHandOff(t *testing.T) {
	t.Run("split-frame", func(t *testing.T) {
		// Rank 1 writes one frame straight onto its socket in three
		// pieces, cut inside the header and inside the body, while rank
		// 0 sleeps in Recv.
		want := []float64{1, 2, 3, 4}
		wantNoErrors(t, handOffRun(t, func(r *comm.Rank, tr *Transport) error {
			if r.ID() == 0 {
				if got := r.Recv(1, 5); !slices.Equal(got, want) {
					return fmt.Errorf("got %v, want %v", got, want)
				}
				return nil
			}
			wire := appendData(nil, &comm.Frame{Src: 1, Dst: 0, Tag: 5, Data: want})
			conn := tr.peers[0].conn
			for _, piece := range [][]byte{wire[:5], wire[5 : headerLen+20], wire[headerLen+20:]} {
				time.Sleep(parkDelay)
				if _, err := conn.Write(piece); err != nil {
					return err
				}
			}
			return nil
		}))
	})

	t.Run("pended-frames", func(t *testing.T) {
		// Rank 1 sends on a child communicator rank 0 has not created,
		// while rank 0 sleeps in the world communicator; the world
		// message it waits for comes after them on the same stream.
		const sub = 3
		wantNoErrors(t, handOffRun(t, func(r *comm.Rank, _ *Transport) error {
			if r.ID() == 1 {
				time.Sleep(parkDelay)
				child, err := r.Shrink([]int{0, 1})
				if err != nil {
					return err
				}
				for k := range sub {
					child.Send(0, 7, []float64{float64(k)})
				}
				time.Sleep(parkDelay)
				r.Send(0, 5, []float64{42})
				return nil
			}
			if got := r.Recv(1, 5); got[0] != 42 {
				return fmt.Errorf("world message %v, want 42", got)
			}
			child, err := r.Shrink([]int{0, 1})
			if err != nil {
				return err
			}
			for k := range sub {
				if got := child.Recv(1, 7); got[0] != float64(k) {
					return fmt.Errorf("child message %d = %v", k, got)
				}
			}
			return nil
		}))
	})

	t.Run("test-loop", func(t *testing.T) {
		// Rank 0 never blocks, so it never parks and no reader turn
		// starts: only Test's Poll can bring the message in.
		wantNoErrors(t, handOffRun(t, func(r *comm.Rank, _ *Transport) error {
			if r.ID() == 1 {
				time.Sleep(parkDelay)
				r.Send(0, 5, []float64{42})
				return nil
			}
			req := r.Irecv(1, 5)
			for !req.Test() {
			}
			if got, _ := req.Wait(); got[0] != 42 {
				return fmt.Errorf("got %v, want 42", got)
			}
			return nil
		}))
	})

	for _, polling := range []bool{true, false} {
		name := "eof-parked"
		if polling {
			name = "eof-polling"
		}
		t.Run(name, func(t *testing.T) {
			// Rank 1's process drops its connections without a goodbye.
			// Rank 0 sees it while looping on Test (the EOF is read by
			// Poll) or while asleep in WaitErr (read by the reader).
			wantNoErrors(t, handOffRun(t, func(r *comm.Rank, tr *Transport) error {
				if r.ID() == 1 {
					time.Sleep(parkDelay)
					tr.Abort()
					return nil
				}
				req := r.Irecv(1, 5)
				for end := time.Now().Add(5 * parkDelay); polling && time.Now().Before(end); {
					if req.Test() {
						return errors.New("receive completed from a peer that sent nothing")
					}
				}
				var dead comm.DeadRankError
				if _, _, err := req.WaitErr(); !errors.As(err, &dead) || dead.World != 1 {
					return fmt.Errorf("got %v, want DeadRankError for world rank 1", err)
				}
				return nil
			}))
		})
	}
}
