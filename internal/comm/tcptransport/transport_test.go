package tcptransport

import (
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/netmodel"
)

// The unit tests here run every "process" of a TCP mesh as a goroutine
// inside the test binary — real localhost sockets, one Transport per
// virtual process — so the race detector observes the full transport
// concurrently with the comm runtime. The true multi-OS-process bar is
// held by internal/comm/conformance, which spawns child processes.

// runTCP runs fn as a size-rank distributed run over a TCP mesh hosted
// in-process, one Transport (and one RunDistributed) per rank, and
// returns each rank's Stats.
func runTCP(t *testing.T, size int, opts comm.Options, fn func(*comm.Rank) error) []*comm.Stats {
	t.Helper()
	stats, errs := runTCPErr(t, size, opts, fn)
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return stats
}

func runTCPErr(t *testing.T, size int, opts comm.Options, fn func(*comm.Rank) error) ([]*comm.Stats, []error) {
	t.Helper()
	rendezvous := filepath.Join(t.TempDir(), "rendezvous")
	stats := make([]*comm.Stats, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := New(Config{
				Rank: rank, Size: size,
				RendezvousFile:   rendezvous,
				BootstrapTimeout: 30 * time.Second,
				CloseTimeout:     30 * time.Second,
			})
			if err != nil {
				errs[rank] = fmt.Errorf("bootstrap: %w", err)
				return
			}
			stats[rank], errs[rank] = comm.RunDistributed(tr, opts, fn)
		}(rank)
	}
	wg.Wait()
	return stats, errs
}

func TestTCPSendRecv(t *testing.T) {
	const size = 4
	runTCP(t, size, comm.Options{}, func(r *comm.Rank) error {
		// Ring: send to the right, receive from the left, twice (FIFO).
		right := (r.ID() + 1) % size
		left := (r.ID() - 1 + size) % size
		r.Send(right, 1, []float64{float64(r.ID()), 1})
		r.Send(right, 1, []float64{float64(r.ID()), 2})
		first := r.Recv(left, 1)
		second := r.Recv(left, 1)
		if first[0] != float64(left) || second[0] != float64(left) {
			return fmt.Errorf("payload from wrong source: %v %v", first, second)
		}
		if first[1] != 1 || second[1] != 2 {
			return fmt.Errorf("FIFO order violated: got %v then %v", first[1], second[1])
		}
		return nil
	})
}

func TestTCPExplicitPeers(t *testing.T) {
	const size = 3
	// Reserve three distinct ephemeral ports, then hand the addresses to
	// the explicit-peers bootstrap.
	addrs := reserveAddrs(t, size)
	stats := make([]*comm.Stats, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := New(Config{Rank: rank, Size: size, Peers: addrs})
			if err != nil {
				errs[rank] = err
				return
			}
			stats[rank], errs[rank] = comm.RunDistributed(tr, comm.Options{}, func(r *comm.Rank) error {
				sum := r.Allreduce(comm.OpSum, []float64{float64(r.ID())})
				if sum[0] != 3 { // 0+1+2
					return fmt.Errorf("allreduce got %v", sum[0])
				}
				return nil
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestTCPCollectivesMatchInProcess is the headline invariant: modeled
// time is a function of program order and message sizes only, so the
// same program produces bit-identical results and virtual clocks on both
// backends.
func TestTCPCollectivesMatchInProcess(t *testing.T) {
	const size = 4
	opts := comm.Options{Model: netmodel.GigE}
	prog := func(r *comm.Rank) error {
		data := make([]float64, 64)
		for i := range data {
			data[i] = float64(r.ID()*1000 + i)
		}
		r.Allreduce(comm.OpSum, data)
		all := r.Allgather(data[:4])
		r.Allreduce(comm.OpMax, all)
		if r.ID()%2 == 0 {
			r.Send((r.ID()+1)%size, 9, all[:8])
		} else {
			r.Recv((r.ID()-1+size)%size, 9)
		}
		r.Barrier()
		return nil
	}
	ref, err := comm.Run(size, opts, prog)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	stats := runTCP(t, size, opts, prog)
	for rank := 0; rank < size; rank++ {
		got := stats[rank].VirtualTimes[rank]
		want := ref.VirtualTimes[rank]
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("rank %d final VT %v over TCP, %v in-process", rank, got, want)
		}
	}
}

// TestTCPPostedReceive exercises a posted receive end to end: an Irecv
// posted before its frame arrives completes with the frame's payload,
// whichever goroutine read the frame (the transport only queues it; the
// waiting rank matches it).
func TestTCPPostedReceive(t *testing.T) {
	const size = 2
	runTCP(t, size, comm.Options{}, func(r *comm.Rank) error {
		if r.ID() == 0 {
			req := r.Irecv(1, 5)
			r.Send(1, 4, []float64{1}) // tell peer the receive is posted
			data, _, err := req.WaitErr()
			if err != nil {
				return err
			}
			if len(data) != 3 || data[0] != 7 {
				return fmt.Errorf("posted receive payload wrong: %v", data)
			}
		} else {
			r.Recv(0, 4)
			r.Send(0, 5, []float64{7, 8, 9})
		}
		return nil
	})
}

// TestTCPDeadRankError kills a rank in one "process"; a peer blocked on
// it in another must get the typed error through the wire's death notice.
func TestTCPDeadRankError(t *testing.T) {
	const size = 3
	stats, errs := runTCPErr(t, size, comm.Options{}, func(r *comm.Rank) error {
		switch r.ID() {
		case 0:
			r.Send(1, 1, []float64{42}) // drains before the death is seen
			r.Kill()
		case 1:
			if got := r.Recv(0, 1); got[0] != 42 {
				return fmt.Errorf("pre-death payload lost: %v", got)
			}
			req := r.Irecv(0, 2)
			var dead comm.DeadRankError
			if _, _, err := req.WaitErr(); !errors.As(err, &dead) {
				return fmt.Errorf("want DeadRankError, got %v", err)
			}
			if dead.World != 0 {
				return fmt.Errorf("DeadRankError names world %d, want 0", dead.World)
			}
		case 2:
			// Not involved; verifies uninvolved processes tear down clean.
		}
		return nil
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if len(stats[0].Killed) != 1 || stats[0].Killed[0] != 0 {
		t.Fatalf("killing process recorded %v, want [0]", stats[0].Killed)
	}
}

// TestTCPCollectiveDeadFailsFast: the fail-fast collective contract must
// hold across processes — death notices travel the wire.
func TestTCPCollectiveDeadFailsFast(t *testing.T) {
	const size = 4
	runTCP(t, size, comm.Options{}, func(r *comm.Rank) error {
		if r.ID() == 2 {
			r.Kill()
		}
		_, err := r.AllreduceErr(comm.OpSum, []float64{1})
		var dead comm.DeadRankError
		if !errors.As(err, &dead) {
			return fmt.Errorf("want DeadRankError from allreduce, got %v", err)
		}
		if dead.World != 2 {
			return fmt.Errorf("DeadRankError names world %d, want 2", dead.World)
		}
		return nil
	})
}

// TestTCPShrinkReformation: kill, observe, Shrink, and run collectives on
// the survivor communicator — over real sockets, with the sub-communicator
// formed independently in every process (deterministic routing ids).
func TestTCPShrinkReformation(t *testing.T) {
	const size = 4
	survivors := []int{0, 1, 3}
	runTCP(t, size, comm.Options{}, func(r *comm.Rank) error {
		if r.ID() == 2 {
			r.Kill()
		}
		if _, err := r.AllreduceErr(comm.OpSum, []float64{1}); err == nil {
			return errors.New("allreduce should have failed")
		}
		sub, err := r.Shrink(survivors)
		if err != nil {
			return err
		}
		sum := sub.Allreduce(comm.OpSum, []float64{float64(r.ID())})
		if sum[0] != 4 { // 0+1+3
			return fmt.Errorf("survivor allreduce got %v, want 4", sum[0])
		}
		all := sub.Allgather([]float64{float64(sub.ID())})
		for i, v := range all {
			if v != float64(i) {
				return fmt.Errorf("survivor allgather %v", all)
			}
		}
		return nil
	})
}

// TestTCPPendedFrameOutlivesReaderBuffer: the reader decodes every frame
// into one reused Frame and lends it to DeliverFrame, so a frame for a
// communicator this process has not registered yet must be pended as a
// copy. Rank 1 sends on a child communicator before rank 0 has created
// it, then sends same-shaped world traffic that overwrites the reader's
// Frame; after rank 0 registers the child, the pended payload must be
// the one sent on it.
func TestTCPPendedFrameOutlivesReaderBuffer(t *testing.T) {
	const size, n, world = 2, 64, 8
	payload := func(base int) []float64 {
		p := make([]float64, n)
		for i := range p {
			p[i] = float64(base + i)
		}
		return p
	}
	runTCP(t, size, comm.Options{}, func(r *comm.Rank) error {
		if r.ID() == 1 {
			sub, err := r.Shrink([]int{0, 1})
			if err != nil {
				return err
			}
			sub.Send(0, 7, payload(1000))
			for k := 0; k < world; k++ {
				r.Send(0, 7, payload(2000+100*k))
			}
			return nil
		}
		// The world messages follow the child's frame on the same stream,
		// so once they are all received the child's frame has been pended
		// and the reader's Frame reused world times over.
		for k := 0; k < world; k++ {
			if got := r.Recv(1, 7); got[0] != float64(2000+100*k) {
				return fmt.Errorf("world message %d = %v", k, got[0])
			}
		}
		sub, err := r.Shrink([]int{0, 1})
		if err != nil {
			return err
		}
		got, want := sub.Recv(1, 7), payload(1000)
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("pended payload overwritten: element %d = %v, want %v", i, got[i], want[i])
			}
		}
		return nil
	})
}

// TestTCPChaosCRCRetransmit drives the fault plane over real sockets: a
// corrupted first copy crosses the wire as its own frame, is rejected by
// the receiver's CRC check, and the clean retransmission lands — with
// results bit-identical to the in-process backend under the same plane.
func TestTCPChaosCRCRetransmit(t *testing.T) {
	const size = 3
	prog := func(r *comm.Rank) error {
		data := []float64{float64(r.ID() + 1)}
		for i := 0; i < 30; i++ {
			out := r.Allreduce(comm.OpSum, []float64{data[0]})
			if out[0] != 6 { // 1+2+3
				return fmt.Errorf("iteration %d: allreduce got %v, want 6", i, out[0])
			}
		}
		return nil
	}
	ref, err := comm.Run(size, comm.Options{Faults: newEveryNth(3)}, prog)
	if err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	if ref.CRCDetected == 0 || ref.Retransmits == 0 {
		t.Fatalf("fault plane inert in-process: crc=%d retx=%d", ref.CRCDetected, ref.Retransmits)
	}
	stats := runTCP(t, size, comm.Options{Faults: newEveryNth(3)}, prog)
	var crc, retx int64
	for rank := 0; rank < size; rank++ {
		crc += stats[rank].CRCDetected
		retx += stats[rank].Retransmits
		got := stats[rank].VirtualTimes[rank]
		want := ref.VirtualTimes[rank]
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("rank %d VT %v over TCP, %v in-process (faults must price identically)", rank, got, want)
		}
	}
	// Each process counts receive-side detections and send-side
	// retransmits for its own rank; summed they must match the
	// all-in-one-process run.
	if crc != ref.CRCDetected || retx != ref.Retransmits {
		t.Errorf("fault counters over TCP crc=%d retx=%d, in-process crc=%d retx=%d",
			crc, retx, ref.CRCDetected, ref.Retransmits)
	}
}

// everyNth deterministically faults every n-th message per (src,dst)
// pair, cycling drop → corrupt → delay; a process-local mirror of the
// plane the comm property tests use. Under TCP each process sees only
// its own ranks' sends, but per-(src,dst) counting makes the decisions
// identical to the in-process run.
type everyNth struct {
	mu  sync.Mutex
	n   int
	cnt map[[2]int]int
}

func newEveryNth(n int) *everyNth { return &everyNth{n: n, cnt: make(map[[2]int]int)} }

func (f *everyNth) Message(src, dst, tag int, bytes int64, sendVT float64) comm.FaultAction {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := [2]int{src, dst}
	c := f.cnt[k]
	f.cnt[k] = c + 1
	if f.n <= 0 || c%f.n != f.n-1 {
		return comm.FaultAction{}
	}
	switch (c / f.n) % 3 {
	case 0:
		return comm.FaultAction{Drop: true}
	case 1:
		return comm.FaultAction{Corrupt: true, FlipBit: c % 53}
	default:
		return comm.FaultAction{DelayVT: 3e-6}
	}
}

func (f *everyNth) CRCDetected(src, dst, tag int) {}

// reserveAddrs grabs n distinct localhost ports and releases them, so an
// explicit-peers test has addresses that were just free.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}
