package comm

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/netmodel"
)

// Tests of the spin-then-park wait every blocking receive goes through
// (mailbox.await) and of the gate that decides whether it spins.

// awaitSrc and awaitTag address the message every waiter below blocks on:
// rank 0 waits for rank 1.
const awaitSrc, awaitTag = 1, 5

// outcome is what a woken waiter returned: the first payload value, or
// the error it returned or unwound with.
type outcome struct {
	val float64
	err error
}

// TestMailboxAwaitWakeups blocks each of the four blocking entry points
// on rank 0's mailbox and wakes it with each of the four mutations a
// waiter can be waiting on, once while the waiter is still polling and
// once after it has parked. A mutation that forgot to bump seq would
// leave a polling waiter polling and then parking past the broadcast.
func TestMailboxAwaitWakeups(t *testing.T) {
	// Each waiter blocks on box 0 of c for (awaitSrc, awaitTag).
	waiters := []struct {
		name string
		wait func(c *Comm) outcome
	}{
		{"takeDead", func(c *Comm) outcome {
			m, err := c.boxes[0].takeDead(&Rank{comm: c}, awaitSrc, awaitTag)
			if err != nil {
				return outcome{err: err}
			}
			return outcome{val: m.data[0]}
		}},
		{"takeCollective", func(c *Comm) outcome {
			m, err := c.boxes[0].takeCollective(&Rank{comm: c}, awaitSrc, awaitTag, nil)
			if err != nil {
				return outcome{err: err}
			}
			return outcome{val: m.data[0]}
		}},
		{"peek", func(c *Comm) outcome {
			return outcome{val: c.boxes[0].peek(&Rank{comm: c}, awaitSrc, awaitTag).data[0]}
		}},
		{"waitRequest", func(c *Comm) outcome {
			// A pending Irecv waited on: the message reaches it through
			// the owner's settle, not through a take.
			r := &Rank{comm: c, prof: newProfile(0), clock: netmodel.NewClock(netmodel.Loopback)}
			var req Request
			r.IrecvInto(&req, awaitSrc, awaitTag)
			data, _, err := req.WaitErr()
			if err != nil {
				return outcome{err: err}
			}
			return outcome{val: data[0]}
		}},
	}
	const payload = 42.0
	wakers := []struct {
		name string
		fire func(c *Comm)
		want func(o outcome) error
	}{
		{"put", func(c *Comm) {
			c.boxes[0].put(&Frame{Src: awaitSrc, Tag: awaitTag, Data: []float64{payload}})
		}, wantValue(payload)},
		{"deliverOrQueue", func(c *Comm) {
			// A rank's send, which only queues into the destination's
			// mailbox; the waiter does the matching.
			s := &Rank{comm: c, id: awaitSrc, clock: netmodel.NewClock(netmodel.Loopback), prof: newProfile(awaitSrc)}
			s.deliver(0, awaitTag, []float64{payload}, nil)
		}, wantValue(payload)},
		{"markDead", func(c *Comm) { c.markDead(awaitSrc) }, func(o outcome) error {
			var d DeadRankError
			if !errors.As(o.err, &d) || d.Rank != awaitSrc {
				return fmt.Errorf("got %+v, want DeadRankError for rank %d", o, awaitSrc)
			}
			return nil
		}},
		{"close", func(c *Comm) { c.boxes[0].close() }, func(o outcome) error {
			if !errors.Is(o.err, errAborted) {
				return fmt.Errorf("got %+v, want errAborted", o)
			}
			return nil
		}},
	}
	// polling keeps the waiter in its poll for the whole test; parked
	// uses the real budget and fires long after it ran out.
	phases := []struct {
		name   string
		budget time.Duration
		settle time.Duration
	}{
		{"polling", time.Hour, 2 * time.Millisecond},
		{"parked", spinBudget, 10 * time.Millisecond},
	}
	for _, w := range waiters {
		for _, k := range wakers {
			for _, ph := range phases {
				w, k, ph := w, k, ph
				t.Run(w.name+"/"+k.name+"/"+ph.name, func(t *testing.T) {
					c, err := newComm(2, Options{}, nil)
					if err != nil {
						t.Fatal(err)
					}
					c.boxes[0].budget = ph.budget
					done := make(chan outcome, 1)
					go func() {
						defer func() {
							if p := recover(); p != nil {
								err, _ := p.(error)
								done <- outcome{err: err}
							}
						}()
						done <- w.wait(c)
					}()
					time.Sleep(ph.settle)
					k.fire(c)
					select {
					case o := <-done:
						if err := k.want(o); err != nil {
							t.Fatal(err)
						}
					case <-time.After(2 * time.Second):
						c.closeAll() // unwind the stuck waiter
						t.Fatalf("%s never woke on %s", w.name, k.name)
					}
				})
			}
		}
	}
}

func wantValue(v float64) func(o outcome) error {
	return func(o outcome) error {
		if o.err != nil || o.val != v {
			return fmt.Errorf("got %+v, want value %v", o, v)
		}
		return nil
	}
}

// TestMailboxAwaitBackoff pins the back-off of a transport's poll: after
// m consecutive polls that run out, the next 2^m-1 waits park without
// polling, and a poll that sees a change starts the count again.
func TestMailboxAwaitBackoff(t *testing.T) {
	tr := &countingTransport{parked: make(chan struct{}, 1)}
	b := newMailbox(time.Microsecond, tr)
	tr.b = b
	// wait runs one await; hit makes every Poll look like a delivery.
	// It reports whether the wait polled and whether it parked.
	wait := func(hit bool) (polled, parked bool) {
		tr.hit, tr.polls = hit, 0
		done := make(chan struct{})
		go func() {
			b.mu.Lock()
			b.await()
			b.mu.Unlock()
			close(done)
		}()
		select {
		case <-tr.parked:
			parked = true
			b.wake()
			<-done
		case <-done:
		}
		return tr.polls > 0, parked
	}
	for i, want := range []struct{ hit, polled, parked bool }{
		{false, true, true},  // miss 1: skip 1
		{false, false, true}, //
		{false, true, true},  // miss 2: skip 3
		{false, false, true},
		{false, false, true},
		{false, false, true},
		{true, true, false},  // a hit clears the count
		{false, true, true},  // miss 1 again: skip 1
		{false, false, true}, //
		{true, true, false},
	} {
		if polled, parked := wait(want.hit); polled != want.polled || parked != want.parked {
			t.Fatalf("wait %d: polled %v parked %v, want %v and %v", i, polled, parked, want.polled, want.parked)
		}
	}
}

// countingTransport counts Poll calls, makes each one look like a
// delivery to b when hit is set, and reports every Park on parked.
type countingTransport struct {
	localTransport
	b      *mailbox
	hit    bool
	polls  int
	parked chan struct{}
}

func (c *countingTransport) Poll() {
	c.polls++
	if c.hit {
		c.b.seq.Add(1)
	}
}

func (c *countingTransport) Park() { c.parked <- struct{}{} }

// localTransport hosts every rank of a RunDistributed world in this
// process and never carries a frame.
type localTransport struct{ size int }

func (t localTransport) Name() string { return "local" }
func (t localTransport) Size() int    { return t.size }
func (t localTransport) LocalRanks() []int {
	ranks := make([]int, t.size)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}
func (localTransport) Start(Receiver) error   { return nil }
func (localTransport) Send(int, *Frame) error { return nil }
func (localTransport) NotifyDead(int)         {}
func (localTransport) Close() error           { return nil }
func (localTransport) Abort()                 {}
func (localTransport) Poll()                  {}
func (localTransport) Park()                  {}

// TestSpinGate pins when a communicator polls before parking: iff the
// world has no more ranks than GOMAXPROCS, with or without a transport,
// and a Shrink child keeps its parent's budget and transport whatever its
// own size.
func TestSpinGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// gate reports the poll budget of rank 0's mailbox, checking that
	// every mailbox of its communicator and of a one-member Shrink child
	// of it has the same budget and polls tr.
	gate := func(size int, tr Transport, run func(fn func(*Rank) error) error) time.Duration {
		t.Helper()
		var budget time.Duration
		err := run(func(r *Rank) error {
			if r.ID() != 0 {
				return nil
			}
			sub, err := r.Shrink([]int{0})
			if err != nil {
				return err
			}
			budget = r.comm.boxes[0].budget
			for _, b := range append(append([]*mailbox(nil), r.comm.boxes...), sub.comm.boxes...) {
				if b.budget != budget || b.tr != tr {
					return fmt.Errorf("mailbox budget %v transport %v, want %v and %v", b.budget, b.tr, budget, tr)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		return budget
	}
	for _, tc := range []struct {
		size int
		want time.Duration
	}{{2, spinBudget}, {3, 0}} {
		inProcess := func(fn func(*Rank) error) error {
			_, err := Run(tc.size, Options{}, fn)
			return err
		}
		if got := gate(tc.size, nil, inProcess); got != tc.want {
			t.Errorf("Run(%d) at GOMAXPROCS 2: budget %v, want %v", tc.size, got, tc.want)
		}
		tr := localTransport{size: tc.size}
		distributed := func(fn func(*Rank) error) error {
			_, err := RunDistributed(tr, Options{}, fn)
			return err
		}
		if got := gate(tc.size, tr, distributed); got != tc.want {
			t.Errorf("RunDistributed(%d) at GOMAXPROCS 2: budget %v, want %v", tc.size, got, tc.want)
		}
	}
}

// BenchmarkExchangeAfterCompute is one comm-bound exchange as a solver
// step makes it: two in-process ranks each compute for about 20 µs, then
// swap 200 floats with IsendMsg/IrecvInto/Wait. Whoever finishes its
// compute first blocks in Wait, so the time per op includes how fast a
// blocked receive wakes up.
func BenchmarkExchangeAfterCompute(b *testing.B) {
	const tag, n = 3, 200
	_, err := RunSimple(2, func(r *Rank) error {
		peer := 1 - r.ID()
		out := make([]float64, n)
		var req Request
		x := 0.5 + float64(r.ID()) // off busyCompute's fixed point 1, which the compiler folds
		if r.ID() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			x = busyCompute(x)
			out[0] = x
			r.IrecvInto(&req, peer, tag)
			r.IsendMsg(peer, tag, out, nil)
			req.Wait()
		}
		if r.ID() == 0 {
			b.StopTimer()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// busyCompute runs a dependent multiply-add chain of about 20 µs on a
// 2-3 GHz x86-64 core (a dependent multiply then add per step).
func busyCompute(x float64) float64 {
	for i := 0; i < 7000; i++ {
		x = x*0.999999 + 1e-6
	}
	return x
}
