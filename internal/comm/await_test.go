package comm

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
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
			m, err := c.boxes[0].takeDead(awaitSrc, awaitTag, c)
			if err != nil {
				return outcome{err: err}
			}
			return outcome{val: m.data[0]}
		}},
		{"takeCollective", func(c *Comm) outcome {
			m, err := c.boxes[0].takeCollective(awaitSrc, awaitTag, c, nil)
			if err != nil {
				return outcome{err: err}
			}
			return outcome{val: m.data[0]}
		}},
		{"peek", func(c *Comm) outcome {
			return outcome{val: c.boxes[0].peek(awaitSrc, awaitTag, c).data[0]}
		}},
		{"waitRequest", func(c *Comm) outcome {
			// Posted first, as IrecvInto does on a communicator without a
			// fault plane, so deliverOrQueue takes its direct branch.
			r := &Rank{comm: c, id: 0}
			req := &Request{rank: r, src: awaitSrc, tag: awaitTag, from: AnySource}
			c.boxes[0].matchOrPost(req, awaitSrc, awaitTag)
			if err := c.boxes[0].waitRequest(req, r); err != nil {
				return outcome{err: err}
			}
			if req.direct {
				return outcome{val: req.buf[0]}
			}
			return outcome{val: req.msg.data[0]}
		}},
	}
	const payload = 42.0
	wakers := []struct {
		name string
		fire func(c *Comm)
		want func(o outcome) error
	}{
		{"put", func(c *Comm) {
			c.boxes[0].put(&message{src: awaitSrc, tag: awaitTag, data: []float64{payload}})
		}, wantValue(payload)},
		{"deliverOrQueue", func(c *Comm) {
			c.boxes[0].deliverOrQueue(c, awaitSrc, awaitTag, []float64{payload}, nil, 0)
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
					c, err := newComm(2, Options{}, true)
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

// TestSpinGate pins when a communicator polls before parking: only when
// every member runs in this process and fits in GOMAXPROCS, and a Shrink
// child keeps its parent's decision whatever its own size.
func TestSpinGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// gate reports rank 0's communicator gate and that of a one-member
	// Shrink child of it.
	gate := func(run func(fn func(*Rank) error) error) (spin, child bool) {
		t.Helper()
		err := run(func(r *Rank) error {
			if r.ID() != 0 {
				return nil
			}
			spin = r.comm.spin
			if got := r.comm.boxes[0].budget; (got == spinBudget) != spin {
				return fmt.Errorf("gate %v but mailbox budget %v", spin, got)
			}
			sub, err := r.Shrink([]int{0})
			if err != nil {
				return err
			}
			child = sub.comm.spin
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return spin, child
	}
	inProcess := func(size int) func(fn func(*Rank) error) error {
		return func(fn func(*Rank) error) error {
			_, err := Run(size, Options{}, fn)
			return err
		}
	}
	if spin, child := gate(inProcess(2)); !spin || !child {
		t.Errorf("Run(2) at GOMAXPROCS 2: spin %v, shrunk child %v; want both true", spin, child)
	}
	if spin, child := gate(inProcess(3)); spin || child {
		t.Errorf("Run(3) at GOMAXPROCS 2: spin %v, shrunk child %v; want both false", spin, child)
	}
	distributed := func(fn func(*Rank) error) error {
		_, err := RunDistributed(localTransport{size: 2}, Options{}, fn)
		return err
	}
	if spin, child := gate(distributed); spin || child {
		t.Errorf("RunDistributed: spin %v, shrunk child %v; want both false", spin, child)
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
