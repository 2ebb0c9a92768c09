package comm

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// errAborted is panicked out of blocking operations when the run is torn
// down after another rank failed; Run recovers it.
var errAborted = errors.New("comm: run aborted")

// message is the unit moved between ranks. Payloads are float64 and int64
// slices (the two element types the mini-app moves); either may be nil.
type message struct {
	src, tag int
	data     []float64
	ints     []int64
	arrival  float64 // virtual arrival time under the network model
	crc      uint32  // payload checksum, when framed
	framed   bool    // message carries a CRC frame to verify on receive
}

func (m *message) bytes() int64 {
	return 8 * int64(len(m.data)+len(m.ints))
}

// mailbox is one rank's receive side: the messages that arrived and are
// not matched yet, in arrival order, and the owner's pending receive
// requests, in posting order. Senders and transport readers only put;
// every match is made by the owner goroutine. Before any receive looks
// for its own message, settle hands the queued messages, in arrival
// order, to the earliest-posted pending request each one matches — MPI's
// posting-order rule — and FIFO scan order gives the non-overtaking
// guarantee per (source, tag) pair.
//
// Every blocked receive waits in await. seq counts the mutations a
// waiter can be waiting on (a message queued, a member marked dead, the
// box closed); each bumps it inside its critical section, which is what
// lets a waiter poll it without the lock and still park without missing
// a wake-up.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*message
	closed bool
	seq    atomic.Uint64
	budget time.Duration // await's poll interval; zero parks at once
	tr     Transport     // the run's transport, polled while waiting; nil in-process

	// Behind a transport, misses counts the consecutive polls that ran
	// out, and the next skip waits park without polling (see await).
	misses, skip int

	// free holds, behind a transport, the envelopes this mailbox's rank
	// has consumed (Request.Free, freeRaw), under mu; see recycle.
	free []*message

	// pending holds the owner's incomplete receive requests in posting
	// order. Only the owner goroutine reads or writes it.
	pending []*Request
}

// msgPool recycles message envelopes between in-process ranks.
var msgPool sync.Pool

// maxFreeMsgs bounds a mailbox's free envelope list.
const maxFreeMsgs = 32

// newMessage returns a recycled message envelope, or a fresh one. The
// caller holds b.mu.
func (b *mailbox) newMessage() *message {
	if b.tr == nil {
		if m, ok := msgPool.Get().(*message); ok {
			return m
		}
		return &message{}
	}
	n := len(b.free)
	if n == 0 {
		return &message{}
	}
	m := b.free[n-1]
	b.free[n-1] = nil
	b.free = b.free[:n-1]
	return m
}

// recycle returns a message this mailbox's rank has consumed, keeping its
// payload capacity. Recycling is opt-in, so payload slices handed out by
// Recv/Wait stay valid unless the receiver frees them.
//
// In process the envelope goes to msgPool: the sender that takes it next
// mostly runs on the same P, so the envelope is warm in its cache, and
// neither Get nor Put takes a lock. Behind a transport a frame is
// delivered by whichever goroutine reads it — the rank while it polls, a
// reader goroutine while it is parked — and a pool's per-P slot would
// hide the rank's envelope from a reader on another P, which then
// allocates. So there the envelope goes to the mailbox's bounded list,
// under the lock every delivery takes.
func (b *mailbox) recycle(m *message) {
	m.src, m.tag, m.arrival = 0, 0, 0
	m.crc, m.framed = 0, false
	if b.tr == nil {
		msgPool.Put(m)
		return
	}
	b.mu.Lock()
	if b.free == nil {
		b.free = make([]*message, 0, maxFreeMsgs)
	}
	if len(b.free) < cap(b.free) {
		b.free = append(b.free, m)
	}
	b.mu.Unlock()
}

// spinBudget bounds how long a blocked receive polls its mailbox before
// parking on cond.Wait. A park plus the sender's wake-up measured about
// 23 µs per exchange on a 2-vCPU x86-64 KVM guest
// (BenchmarkExchangeAfterCompute, 20 µs of compute per op: 43 µs/op
// parking at once, 22 µs/op polling first), where an in-process
// ping-pong round trip is 2.7 µs. Polling for about twice the park cost
// catches a partner that is merely late and bounds what a wait on a slow
// one burns before it parks anyway.
const spinBudget = 50 * time.Microsecond

// newMailbox returns an empty mailbox whose waiters poll for budget
// (see newComm's gate), polling tr on the way when it is non-nil.
func newMailbox(budget time.Duration, tr Transport) *mailbox {
	b := &mailbox{budget: budget, tr: tr}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until something a waiter can be waiting on may have
// changed. It is called with b.mu held by a loop that has just checked
// every condition it waits for, and returns with b.mu held so the loop
// re-checks. With a budget it first releases the lock and polls seq; if
// seq is still the snapshot once the lock is retaken, nothing changed
// since the caller's check, and any later change must take the lock
// that cond.Wait releases, so parking cannot miss its broadcast.
//
// The poll yields between checks: a sender that an earlier wake-up made
// runnable on this P (the runtime readies a woken goroutine on its
// waker's P) must be able to run, or the waiter would spin out its
// budget waiting for a goroutine queued behind it. Behind a transport
// each check first polls it, so a frame that arrives while the rank
// polls is read and delivered by the rank itself, and before parking
// the rank hands inbound delivery back to the transport (Park).
//
// A transport's poll that runs out means the partner process is not
// about to send, typically because it has no CPU: the host is loaded.
// Polling the next waits too would take the CPU it needs, so after m
// consecutive misses the next 2^m-1 waits park at once (m at most 6).
// Without this back-off, two ranks exchanging over loopback TCP in one
// process beside a CPU-bound process parked about as often but kept
// moving between Ps, which runs the runtime's per-P caches of wait
// records dry: TestTCPExchangeAllocs measured 0.015 allocations per
// message against 0.008 with it (medians of 20 runs on a 2-vCPU x86-64
// guest; its ceiling is 0.012).
func (b *mailbox) await() {
	poll := b.budget > 0 && b.skip == 0
	if b.skip > 0 {
		b.skip--
	}
	if poll {
		s := b.seq.Load()
		b.mu.Unlock()
		for start := time.Now(); ; runtime.Gosched() {
			if b.tr != nil {
				b.tr.Poll()
			}
			if b.seq.Load() != s || time.Since(start) >= b.budget {
				break
			}
		}
		b.mu.Lock()
		if b.seq.Load() != s {
			b.misses = 0
			return
		}
		if b.tr != nil {
			b.misses = min(b.misses+1, 6)
			b.skip = 1<<b.misses - 1
		}
	}
	if b.tr != nil {
		b.tr.Park()
	}
	b.cond.Wait()
}

func match(m *message, src, tag int) bool {
	return (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag)
}

// put copies f's payload into a recycled envelope and queues it, under
// one lock: the one way a message lands, for a local send, the fault
// plane's corrupt first copy and an inbound transport frame alike. It
// never blocks (eager-send semantics) and only borrows f.
func (b *mailbox) put(f *Frame) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return // run is being torn down; drop silently
	}
	m := b.newMessage()
	m.src, m.tag, m.arrival = f.Src, f.Tag, f.Arrival
	m.crc, m.framed = f.CRC, f.Framed
	m.data = append(m.data[:0], f.Data...)
	m.ints = append(m.ints[:0], f.Ints...)
	b.queue = append(b.queue, m)
	b.seq.Add(1)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// settle hands the queued messages, in arrival order, to the
// earliest-posted pending request each one matches, and drops the frames
// that fail their CRC check on the way (the retransmission follows under
// the non-overtaking order and goes to the same request). Messages no
// pending request matches stay queued. The owner r calls it with b.mu
// held before every look for its own message.
func (b *mailbox) settle(r *Rank) {
	if len(b.pending) == 0 {
		return
	}
	kept := b.queue[:0]
	for _, m := range b.queue {
		req := b.firstPending(m)
		switch {
		case req == nil:
			kept = append(kept, m)
		case r.frameOK(m):
			req.complete(m)
			b.unpend(req)
		} // else a damaged frame, dropped
	}
	clear(b.queue[len(kept):])
	b.queue = kept
}

// firstPending returns the earliest-posted pending request m matches, or
// nil.
func (b *mailbox) firstPending(m *message) *Request {
	for _, req := range b.pending {
		if match(m, req.src, req.tag) {
			return req
		}
	}
	return nil
}

// unpend removes req from the pending list, keeping posting order.
func (b *mailbox) unpend(req *Request) {
	for i, q := range b.pending {
		if q == req {
			n := len(b.pending) - 1
			copy(b.pending[i:], b.pending[i+1:])
			b.pending[n] = nil
			b.pending = b.pending[:n]
			return
		}
	}
}

// takeDead removes and returns the first queued message matching (src,
// tag) for the owner r, blocking until one arrives; it panics with
// errAborted if the mailbox is closed while waiting. When r is non-nil,
// src names a specific rank, that rank is marked dead, and no matching
// message remains queued, it returns a DeadRankError instead of blocking
// forever. Queued pre-crash messages are always drained before the error
// fires, so detection is deterministic: a waiter sees everything the
// peer sent before dying, then the death. Wakeup is race-free because
// markDead sets the dead flag before acquiring this mailbox's lock to
// broadcast (see Comm.markDead).
func (b *mailbox) takeDead(r *Rank, src, tag int) (*message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		b.settle(r)
		if m := b.removeLocked(r, src, tag); m != nil {
			return m, nil
		}
		if b.closed {
			panic(errAborted)
		}
		if r != nil && src != AnySource && r.comm.rankDead(src) {
			return nil, DeadRankError{Rank: src, World: r.comm.worldIDOf(src)}
		}
		b.await()
	}
}

// takeCollective is takeDead for collective rounds, where blocking on a
// live partner must still observe the death of any other participant:
// a collective cannot complete once a member is gone, so a rank stuck
// waiting for a contribution that will never be forwarded fails fast
// with the dead member's error (ULFM MPI_ERR_PROC_FAILED semantics)
// instead of hanging. members scopes the check to a subset of the
// communicator's member ids (a split Group); nil means every member.
// Matching queued messages are always drained first, so a participant
// that completed its part of the collective before dying never aborts
// it: eager sends are enqueued before Kill marks the death, and the
// queue is checked before the dead flags.
func (b *mailbox) takeCollective(r *Rank, src, tag int, members []int) (*message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		b.settle(r)
		if m := b.removeLocked(r, src, tag); m != nil {
			return m, nil
		}
		if b.closed {
			panic(errAborted)
		}
		if d := r.comm.firstDead(members); d >= 0 {
			return nil, DeadRankError{Rank: d, World: r.comm.worldIDOf(d)}
		}
		b.await()
	}
}

// peek blocks until a matching message is queued and returns it without
// removing it (MPI_Probe). Like takeDead it refuses to wait forever on a
// dead peer, but since Probe has no error return the death unwinds as a
// panicked DeadRankError.
func (b *mailbox) peek(r *Rank, src, tag int) *message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		b.settle(r)
		for _, m := range b.queue {
			if match(m, src, tag) {
				return m
			}
		}
		if b.closed {
			panic(errAborted)
		}
		if r != nil && src != AnySource && r.comm.rankDead(src) {
			panic(DeadRankError{Rank: src, World: r.comm.worldIDOf(src)})
		}
		b.await()
	}
}

// removeLocked removes and returns the first queued message matching
// (src, tag) whose frame verifies, dropping damaged frames on the way.
func (b *mailbox) removeLocked(r *Rank, src, tag int) *message {
	for i := 0; i < len(b.queue); {
		m := b.queue[i]
		if !match(m, src, tag) {
			i++
			continue
		}
		b.queue = append(b.queue[:i], b.queue[i+1:]...)
		if r.frameOK(m) {
			return m
		}
	}
	return nil
}

func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	b.seq.Add(1)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// wake re-checks all blocked waiters after a dead flag was set. Bumping
// seq under the lock is what makes the dead-rank wakeup race-free: a
// polling waiter sees seq move, and a waiter between its dead-flag check
// and cond.Wait still holds the lock, so the broadcast cannot slip into
// that window.
func (b *mailbox) wake() {
	b.mu.Lock()
	b.seq.Add(1)
	b.mu.Unlock()
	b.cond.Broadcast()
}
