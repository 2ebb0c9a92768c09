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

// mailbox is one rank's receive queue: an unbounded FIFO with MPI-style
// (source, tag) matching. FIFO scan order gives the MPI non-overtaking
// guarantee per (source, tag) pair.
//
// posted holds receive requests registered before any matching message
// arrived (the direct-delivery fast path, enabled only without CRC
// framing or a fault plane): a sender finding a matching posted request
// copies the payload straight into request-owned buffers and completes
// it, skipping the message envelope and the queue scan. Registration
// (matchOrPost) and delivery (deliverOrQueue) are each one critical
// section, which maintains the invariant that a queued message and a
// posted request matching each other never coexist — so per-(source,
// tag) non-overtaking order is preserved across both paths.
//
// Every blocked receive waits in await. seq counts the mutations a
// waiter can be waiting on (a message queued, a posted request
// completed, a member marked dead, the box closed); each bumps it inside
// its critical section, which is what lets a waiter poll it without the
// lock and still park without missing a wake-up.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*message
	posted []*Request
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

// getMessage is newMessage for a caller not holding b.mu.
func (b *mailbox) getMessage() *message {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.newMessage()
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

// put deposits a message; it never blocks (eager-send semantics).
func (b *mailbox) put(m *message) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return // run is being torn down; drop silently
	}
	b.queue = append(b.queue, m)
	b.seq.Add(1)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// take removes and returns the first queued message matching (src, tag),
// blocking until one arrives. It panics with errAborted if the mailbox is
// closed while waiting.
func (b *mailbox) take(src, tag int) *message {
	m, _ := b.takeDead(src, tag, nil)
	return m
}

// takeDead is take with dead-rank awareness: when c is non-nil, src names
// a specific rank, that rank is marked dead in c, and no matching message
// remains queued, it returns a DeadRankError instead of blocking forever.
// Queued pre-crash messages are always drained before the error fires, so
// detection is deterministic: a waiter sees everything the peer sent
// before dying, then the death. Wakeup is race-free because markDead sets
// the dead flag before acquiring this mailbox's lock to broadcast (see
// Comm.markDead).
func (b *mailbox) takeDead(src, tag int, c *Comm) (*message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if m := b.removeLocked(src, tag); m != nil {
			return m, nil
		}
		if b.closed {
			panic(errAborted)
		}
		if c != nil && src != AnySource && c.rankDead(src) {
			return nil, DeadRankError{Rank: src, World: c.worldIDOf(src)}
		}
		b.await()
	}
}

// takeCollective is takeDead for collective rounds, where blocking on a
// live partner must still observe the death of any other participant:
// a collective cannot complete once a member is gone, so a rank stuck
// waiting for a contribution that will never be forwarded fails fast
// with the dead member's error (ULFM MPI_ERR_PROC_FAILED semantics)
// instead of hanging. members scopes the check to a subset of c's
// member ids (a split Group); nil means every member. Matching queued
// messages are always drained first, so a participant that completed
// its part of the collective before dying never aborts it: eager sends
// are enqueued before Kill marks the death, and the queue is checked
// before the dead flags.
func (b *mailbox) takeCollective(src, tag int, c *Comm, members []int) (*message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if m := b.removeLocked(src, tag); m != nil {
			return m, nil
		}
		if b.closed {
			panic(errAborted)
		}
		if d := c.firstDead(members); d >= 0 {
			return nil, DeadRankError{Rank: d, World: c.worldIDOf(d)}
		}
		b.await()
	}
}

// tryTake is take without blocking; it returns nil when no message
// matches.
func (b *mailbox) tryTake(src, tag int) *message {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		panic(errAborted)
	}
	return b.removeLocked(src, tag)
}

// peek blocks until a matching message is queued and returns it without
// removing it (MPI_Probe). Like takeDead it refuses to wait forever on a
// dead peer, but since Probe has no error return the death unwinds as a
// panicked DeadRankError.
func (b *mailbox) peek(src, tag int, c *Comm) *message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for _, m := range b.queue {
			if match(m, src, tag) {
				return m
			}
		}
		if b.closed {
			panic(errAborted)
		}
		if c != nil && src != AnySource && c.rankDead(src) {
			panic(DeadRankError{Rank: src, World: c.worldIDOf(src)})
		}
		b.await()
	}
}

// matchOrPost either completes req from an already-queued message or
// registers it for direct delivery, atomically — the receive side of the
// fast path. Only called when the communicator has no fault plane, hence
// no CRC framing, so no frame-check loop is needed.
func (b *mailbox) matchOrPost(req *Request, src, tag int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		panic(errAborted)
	}
	if m := b.removeLocked(src, tag); m != nil {
		req.complete(m)
		return
	}
	b.posted = append(b.posted, req)
}

// deliverOrQueue is the send side of the fast path: under one lock
// acquisition it either completes the first matching posted request by
// copying the payload into its buffers, or stages a message in the queue.
func (b *mailbox) deliverOrQueue(src, tag int, data []float64, ints []int64, arrival float64) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return // run is being torn down; drop silently
	}
	if req := b.takePostedLocked(src, tag); req != nil {
		req.buf = append(req.buf[:0], data...)
		req.ibuf = append(req.ibuf[:0], ints...)
		req.direct = true
		req.from = src
		req.arrival = arrival
		req.done = true
		b.seq.Add(1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	m := b.newMessage()
	m.src, m.tag = src, tag
	m.data = append(m.data[:0], data...)
	m.ints = append(m.ints[:0], ints...)
	m.arrival = arrival
	b.queue = append(b.queue, m)
	b.seq.Add(1)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// takePostedLocked removes and returns the first posted request matching
// (src, tag) — posting order, mirroring the queue's FIFO matching.
func (b *mailbox) takePostedLocked(src, tag int) *Request {
	for i, req := range b.posted {
		if (req.src == AnySource || req.src == src) && (req.tag == AnyTag || req.tag == tag) {
			b.removePostedAt(i)
			return req
		}
	}
	return nil
}

// unpostLocked removes req from the posted list if registered (a waiter
// abandoning the request on a dead-sender error).
func (b *mailbox) unpostLocked(req *Request) {
	for i, q := range b.posted {
		if q == req {
			b.removePostedAt(i)
			return
		}
	}
}

func (b *mailbox) removePostedAt(i int) {
	copy(b.posted[i:], b.posted[i+1:])
	b.posted[len(b.posted)-1] = nil
	b.posted = b.posted[:len(b.posted)-1]
}

// waitRequest blocks until req completes — by direct delivery (a sender
// finds it posted), or by a matching queued message — with the same
// dead-sender and teardown semantics as takeDead. Frame-checked (CRC)
// communicators never post requests, so the frame loop here only runs
// for unposted requests, whose fields the owner goroutine holds
// exclusively.
func (b *mailbox) waitRequest(req *Request, r *Rank) error {
	b.mu.Lock()
	for {
		if req.done {
			b.mu.Unlock()
			return nil
		}
		if m := b.removeLocked(req.src, req.tag); m != nil {
			b.mu.Unlock()
			if r.frameOK(m) {
				req.complete(m)
				return nil
			}
			b.mu.Lock()
			continue
		}
		if b.closed {
			b.mu.Unlock()
			panic(errAborted)
		}
		if req.src != AnySource && r.comm.rankDead(req.src) {
			b.unpostLocked(req)
			b.mu.Unlock()
			return DeadRankError{Rank: req.src, World: r.comm.worldIDOf(req.src)}
		}
		b.await()
	}
}

func (b *mailbox) removeLocked(src, tag int) *message {
	for i, m := range b.queue {
		if match(m, src, tag) {
			b.queue = append(b.queue[:i], b.queue[i+1:]...)
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
