package comm

import "time"

// Request represents an in-flight nonblocking operation. Isend requests
// complete immediately (sends are eager); Irecv requests complete in Wait,
// which is where the mini-app — like its MPI parent — accumulates its
// synchronization time (Figure 9's dominant MPI_Wait).
//
// On communicators without a fault plane (hence without CRC framing), an
// Irecv posted before the matching send completes by direct delivery: the
// sender copies the payload into the request-owned buf/ibuf, skipping the
// message envelope. The buffers persist across IrecvInto reposts, so
// steady-state exchanges stay allocation-free. All completion state is
// written either by the owning rank goroutine or by a sender holding the
// owner's mailbox lock, which the owner re-acquires before reading
// (waitRequest/Test).
type Request struct {
	rank     *Rank
	src, tag int
	msg      *message
	done     bool
	isSend   bool

	// Direct-delivery completion state (posted-receive fast path).
	direct  bool      // completed by a sender copy, not a queued message
	from    int       // actual source once complete (AnySource before)
	arrival float64   // virtual arrival time once complete
	buf     []float64 // request-owned payload buffers, reused across
	ibuf    []int64   // reposts of the same Request
}

// complete marks req satisfied by queued message m. Callers either own
// req exclusively or hold the owning mailbox's lock.
func (req *Request) complete(m *message) {
	req.msg = m
	req.from = m.src
	req.arrival = m.arrival
	req.done = true
}

// Isend starts a nonblocking send of a float payload. The returned request
// is already complete; Wait on it is free. See Send for buffer ownership.
// The request does not retain the message — that belongs to the receiver
// from the moment it is enqueued.
func (r *Rank) Isend(dst, tag int, data []float64) *Request {
	r.checkPeer(dst)
	start := time.Now()
	nbytes := r.deliver(dst, tag, data, nil)
	r.prof.record("MPI_Isend", time.Since(start).Seconds(), r.comm.model.Alpha, nbytes)
	return &Request{rank: r, done: true, isSend: true}
}

// IsendInts starts a nonblocking send of an int payload.
func (r *Rank) IsendInts(dst, tag int, ints []int64) *Request {
	r.checkPeer(dst)
	start := time.Now()
	nbytes := r.deliver(dst, tag, nil, ints)
	r.prof.record("MPI_Isend", time.Since(start).Seconds(), r.comm.model.Alpha, nbytes)
	return &Request{rank: r, done: true, isSend: true}
}

// Irecv posts a nonblocking receive for a message from src with tag.
// Matching happens lazily: Wait blocks until a matching message arrives.
// src may be AnySource and tag AnyTag.
func (r *Rank) Irecv(src, tag int) *Request {
	req := &Request{}
	r.IrecvInto(req, src, tag)
	return req
}

// IrecvInto is Irecv posting into a caller-owned Request, for hot paths
// that repost the same receives every exchange and must not allocate.
// Any previous contents of req are overwritten (the payload buffers are
// kept and reused); req must not have an incomplete receive outstanding.
func (r *Rank) IrecvInto(req *Request, src, tag int) {
	if src != AnySource {
		r.checkPeer(src)
	}
	start := time.Now()
	buf, ibuf := req.buf, req.ibuf
	*req = Request{rank: r, src: src, tag: tag, from: AnySource, buf: buf, ibuf: ibuf}
	if r.comm.directEligible() {
		// Atomically match an already-queued message or register the
		// request so the sender can deliver straight into it.
		r.comm.boxes[r.id].matchOrPost(req, src, tag)
	} else {
		// Eagerly match an already-queued message so Test/Wait on a
		// satisfied receive is cheap and ordering mirrors posting order.
		// Damaged frames are consumed and discarded here just like in
		// Wait; their retransmissions follow in order.
		for {
			m := r.comm.boxes[r.id].tryTake(src, tag)
			if m == nil {
				break
			}
			if r.frameOK(m) {
				req.complete(m)
				break
			}
		}
	}
	r.prof.record("MPI_Irecv", time.Since(start).Seconds(), 0, 0)
}

// Test reports whether the request has completed, matching a queued
// message if one is available, without blocking. Behind a transport it
// first polls it, so a caller looping on Test makes progress. The
// completion flag is read under the mailbox lock because a sender may be
// completing a posted request concurrently.
func (req *Request) Test() bool {
	if req.isSend {
		return true
	}
	b := req.rank.comm.boxes[req.rank.id]
	if b.tr != nil {
		b.tr.Poll()
	}
	b.mu.Lock()
	for {
		if req.done {
			b.mu.Unlock()
			return true
		}
		m := b.removeLocked(req.src, req.tag)
		if m == nil {
			if b.closed {
				b.mu.Unlock()
				panic(errAborted)
			}
			b.mu.Unlock()
			return false
		}
		b.mu.Unlock()
		if req.rank.frameOK(m) {
			req.complete(m)
			return true
		}
		b.mu.Lock()
	}
}

// Wait blocks until the request completes and returns the received
// payloads (nil for send requests). The modeled wait time — how long the
// message was still in flight under the network model — is charged to
// MPI_Wait, reproducing the paper's synchronization accounting. If the
// awaited sender has been killed, Wait unwinds with a panicked
// DeadRankError; callers that must survive peer death use WaitErr.
func (req *Request) Wait() ([]float64, []int64) {
	data, ints, err := req.WaitErr()
	if err != nil {
		panic(err)
	}
	return data, ints
}

// WaitErr is Wait returning a typed error instead of deadlocking (or
// unwinding) when the awaited sender died: once the dead rank's queued
// messages are drained, a receive matching it specifically fails with a
// DeadRankError. This is the primitive heartbeat-based failure detection
// is built on.
func (req *Request) WaitErr() ([]float64, []int64, error) {
	r := req.rank
	start := time.Now()
	if !req.isSend {
		if err := r.comm.boxes[r.id].waitRequest(req, r); err != nil {
			r.prof.record("MPI_Wait", time.Since(start).Seconds(), 0, 0)
			return nil, nil, err
		}
	}
	var wait float64
	var bytes int64
	var data []float64
	var ints []int64
	switch {
	case req.isSend:
	case req.direct:
		wait = r.clock.WaitUntil(req.arrival)
		bytes = 8 * int64(len(req.buf)+len(req.ibuf))
		data, ints = req.buf, req.ibuf
	case req.msg != nil:
		wait = r.receive(req.msg)
		bytes = req.msg.bytes()
		data, ints = req.msg.data, req.msg.ints
	}
	r.prof.record("MPI_Wait", time.Since(start).Seconds(), wait, bytes)
	return data, ints, nil
}

// Arrival returns the modeled arrival time of a completed receive
// (meaningful after Wait).
func (req *Request) Arrival() float64 {
	return req.arrival
}

// Source returns the sender of a completed receive request (meaningful
// after Wait, particularly with AnySource).
func (req *Request) Source() int {
	if req.isSend || !req.done {
		return AnySource
	}
	return req.from
}

// Free returns a completed receive's message envelope (and its payload
// capacity) for a later message to reuse (see mailbox.recycle). The
// payload slices
// returned by Wait must not be used after Free. Freeing is optional —
// unfreed messages are simply left to the garbage collector — and only
// meaningful on receive requests that went through the queue: the
// receiver owns a message, so send requests, direct deliveries (whose
// buffers stay with the request), and incomplete receives are left
// untouched.
func (req *Request) Free() {
	if req.isSend || !req.done || req.msg == nil {
		return
	}
	req.rank.comm.boxes[req.rank.id].recycle(req.msg)
	req.msg = nil
}

// WaitAll completes every request in order (MPI_Waitall).
func (r *Rank) WaitAll(reqs ...*Request) {
	for _, req := range reqs {
		req.Wait()
	}
}
