package comm

import "time"

// Request represents an in-flight nonblocking operation. Isend requests
// complete immediately (sends are eager); Irecv requests complete in Wait,
// which is where the mini-app — like its MPI parent — accumulates its
// synchronization time (Figure 9's dominant MPI_Wait).
//
// A receive request waits in its mailbox's pending list, in posting
// order, until the owning rank hands it the earliest queued message it
// matches (mailbox.settle) — one matching rule, posting order, on every
// communicator. Only the owning rank goroutine reads or writes a
// Request.
type Request struct {
	rank     *Rank
	src, tag int
	msg      *message
	done     bool
	isSend   bool
	from     int     // actual source once complete (AnySource before)
	arrival  float64 // virtual arrival time once complete
}

// complete marks req satisfied by message m.
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
// src may be AnySource and tag AnyTag. Receives match in posting order:
// an arriving message goes to the earliest-posted pending receive it
// matches, before any later Irecv, Recv, collective round or Probe can
// see it.
func (r *Rank) Irecv(src, tag int) *Request {
	req := &Request{}
	r.IrecvInto(req, src, tag)
	return req
}

// IrecvInto is Irecv posting into a caller-owned Request, for hot paths
// that repost the same receives every exchange and must not allocate.
// Any previous contents of req are overwritten; req must not have an
// incomplete receive outstanding.
func (r *Rank) IrecvInto(req *Request, src, tag int) {
	if src != AnySource {
		r.checkPeer(src)
	}
	start := time.Now()
	*req = Request{rank: r, src: src, tag: tag, from: AnySource}
	b := r.comm.boxes[r.id]
	b.pending = append(b.pending, req)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		panic(errAborted)
	}
	b.settle(r)
	b.mu.Unlock()
	r.prof.record("MPI_Irecv", time.Since(start).Seconds(), 0, 0)
}

// Test reports whether the request has completed, matching a queued
// message if one is available, without blocking. Behind a transport it
// first polls it, so a caller looping on Test makes progress.
func (req *Request) Test() bool {
	if req.isSend || req.done {
		return true
	}
	b := req.rank.comm.boxes[req.rank.id]
	if b.tr != nil {
		b.tr.Poll()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.settle(req.rank)
	if !req.done && b.closed {
		panic(errAborted)
	}
	return req.done
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
	if !req.isSend && !req.done {
		b := r.comm.boxes[r.id]
		b.mu.Lock()
		for b.settle(r); !req.done; b.settle(r) {
			// Checked only while req is pending: pre-crash messages
			// and a box closed after the match do not fail it.
			if b.closed {
				b.mu.Unlock()
				panic(errAborted)
			}
			if req.src != AnySource && r.comm.rankDead(req.src) {
				b.unpend(req)
				b.mu.Unlock()
				r.prof.record("MPI_Wait", time.Since(start).Seconds(), 0, 0)
				return nil, nil, DeadRankError{Rank: req.src, World: r.comm.worldIDOf(req.src)}
			}
			b.await()
		}
		b.mu.Unlock()
	}
	var wait float64
	var bytes int64
	var data []float64
	var ints []int64
	if m := req.msg; m != nil {
		wait = r.receive(m)
		bytes = m.bytes()
		data, ints = m.data, m.ints
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
// payload slices returned by Wait must not be used after Free; Arrival
// and Source stay readable. Freeing is optional — unfreed messages are
// simply left to the garbage collector — and send requests and
// incomplete receives are left untouched.
func (req *Request) Free() {
	if req.msg == nil {
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
