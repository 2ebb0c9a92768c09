package comm

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Pluggable wire transport. The mailbox/request semantics of this package
// — per-(source, tag) non-overtaking FIFO order, one matching rule
// (posting order) on every communicator, eager buffered sends, CRC
// framing with reject-and-retransmit, and the fault plane's
// DeadRankError/Shrink protocol — are the contract;
// a Transport is the wire that carries messages between ranks hosted in
// different OS processes. The in-process goroutine backend is the
// reference implementation of the contract: all ranks are local, the
// "wire" is a mailbox enqueue, and no Transport is involved. A distributed
// run (RunDistributed) hosts a subset of the ranks and ships every frame
// addressed to a non-local rank through the Transport; inbound frames are
// fed back through a Receiver into the exact same mailbox put, so both
// backends are verified against one behavioral bar — the conformance suite
// in internal/comm/conformance.
//
// Frames carry the virtual-clock timestamps stamped by the sender's
// netmodel clock, so a run spanning OS processes still prices the modeled
// cluster: modeled time is a function of program order and message sizes
// only, and is bit-identical across backends.

// Frame is one wire message between processes: the (tag, src, CRC,
// payload) tuple of the mailbox fabric plus the virtual-clock timestamps
// the network model needs. Src and Dst are member ids within the
// communicator identified by Ctx (0 is the world communicator; shrunken
// sub-communicators derive deterministic ids, so every process computes
// the same routing key without coordination).
type Frame struct {
	Ctx      uint64
	Src, Dst int
	Tag      int
	Data     []float64
	Ints     []int64
	SendVT   float64 // sender's virtual time at injection
	Arrival  float64 // modeled arrival time at the destination
	CRC      uint32  // payload checksum, when Framed
	Framed   bool    // frame carries a CRC to verify on receive
}

// Bytes returns the payload size of the frame in bytes.
func (f *Frame) Bytes() int64 { return 8 * int64(len(f.Data)+len(f.Ints)) }

// Receiver is the inbound side a Transport delivers into. Both methods
// may be called from transport-owned goroutines concurrently.
type Receiver interface {
	// DeliverFrame routes one inbound frame into the destination
	// mailbox. The frame and its payload slices are borrowed for the
	// call, as Send borrows them: the transport may reuse them as soon
	// as it returns, so anything kept must be copied.
	DeliverFrame(f *Frame)
	// PeerDead reports that world rank w died: an explicit death notice,
	// or a peer process disconnecting without a graceful goodbye. The
	// runtime maps it onto the fault plane's dead-rank state, so blocked
	// receives surface DeadRankError and survivors can Shrink.
	PeerDead(world int)
}

// Transport moves frames between the OS processes of one distributed run.
// Implementations must preserve per-(src, dst) send order — the mailbox
// fabric's non-overtaking guarantee is built on it — and must never block
// a sending rank indefinitely (sends are eager; buffering is the
// transport's job).
type Transport interface {
	// Name identifies the backend in reports ("tcp", ...).
	Name() string
	// Size is the world communicator size spanned by all processes.
	Size() int
	// LocalRanks lists the world ranks hosted in this process, ascending.
	LocalRanks() []int
	// Start begins delivering inbound frames into the receiver. It is
	// called exactly once, before any Send.
	Start(rcv Receiver) error
	// Send ships one frame to the process hosting world rank dstWorld.
	// The payload slices are only borrowed for the duration of the call
	// (the caller may reuse them immediately after), so implementations
	// must serialize or copy before returning. Send to a dead or
	// departed peer is not an error worth surfacing: like an eager send
	// into a dead rank's mailbox, the message is silently dropped.
	Send(dstWorld int, f *Frame) error
	// NotifyDead announces the death of a locally hosted world rank to
	// every peer process (Rank.Kill), ordered after all frames already
	// sent, so peers drain pre-crash messages before observing the death.
	NotifyDead(world int)
	// Close tears the transport down gracefully: flush outbound frames,
	// tell every peer goodbye so the disconnect is not mistaken for a
	// crash, then release the connections.
	Close() error
	// Abort tears the transport down immediately, without a goodbye.
	// Peers observe the disconnect as a failure (PeerDead), which is the
	// correct signal: the local process is unwinding from an error.
	Abort()
	// Poll delivers, on the calling rank goroutine, whatever inbound
	// frames have already arrived, and never blocks. A blocked receive
	// calls it on every turn of its bounded poll (mailbox.await), and
	// Request.Test calls it first, so a rank that loops on Test makes
	// progress without ever blocking (MPI's progress rule). Delivering on
	// the waiting rank spares a frame the wake-up of a transport
	// goroutine and then of the rank.
	Poll()
	// Park tells the transport that a local rank is about to sleep on its
	// mailbox, so the transport's own goroutines must deliver inbound
	// frames until a rank polls again. It is called with the mailbox lock
	// held: it must neither block nor deliver.
	Park()
}

// childCtx derives the deterministic routing id of a shrunken
// sub-communicator: every member calls Shrink with the identical member
// list, so every process computes the same id with no coordination.
func childCtx(parent uint64, members []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(parent)
	for _, m := range members {
		put(uint64(m))
	}
	id := h.Sum64()
	if id == worldCtx {
		id = 1 // never collide with the world communicator
	}
	return id
}

// worldCtx is the routing id of the world communicator.
const worldCtx uint64 = 0

// ctxRegistry is the per-process routing table of a distributed run:
// communicator id -> local Comm. Frames for a communicator this process
// has not created yet (a remote peer reached Shrink first and already
// sent) are pended and flushed on registration, preserving order. Death
// notices are also recorded here so a sub-communicator created after a
// notice still observes the death.
type ctxRegistry struct {
	mu        sync.Mutex
	comms     map[uint64]*Comm
	pending   map[uint64][]*Frame
	deadWorld map[int]bool
}

func newCtxRegistry() *ctxRegistry {
	return &ctxRegistry{
		comms:     make(map[uint64]*Comm),
		pending:   make(map[uint64][]*Frame),
		deadWorld: make(map[int]bool),
	}
}

// register installs a communicator and flushes any frames and deaths that
// arrived before it existed locally.
func (g *ctxRegistry) register(ctx uint64, c *Comm) {
	g.mu.Lock()
	g.comms[ctx] = c
	queued := g.pending[ctx]
	delete(g.pending, ctx)
	var dead []int
	for w := range g.deadWorld {
		dead = append(dead, w)
	}
	g.mu.Unlock()
	sort.Ints(dead)
	for _, w := range dead {
		c.markDeadByWorld(w)
	}
	for _, f := range queued {
		c.acceptFrame(f)
	}
}

// route delivers a borrowed inbound frame to its communicator, pending a
// copy if the communicator does not exist locally yet.
func (g *ctxRegistry) route(f *Frame) {
	g.mu.Lock()
	c := g.comms[f.Ctx]
	if c == nil {
		kept := *f
		kept.Data = append([]float64(nil), f.Data...)
		kept.Ints = append([]int64(nil), f.Ints...)
		g.pending[f.Ctx] = append(g.pending[f.Ctx], &kept)
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	c.acceptFrame(f)
}

// markWorld records the death of world rank w and marks it in every
// registered communicator, waking blocked receivers.
func (g *ctxRegistry) markWorld(w int) {
	g.mu.Lock()
	g.deadWorld[w] = true
	comms := make([]*Comm, 0, len(g.comms))
	for _, c := range g.comms {
		comms = append(comms, c)
	}
	g.mu.Unlock()
	for _, c := range comms {
		c.markDeadByWorld(w)
	}
}

// markDeadByWorld marks the member of c with world id w (if any) dead and
// wakes the communicator's blocked receivers. Unlike markDead it does not
// walk ancestors: the registry marks every communicator directly.
func (c *Comm) markDeadByWorld(w int) {
	for id := 0; id < c.size; id++ {
		if c.worldIDOf(id) == w {
			c.dead[id].Store(true)
			for _, b := range c.boxes {
				b.wake()
			}
			return
		}
	}
}

// acceptFrame lands an inbound wire frame in the destination mailbox
// through the same put a local send uses. The modeled arrival time was
// stamped by the sender's clock and rides in the frame.
func (c *Comm) acceptFrame(f *Frame) {
	if f.Dst < 0 || f.Dst >= c.size {
		return // malformed routing; drop
	}
	c.boxes[f.Dst].put(f)
}

// commReceiver adapts the root communicator to the Transport's Receiver.
type commReceiver struct{ root *Comm }

func (cr commReceiver) DeliverFrame(f *Frame) { cr.root.reg.route(f) }
func (cr commReceiver) PeerDead(w int)        { cr.root.reg.markWorld(w) }

// isLocalWorld reports whether world rank w is hosted in this process.
func (c *Comm) isLocalWorld(w int) bool {
	lw := c.root.localWorld
	return lw == nil || (w >= 0 && w < len(lw) && lw[w])
}

// RunDistributed is Run for one process of a multi-process run: it spawns
// a goroutine for every rank the transport hosts locally, wires frames
// addressed to remote ranks through the transport, and waits for the
// local ranks. All processes must use identical Options (the network
// model, grid, hierarchy and fault configuration are part of the communicator
// contract; a fault plane is installed per process and sees the sends of
// locally hosted ranks).
//
// The returned Stats covers the local ranks only: remote entries of the
// per-rank slices are zero (profiles are present but empty). Global
// results — physics diagnostics, modeled makespan — should be computed
// in-run with collectives, exactly as an MPI application would.
//
// On a clean return the transport has been closed gracefully; peers see a
// goodbye, not a failure. If a local rank fails, the transport is aborted
// instead, so blocked peers observe the disconnect as a dead rank rather
// than hanging.
func RunDistributed(t Transport, opts Options, fn func(*Rank) error) (*Stats, error) {
	size := t.Size()
	locals := t.LocalRanks()
	if size < 1 {
		return nil, fmt.Errorf("comm: transport world size must be >= 1, got %d", size)
	}
	if len(locals) == 0 {
		return nil, fmt.Errorf("comm: transport hosts no local ranks")
	}
	localWorld := make([]bool, size)
	for _, w := range locals {
		if w < 0 || w >= size {
			return nil, fmt.Errorf("comm: local rank %d outside world [0,%d)", w, size)
		}
		localWorld[w] = true
	}
	c, err := newComm(size, opts, t)
	if err != nil {
		return nil, err
	}
	c.localWorld = localWorld
	c.reg = newCtxRegistry()
	c.reg.register(worldCtx, c)
	if err := t.Start(commReceiver{root: c}); err != nil {
		return nil, fmt.Errorf("comm: transport start: %w", err)
	}
	stats, err := runRanks(c, locals, fn)
	if err != nil {
		t.Abort()
		return nil, err
	}
	if cerr := t.Close(); cerr != nil {
		return nil, fmt.Errorf("comm: transport close: %w", cerr)
	}
	return stats, nil
}
