package comm

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Shrink re-forms the communicator over a subset of its members — the
// ULFM MPI_Comm_shrink analogue the recovery protocol is built on. Every
// surviving rank calls Shrink with the identical ascending member list
// (its own current ids) and receives a Rank in a shared sub-communicator
// with dense renumbering 0..len(members)-1, the same virtual clock and
// profile as the caller, and the parent's network model, tracer and fault
// plane. Repeated Shrinks with the same member list return the same
// sub-communicator, which is what makes the call collective-free: the
// first member to arrive creates it, the rest attach, and messages sent
// to a member that has not yet attached simply queue in its mailbox.
//
// The Cartesian grid does not survive a shrink (the survivor set has no
// grid shape); modeled hop distances in the sub-communicator are 1.
func (r *Rank) Shrink(members []int) (*Rank, error) {
	c := r.comm
	start := time.Now()
	if len(members) < 1 {
		return nil, fmt.Errorf("comm: shrink to empty member list")
	}
	idx := -1
	for i, m := range members {
		if m < 0 || m >= c.size {
			return nil, fmt.Errorf("comm: shrink member %d out of range [0,%d)", m, c.size)
		}
		if i > 0 && m <= members[i-1] {
			return nil, fmt.Errorf("comm: shrink members must be strictly ascending, got %v", members)
		}
		if c.rankDead(m) {
			return nil, fmt.Errorf("comm: shrink member %d is dead", m)
		}
		if m == r.id {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("comm: rank %d is not in shrink member list %v", r.id, members)
	}

	key := fmt.Sprint(members)
	c.childMu.Lock()
	sub, ok := c.children[key]
	if !ok {
		sub = &Comm{
			size:     len(members),
			model:    c.model,
			tracer:   c.tracer,
			faults:   c.faults,
			parent:   c,
			root:     c.root,
			parentOf: append([]int(nil), members...),
			dead:     make([]atomic.Bool, len(members)),
			// The node hierarchy does NOT survive a shrink: the survivor
			// set has no guaranteed layout, so hier stays nil and the
			// collectives run the flat algorithms. The flat congestion
			// declaration carries over.
			flatFlows: c.flatFlows,
		}
		sub.worldOf = make([]int, len(members))
		for i, m := range members {
			sub.worldOf[i] = c.worldIDOf(m)
		}
		// The wait policy is the world's: the same poll budget and
		// transport as the parent's mailboxes.
		sub.boxes = make([]*mailbox, len(members))
		for i := range sub.boxes {
			sub.boxes[i] = newMailbox(c.boxes[0].budget, c.boxes[0].tr)
		}
		if c.children == nil {
			c.children = make(map[string]*Comm)
		}
		c.children[key] = sub
		if c.root != nil && c.root.transport != nil {
			// Distributed run: derive the deterministic routing id every
			// process computes for this member list (Shrink is called with
			// world-stable inputs on every survivor) and register it, which
			// also flushes frames from peers that reached Shrink first.
			sub.ctx = childCtx(c.ctx, sub.worldOf)
			c.childMu.Unlock()
			c.root.reg.register(sub.ctx, sub)
			c.childMu.Lock()
		}
	}
	c.childMu.Unlock()

	r.prof.record("MPI_Comm_shrink", time.Since(start).Seconds(), 0, 0)
	return &Rank{comm: sub, id: idx, clock: r.clock, prof: r.prof}, nil
}
