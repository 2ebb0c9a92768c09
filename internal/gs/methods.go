package gs

import (
	"sort"

	"repro/internal/comm"
)

// The three exchange algorithms. All of them run in the solver's
// innermost communication path, so they share a discipline: every buffer
// they need lives on the GS handle and is reused across calls — the
// steady-state exchange performs zero heap allocations (the gs
// benchmarks assert this with -benchmem).

// site is the persistent state of one exchange site — Op's, OpFields',
// or a Pending's: its point-to-point tag, the partials of the
// remotely-shared slots (k fields, field-major), and per neighbor a packed
// send buffer and a receive request.
type site struct {
	tag      int
	partial  []float64
	sendBufs [][]float64
	reqs     []comm.Request
}

func (g *GS) newSite(tag int) site {
	return site{
		tag:      tag,
		sendBufs: make([][]float64, len(g.neighbors)),
		reqs:     make([]comm.Request, len(g.neighbors)),
	}
}

// post and complete are the direct (pairwise) algorithm: one nonblocking
// send of this rank's partials to every sharing neighbor, then a wait per
// inbound message, combining as they arrive. This is the method CMT-bone
// selects in the paper's Figure 7 — its face exchange touches at most six
// neighbors, so direct messages beat any routed scheme.
//
// post snapshots and sends first (each neighbor must receive this rank's
// own partial, untouched by combining) — for every neighbor one message
// carrying, for every shared slot, the k field partials contiguously —
// then posts the receives into the persistent requests.
func (g *GS) post(st *site, k int) {
	r := g.rank
	nr := len(g.ix.remID)
	for i, nb := range g.neighbors {
		if cap(st.sendBufs[i]) < k*len(nb.slots) {
			st.sendBufs[i] = make([]float64, k*len(nb.slots))
		}
		buf := st.sendBufs[i][:k*len(nb.slots)]
		if k == 1 {
			for j, s := range nb.slots {
				buf[j] = st.partial[s]
			}
		} else {
			for j, s := range nb.slots {
				for fi := 0; fi < k; fi++ {
					buf[j*k+fi] = st.partial[fi*nr+int(s)]
				}
			}
		}
		r.IsendMsg(nb.rank, st.tag, buf, nil)
	}
	for i, nb := range g.neighbors {
		r.IrecvInto(&st.reqs[i], nb.rank, st.tag)
	}
}

// complete waits for every neighbor's message in ascending rank order,
// combines it into the partials and recycles it; it returns the latest
// modeled arrival time among them.
func (g *GS) complete(st *site, k int, op comm.ReduceOp) (lastArrival float64) {
	nr := len(g.ix.remID)
	for i, nb := range g.neighbors {
		data, _ := st.reqs[i].Wait()
		accumulate(st.partial, nr, nb.slots, data, k, op)
		if a := st.reqs[i].Arrival(); a > lastArrival {
			lastArrival = a
		}
		st.reqs[i].Free()
	}
	return lastArrival
}

// item is one routed (destination, id, value) tuple of the crystal
// router.
type item struct {
	dest int
	id   int64
	val  float64
}

// itemSorter orders items by (dest, id); kept on the handle so the
// per-stage merge sorts without allocating a closure (sort.Slice would).
type itemSorter struct{ items []item }

func (s *itemSorter) Len() int      { return len(s.items) }
func (s *itemSorter) Swap(i, j int) { s.items[i], s.items[j] = s.items[j], s.items[i] }
func (s *itemSorter) Less(i, j int) bool {
	if s.items[i].dest != s.items[j].dest {
		return s.items[i].dest < s.items[j].dest
	}
	return s.items[i].id < s.items[j].id
}

// sendItems packs its into one message to dst through the persistent
// staging buffers; the comm layer copies on send, so the staging is
// reusable as soon as the call returns.
func (g *GS) sendItems(dst int, its []item) {
	ints := g.stageInts[:0]
	vals := g.stageVals[:0]
	for _, it := range its {
		ints = append(ints, int64(it.dest), it.id)
		vals = append(vals, it.val)
	}
	g.stageInts, g.stageVals = ints, vals
	g.rank.IsendMsg(dst, gsTag+1, vals, ints)
}

// recvItemsInto waits for the posted stage receive, appends its items to
// dst, recycles the message, and returns the extended slice.
func (g *GS) recvItemsInto(dst []item) []item {
	vals, ints := g.creq.Wait()
	for i := range vals {
		dst = append(dst, item{dest: int(ints[2*i]), id: ints[2*i+1], val: vals[i]})
	}
	g.creq.Free()
	return dst
}

// exchangeStage is one staged exchange with partner: post the receive,
// send this rank's outbound items, and return base extended with the
// inbound ones. The Irecv/Isend pairing replaces a blocking send-then-
// receive that silently leaned on unbounded mailbox buffering — under
// real MPI with bounded buffers, both partners sending a large stage
// payload first would deadlock.
func (g *GS) exchangeStage(partner int, send, base []item) []item {
	g.rank.IrecvInto(&g.creq, partner, gsTag+1)
	g.sendItems(partner, send)
	return g.recvItemsInto(base)
}

// merge combines tuples with equal (dest, id), the per-stage message
// compaction that makes the router's volume manageable.
func (g *GS) merge(its []item, f func(a, b float64) float64) []item {
	g.sorter.items = its
	sort.Sort(&g.sorter)
	g.sorter.items = nil
	out := its[:0]
	for _, it := range its {
		if n := len(out); n > 0 && out[n-1].dest == it.dest && out[n-1].id == it.id {
			out[n-1].val = f(out[n-1].val, it.val)
		} else {
			out = append(out, it)
		}
	}
	return out
}

// exchangeCrystal implements the crystal-router algorithm, "originally
// developed for all-to-all communication in hypercubes" (paper,
// Section VI): every (destination, id, value) tuple is routed through
// ceil(log2 P) staged exchanges with hypercube partners, merging tuples
// with equal (destination, id) along the way. It completes in log2 P
// stages regardless of the neighbor pattern — which is exactly why it
// loses to pairwise when the pattern is a sparse 6-neighbor stencil.
// partial holds one field's remote-slot partials.
func (g *GS) exchangeCrystal(op comm.ReduceOp, partial []float64) {
	f := combiner(op)
	r := g.rank
	p := r.Size()
	me := r.ID()

	// The live set, the keep partition, and the send staging rotate
	// through three buffers kept on the handle.
	cur := g.itemsA[:0]
	spare := g.itemsB[:0]
	sendBuf := g.itemsC[:0]
	for _, nb := range g.neighbors {
		for _, s := range nb.slots {
			cur = append(cur, item{nb.rank, g.ix.remID[s], partial[s]})
		}
	}

	// Fold to a power of two: high ranks park their traffic on their
	// low partner and proxy destinations dest >= p2 through dest - p2.
	p2 := 1
	for p2*2 <= p {
		p2 *= 2
	}

	if me >= p2 {
		// Park everything on the low partner, then wait for the results
		// routed back after the hypercube phase.
		r.IrecvInto(&g.creq, me-p2, gsTag+1)
		g.sendItems(me-p2, cur)
		cur = g.recvItemsInto(cur[:0])
	} else {
		if me+p2 < p {
			r.IrecvInto(&g.creq, me+p2, gsTag+1)
			cur = g.recvItemsInto(cur)
		}
		proxy := func(dest int) int {
			if dest >= p2 {
				return dest - p2
			}
			return dest
		}
		// Hypercube stages.
		for bit := 1; bit < p2; bit <<= 1 {
			partner := me ^ bit
			keep := spare[:0]
			send := sendBuf[:0]
			for _, it := range cur {
				if proxy(it.dest)&bit != me&bit {
					send = append(send, it)
				} else {
					keep = append(keep, it)
				}
			}
			send = g.merge(send, f)
			keep = g.exchangeStage(partner, send, keep)
			// Rotate: the old live buffer becomes the next keep target.
			cur, spare, sendBuf = g.merge(keep, f), cur, send
		}
		// Unfold: hand the high partner its traffic.
		if me+p2 < p {
			mine := spare[:0]
			theirs := sendBuf[:0]
			for _, it := range cur {
				if it.dest == me+p2 {
					theirs = append(theirs, it)
				} else {
					mine = append(mine, it)
				}
			}
			g.sendItems(me+p2, theirs)
			cur, spare, sendBuf = mine, cur, theirs
		}
	}

	// Everything left is addressed to this rank: combine into partials.
	for _, it := range cur {
		if s, ok := g.slotOf[it.id]; ok {
			partial[s] = f(partial[s], it.val)
		}
	}

	// Keep the grown backing arrays for the next exchange.
	g.itemsA, g.itemsB, g.itemsC = cur, spare, sendBuf
}

// exchangeAllReduce implements "all_reduce onto a big vector": partials
// are scattered into a dense vector indexed by the global union of
// remotely-shared ids (k fields stacked into one k-times-longer vector),
// padded with op's identity, and a single Allreduce combines everything
// everywhere. Simple and pattern-oblivious — and, as the paper finds, too
// expensive for either mini-app at this problem size. The dense vector
// is persistent handle scratch, identity-reset in place each call.
//
// On a hierarchical communicator (comm.CollHier) the Allreduce below
// rides the two-level node-leader tree automatically: intra-node reduce,
// leader exchange, intra-node broadcast. No gs-level awareness is
// needed — the comm layer only enables the hierarchical path on layouts
// where its combine order is bit-identical to the flat tree (power-of-two
// node sizes and node count), so exchange results, and therefore tuning
// decisions, are unchanged. TestHierCommBitIdentical pins this.
func (g *GS) exchangeAllReduce(op comm.ReduceOp, partial []float64, k int) {
	g.ensureBigVector()
	nr := len(g.bigIdx)
	big := g.bigScratch(k * g.bigLen)
	id := identity(op)
	for i := range big {
		big[i] = id
	}
	for s, pos := range g.bigIdx {
		for fi := 0; fi < k; fi++ {
			big[fi*g.bigLen+int(pos)] = partial[fi*nr+s]
		}
	}
	g.rank.Allreduce(op, big)
	for s, pos := range g.bigIdx {
		for fi := 0; fi < k; fi++ {
			partial[fi*nr+s] = big[fi*g.bigLen+int(pos)]
		}
	}
}
