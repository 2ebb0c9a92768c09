package comm

import "fmt"

// The collective algorithms, each written once over a member list. A
// team is an ordered list of communicator ranks — position i is rank
// at(i), and this rank sits at position me — with the death scope its
// receives observe. The world collectives run over every rank in order
// (world: no list, nothing allocated); the hierarchical ones compose a
// node team and the leader team (Hierarchy); a split Group runs over
// its members, scoped to them. Like sendRaw and recvRaw, the algorithms
// record no profile entry; the caller's collStart/done region does.
type team struct {
	r     *Rank
	ranks []int // position -> communicator rank; nil is the identity
	n, me int
	scope []int // members whose death fails a receive; nil = all (recvRawColl)
}

// world is the team of every rank of r's communicator.
func (r *Rank) world() *team { return &team{r: r, n: r.comm.size, me: r.id} }

func (t *team) at(pos int) int {
	if t.ranks == nil {
		return pos
	}
	return t.ranks[pos]
}

func (t *team) send(pos, tag int, data []float64, ints []int64) int64 {
	return t.r.sendRaw(t.at(pos), tag, data, ints)
}

func (t *team) recv(pos, tag int) *message {
	return t.r.recvRawColl(t.at(pos), tag, t.scope)
}

// barrier is the dissemination barrier: in round k position me signals
// me+k and waits for me-k, ceil(log2 n) rounds.
func (t *team) barrier(tag int) int64 {
	p, me := t.n, t.me
	var bytes int64
	for k := 1; k < p; k <<= 1 {
		bytes += t.send((me+k)%p, tag, nil, nil)
		t.r.freeRaw(t.recv((me-k+p)%p, tag))
	}
	return bytes
}

// bcast is the binomial broadcast from position root (MPICH shape): a
// position receives from the parent named by the lowest set bit of its
// distance from root, then forwards to children at successively lower
// bits. Root forwards data and ints; every other position forwards the
// payload it received and gets the message back, its own to keep or
// recycle (nil at root).
func (t *team) bcast(root, tag int, data []float64, ints []int64) (*message, int64) {
	p, me := t.n, t.me
	vr := (me - root + p) % p
	var m *message
	var bytes int64
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			m = t.recv((me-mask+p)%p, tag)
			data, ints = m.data, m.ints
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < p {
			bytes += t.send((me+mask)%p, tag, data, ints)
		}
	}
	return m, bytes
}

// reduce is the binomial reduce onto position root: at each bit a
// position either hands its partial result to its parent and is done,
// or folds in its child's. data and ints are combined in place; it
// reports whether this position holds the result (is root).
func (t *team) reduce(op ReduceOp, root, tag int, data []float64, ints []int64) (bool, int64) {
	p := t.n
	vr := (t.me - root + p) % p
	var bytes int64
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			return false, bytes + t.send((vr-mask+root)%p, tag, data, ints)
		}
		if vr+mask < p {
			t.r.combineFrom(op, data, ints, t.recv((vr+mask+root)%p, tag))
		}
	}
	return true, bytes
}

// allreduce is recursive doubling over the largest power-of-two block,
// with the positions beyond it folded onto the block first and sent the
// result last. data and ints are combined in place.
func (t *team) allreduce(op ReduceOp, tag int, data []float64, ints []int64) int64 {
	p, me := t.n, t.me
	var bytes int64
	p2 := 1
	for p2*2 <= p {
		p2 *= 2
	}
	rem := p - p2
	if me >= p2 {
		bytes += t.send(me-p2, tag, data, ints)
		m := t.recv(me-p2, tag)
		copy(data, m.data)
		copy(ints, m.ints)
		t.r.freeRaw(m)
		return bytes
	}
	if me < rem {
		t.r.combineFrom(op, data, ints, t.recv(me+p2, tag))
	}
	for mask := 1; mask < p2; mask <<= 1 {
		bytes += t.send(me^mask, tag, data, ints)
		t.r.combineFrom(op, data, ints, t.recv(me^mask, tag))
	}
	if me < rem {
		bytes += t.send(me+p2, tag, data, ints)
	}
	return bytes
}

// allgather is the ring allgather (n-1 steps): data or ints, whichever
// is non-nil, holds k values per position with this position's already
// in place; each step passes the block last received to the right.
func (t *team) allgather(tag, k int, data []float64, ints []int64) int64 {
	p, me := t.n, t.me
	right, left := (me+1)%p, (me-1+p)%p
	var bytes int64
	cur := me
	for step := 0; step < p-1; step++ {
		bytes += t.send(right, tag, span(data, cur*k, (cur+1)*k), span(ints, cur*k, (cur+1)*k))
		m := t.recv(left, tag)
		cur = (cur - 1 + p) % p
		copy(span(data, cur*k, (cur+1)*k), m.data)
		copy(span(ints, cur*k, (cur+1)*k), m.ints)
		t.r.freeRaw(m)
	}
	return bytes
}

// alltoall is the pairwise all-to-all: at step s this position sends
// its part for position me+s and receives position me-s's part. Part q
// is the next counts[q] values of data or ints, whichever is non-nil;
// got[q] is position q's message (nil for this position's own part).
func (t *team) alltoall(tag int, data []float64, ints []int64, counts []int) (got []*message, bytes int64) {
	p, me := t.n, t.me
	if len(counts) != p {
		panic(fmt.Sprintf("comm: alltoallv needs %d counts, got %d", p, len(counts)))
	}
	offs := make([]int, p+1)
	for i, c := range counts {
		offs[i+1] = offs[i] + c
	}
	if offs[p] != len(data)+len(ints) {
		panic(fmt.Sprintf("comm: alltoallv counts sum %d != payload %d", offs[p], len(data)+len(ints)))
	}
	got = make([]*message, p)
	for step := 1; step < p; step++ {
		dst, src := (me+step)%p, (me-step+p)%p
		bytes += t.send(dst, tag, span(data, offs[dst], offs[dst+1]), span(ints, offs[dst], offs[dst+1]))
		got[src] = t.recv(src, tag)
	}
	return got, bytes
}

// span is s[lo:hi]; nil stays nil.
func span[T any](s []T, lo, hi int) []T {
	if s == nil {
		return nil
	}
	return s[lo:hi]
}
