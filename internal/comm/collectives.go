package comm

import (
	"fmt"
	"time"
)

// ReduceOp selects the combining operation of a reduction.
type ReduceOp int

// Reduction operations.
const (
	OpSum ReduceOp = iota
	OpProd
	OpMin
	OpMax
)

// String implements fmt.Stringer.
func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpProd:
		return "prod"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	}
	return fmt.Sprintf("ReduceOp(%d)", int(op))
}

// combine folds src into dst element-wise.
func (op ReduceOp) combine(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("comm: reduce length mismatch %d vs %d", len(dst), len(src)))
	}
	switch op {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpProd:
		for i, v := range src {
			dst[i] *= v
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	}
}

func (op ReduceOp) combineInts(dst, src []int64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("comm: reduce length mismatch %d vs %d", len(dst), len(src)))
	}
	switch op {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpProd:
		for i, v := range src {
			dst[i] *= v
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	}
}

// Collective messages use a reserved tag space far above application tags,
// so user point-to-point traffic can never match collective rounds.
const collTagBase = 1 << 24

// raw point-to-point helpers used inside collectives: they move data and
// advance the virtual clock but record no profile entries, so a collective
// shows up as a single MPI call the way mpiP reports it. Like deliver,
// sendRaw copies payloads, so collectives may keep mutating their working
// buffers after each round's send.

func (r *Rank) sendRaw(dst, tag int, data []float64, ints []int64) int64 {
	return r.deliver(dst, tag, data, ints)
}

// recvRaw blocks for a collective round's message with fail-fast death
// semantics: if ANY member of the communicator dies while this rank is
// blocked — not just the partner it is receiving from — the wait unwinds
// with a typed DeadRankError instead of hanging on a contribution that
// can never be forwarded. Queued messages (including the retransmission
// after a rejected CRC frame) are always drained first, so a member that
// finished its part of the collective before dying cannot abort it. The
// blocking collectives surface the error as a panicked DeadRankError,
// like every blocking receive; BarrierErr/AllreduceErr return it.
func (r *Rank) recvRaw(src, tag int) *message {
	return r.recvRawColl(src, tag, nil)
}

// recvRawColl is recvRaw scoped to a member subset (a split Group):
// only the death of a participant fails the collective, never that of
// an unrelated world rank.
func (r *Rank) recvRawColl(src, tag int, members []int) *message {
	for {
		m, err := r.comm.boxes[r.id].takeCollective(src, tag, r.comm, members)
		if err != nil {
			panic(err)
		}
		if r.frameOK(m) {
			r.clock.WaitUntil(m.arrival)
			return m
		}
	}
}

// freeRaw recycles a raw message whose payload has been fully consumed
// (combined or copied out, as the alltoalls copy theirs into the result).
// Collectives that hand a message's payload to the caller — Bcast,
// Scatter — must NOT free it.
func (r *Rank) freeRaw(m *message) { r.comm.boxes[r.id].recycle(m) }

// collRegion is an open profiled collective region. It is a value (not
// a returned closure) so opening one costs no heap allocation — the
// collectives sit on the gs hot path where per-call allocations are
// banned.
type collRegion struct {
	r     *Rank
	op    string
	start time.Time
	v0    float64
}

// collStart opens a profiled collective region; call done with the
// bytes sent to record (wall, modeled, bytes). It also declares the
// rank's sender concurrency to topology congestion pricing: inside a
// flat collective every rank of a node injects into the fabric at once
// (flatFlows); hierarchical algorithms overwrite this with 1 on entry
// (only the leader injects per inter-node round). done resets the
// declaration, so point-to-point traffic outside collectives is priced
// as a lone flow.
func (r *Rank) collStart(op string) collRegion {
	r.flows = r.comm.flatFlows
	return collRegion{r: r, op: op, start: time.Now(), v0: r.clock.Now()}
}

func (c collRegion) done(bytes int64) {
	c.r.flows = 0
	c.r.prof.record(c.op, time.Since(c.start).Seconds(), c.r.clock.Now()-c.v0, bytes)
}

// Barrier blocks until every rank has entered it. The flat path is a
// dissemination barrier (ceil(log2 P) rounds); with a Hierarchy, ranks
// gather on their node leader, the leaders disseminate, and the release
// fans back out within each node.
func (r *Rank) Barrier() {
	coll := r.collStart("MPI_Barrier")
	var bytes int64
	if r.hierOn() {
		bytes = r.barrierHier()
	} else {
		bytes = r.world().barrier(collTagBase + 0)
	}
	coll.done(bytes)
}

// catchDead converts a panicked DeadRankError into a returned error;
// any other panic propagates. It backs the *Err collective variants.
func catchDead(err *error) {
	if p := recover(); p != nil {
		if d, ok := p.(DeadRankError); ok {
			*err = d
			return
		}
		panic(p)
	}
}

// BarrierErr is Barrier returning a typed error: if any member of the
// communicator dies while this rank is inside the barrier, it returns
// the DeadRankError instead of unwinding the goroutine — the form
// recovery protocols use to observe a failure and move to Shrink.
func (r *Rank) BarrierErr() (err error) {
	defer catchDead(&err)
	r.Barrier()
	return nil
}

// AllreduceErr is Allreduce returning a typed error on member death;
// data is garbage when err is non-nil.
func (r *Rank) AllreduceErr(op ReduceOp, data []float64) (out []float64, err error) {
	defer catchDead(&err)
	return r.Allreduce(op, data), nil
}

// Bcast broadcasts data from root using a binomial tree (two-level
// node-leader trees when the communicator has a Hierarchy; broadcast
// moves bytes without combining, so either path yields identical
// results). Non-root ranks pass nil and receive the broadcast value;
// root gets its own slice back.
func (r *Rank) Bcast(root int, data []float64) []float64 {
	d, _ := r.bcast(root, data, nil)
	return d
}

// BcastInts is Bcast for int64 payloads.
func (r *Rank) BcastInts(root int, ints []int64) []int64 {
	_, is := r.bcast(root, nil, ints)
	return is
}

func (r *Rank) bcast(root int, data []float64, ints []int64) ([]float64, []int64) {
	coll := r.collStart("MPI_Bcast")
	var (
		m     *message
		bytes int64
	)
	if r.hierOn() {
		m, bytes = r.bcastHier(root, data, ints)
	} else {
		m, bytes = r.world().bcast(root, collTagBase+1, data, ints)
	}
	coll.done(bytes)
	if m != nil {
		return m.data, m.ints
	}
	return data, ints
}

// Reduce combines data from all ranks onto root using a binomial tree.
// On root the input slice is updated in place with the reduction and also
// returned; on other ranks the contents of data are consumed (mutated as
// scratch) and the return value is nil.
func (r *Rank) Reduce(op ReduceOp, root int, data []float64) []float64 {
	coll := r.collStart("MPI_Reduce")
	var (
		held  bool
		bytes int64
	)
	// The hierarchical path requires a node-leader root; rank 0 (the only
	// root the mini-app reduces onto) is always the leader of its node.
	if r.hierOn() && root == 0 {
		held, bytes = r.reduceHier(op, root, data)
	} else {
		held, bytes = r.world().reduce(op, root, collTagBase+2, data, nil)
	}
	coll.done(bytes)
	if !held {
		return nil
	}
	return data
}

// rabenseifnerMinLen is the vector length from which Allreduce switches
// from recursive doubling (latency-optimal, log2 P messages of the full
// vector) to the Rabenseifner algorithm (bandwidth-optimal:
// reduce-scatter then allgather, moving ~2x the vector total instead of
// log2(P)x) — the size-based algorithm switch real MPI libraries make.
const rabenseifnerMinLen = 4096

// Allreduce combines data across all ranks and leaves the result on every
// rank, updating data in place and returning it. Small vectors use
// recursive doubling — two-level node-leader recursive doubling when the
// communicator has a Hierarchy, which cuts the per-node fabric injection
// from one flow per rank to one per node. Vectors of rabenseifnerMinLen
// or more on more than two ranks use the flat Rabenseifner
// reduce-scatter/allgather algorithm regardless: it is bandwidth-optimal,
// and the hierarchical small-vector path would move the full vector
// log2(nodes) times.
func (r *Rank) Allreduce(op ReduceOp, data []float64) []float64 {
	coll := r.collStart("MPI_Allreduce")
	var bytes int64
	switch {
	case len(data) >= rabenseifnerMinLen && r.comm.size > 2:
		bytes = r.allreduceRabenseifner(op, data)
	case r.hierOn():
		bytes = r.allreduceHier(op, data, nil)
	default:
		bytes = r.world().allreduce(op, collTagBase+3, data, nil)
	}
	coll.done(bytes)
	return data
}

// allreduceRabenseifner: fold to a power of two, recursive-halving
// reduce-scatter (each round exchanges half the remaining vector), then
// recursive-doubling allgather, then unfold.
func (r *Rank) allreduceRabenseifner(op ReduceOp, data []float64) int64 {
	p, id := r.comm.size, r.id
	tag := collTagBase + 11
	var bytes int64

	p2 := 1
	for p2*2 <= p {
		p2 *= 2
	}
	rem := p - p2
	// Fold: high ranks park their data on their low partner.
	if id >= p2 {
		bytes += r.sendRaw(id-p2, tag, data, nil)
		m := r.recvRaw(id-p2, tag)
		copy(data, m.data)
		r.freeRaw(m)
		return bytes
	}
	if id < rem {
		m := r.recvRaw(id+p2, tag)
		op.combine(data, m.data)
		r.freeRaw(m)
	}

	n := len(data)
	// Reduce-scatter by recursive halving: after round k, this rank is
	// responsible for a 1/2^k slice that holds fully reduced values. The
	// parent interval of each split is recorded so the allgather phase
	// reconstructs exactly, even for odd slice lengths. Partners at each
	// round share the same interval history (they differ only in the
	// current mask bit), so their split points agree.
	type span struct{ lo, hi int }
	lo, hi := 0, n
	var parentsArr [64]span // log2(P) deep; stack storage, no per-call alloc
	parents := parentsArr[:0]
	for mask := p2 >> 1; mask >= 1; mask >>= 1 {
		partner := id ^ mask
		parents = append(parents, span{lo, hi})
		mid := lo + (hi-lo)/2
		var sendLo, sendHi, keepLo, keepHi int
		if id&mask == 0 {
			// Keep the lower half, send the upper.
			sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
		} else {
			sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
		}
		bytes += r.sendRaw(partner, tag, data[sendLo:sendHi], nil)
		m := r.recvRaw(partner, tag)
		op.combine(data[keepLo:keepHi], m.data)
		r.freeRaw(m)
		lo, hi = keepLo, keepHi
	}
	// Allgather by recursive doubling, unwinding the recorded splits.
	for mask := 1; mask < p2; mask <<= 1 {
		partner := id ^ mask
		parent := parents[len(parents)-1]
		parents = parents[:len(parents)-1]
		bytes += r.sendRaw(partner, tag, data[lo:hi], nil)
		m := r.recvRaw(partner, tag)
		if lo == parent.lo {
			copy(data[hi:parent.hi], m.data)
		} else {
			copy(data[parent.lo:lo], m.data)
		}
		r.freeRaw(m)
		lo, hi = parent.lo, parent.hi
	}
	// Unfold.
	if id < rem {
		bytes += r.sendRaw(id+p2, tag, data, nil)
	}
	return bytes
}

// AllreduceInts is Allreduce for int64 payloads. Integer reductions are
// exact under any combine order, so the hierarchical path applies
// whenever a Hierarchy is set, regardless of layout.
func (r *Rank) AllreduceInts(op ReduceOp, ints []int64) []int64 {
	coll := r.collStart("MPI_Allreduce")
	var bytes int64
	if r.hierOn() {
		bytes = r.allreduceHier(op, nil, ints)
	} else {
		bytes = r.world().allreduce(op, collTagBase+3, nil, ints)
	}
	coll.done(bytes)
	return ints
}

// combineFrom folds a received message into the local buffers and
// recycles it.
func (r *Rank) combineFrom(op ReduceOp, data []float64, ints []int64, m *message) {
	if data != nil {
		op.combine(data, m.data)
	}
	if ints != nil {
		op.combineInts(ints, m.ints)
	}
	r.freeRaw(m)
}

// Gather collects fixed-size contributions onto root, concatenated in
// rank order. Non-root ranks receive nil.
func (r *Rank) Gather(root int, data []float64) []float64 {
	coll := r.collStart("MPI_Gather")
	p, id := r.comm.size, r.id
	tag := collTagBase + 4
	if id != root {
		bytes := r.sendRaw(root, tag, data, nil)
		coll.done(bytes)
		return nil
	}
	out := make([]float64, len(data)*p)
	copy(out[id*len(data):], data)
	for src := 0; src < p; src++ {
		if src == root {
			continue
		}
		m := r.recvRaw(src, tag)
		copy(out[src*len(data):], m.data)
		r.freeRaw(m)
	}
	coll.done(0)
	return out
}

// Scatter distributes consecutive equal chunks of send (significant only
// on root) to every rank and returns this rank's chunk of length n.
func (r *Rank) Scatter(root int, send []float64, n int) []float64 {
	coll := r.collStart("MPI_Scatter")
	p, id := r.comm.size, r.id
	tag := collTagBase + 5
	if id == root {
		if len(send) != n*p {
			panic(fmt.Sprintf("comm: scatter needs %d values, got %d", n*p, len(send)))
		}
		var bytes int64
		for dst := 0; dst < p; dst++ {
			if dst != root {
				bytes += r.sendRaw(dst, tag, send[dst*n:(dst+1)*n], nil)
			}
		}
		out := make([]float64, n)
		copy(out, send[id*n:(id+1)*n])
		coll.done(bytes)
		return out
	}
	m := r.recvRaw(root, tag)
	coll.done(0)
	return m.data
}

// Allgather concatenates each rank's fixed-size contribution in rank
// order on every rank (ring algorithm, P-1 steps).
func (r *Rank) Allgather(data []float64) []float64 {
	coll := r.collStart("MPI_Allgather")
	n := len(data)
	out := make([]float64, n*r.comm.size)
	copy(out[r.id*n:], data)
	coll.done(r.world().allgather(collTagBase+6, n, out, nil))
	return out
}

// AllgatherInts is Allgather for one int64 per rank, the form the
// gather-scatter setup uses to learn global sizes.
func (r *Rank) AllgatherInts(v int64) []int64 {
	coll := r.collStart("MPI_Allgather")
	out := make([]int64, r.comm.size)
	out[r.id] = v
	coll.done(r.world().allgather(collTagBase+7, 1, nil, out))
	return out
}

// Alltoall exchanges fixed-size chunks: chunk i of send goes to rank i,
// and the result holds one chunk from every rank, in rank order. This is
// the generalized all-to-all the gather-scatter discovery phase uses.
func (r *Rank) Alltoall(send []float64, n int) []float64 {
	coll := r.collStart("MPI_Alltoall")
	p := r.comm.size
	if len(send) != n*p {
		panic(fmt.Sprintf("comm: alltoall needs %d values, got %d", n*p, len(send)))
	}
	counts := make([]int, p)
	for i := range counts {
		counts[i] = n
	}
	got, bytes := r.world().alltoall(collTagBase+8, send, nil, counts)
	out, _ := concatParts(r, got, send, counts, msgData)
	coll.done(bytes)
	return out
}

// Alltoallv exchanges variable-size int64 chunks; sendCounts[i] values go
// to rank i. It returns the received values concatenated in rank order
// along with the per-source counts.
func (r *Rank) AlltoallvInts(send []int64, sendCounts []int) (recv []int64, recvCounts []int) {
	coll := r.collStart("MPI_Alltoallv")
	got, bytes := r.world().alltoall(collTagBase+9, nil, send, sendCounts)
	recv, recvCounts = concatParts(r, got, send, sendCounts, msgInts)
	coll.done(bytes)
	return recv, recvCounts
}

// Alltoallv is AlltoallvInts for float64 payloads.
func (r *Rank) Alltoallv(send []float64, sendCounts []int) (recv []float64, recvCounts []int) {
	coll := r.collStart("MPI_Alltoallv")
	got, bytes := r.world().alltoall(collTagBase+10, send, nil, sendCounts)
	recv, recvCounts = concatParts(r, got, send, sendCounts, msgData)
	coll.done(bytes)
	return recv, recvCounts
}

func msgData(m *message) []float64 { return m.data }
func msgInts(m *message) []int64   { return m.ints }

// concatParts assembles an all-to-all's result: in rank order, this
// rank's own part of send and every other rank's received payload, with
// the per-source counts. It recycles the messages.
func concatParts[T any](r *Rank, got []*message, send []T, sendCounts []int, payload func(*message) []T) ([]T, []int) {
	lo := 0
	for _, c := range sendCounts[:r.id] {
		lo += c
	}
	own := send[lo : lo+sendCounts[r.id]]
	counts := make([]int, len(got))
	total := 0
	for q, m := range got {
		counts[q] = len(own)
		if m != nil {
			counts[q] = len(payload(m))
		}
		total += counts[q]
	}
	out := make([]T, 0, total)
	for _, m := range got {
		if m == nil {
			out = append(out, own...)
			continue
		}
		out = append(out, payload(m)...)
		r.freeRaw(m)
	}
	return out, counts
}
