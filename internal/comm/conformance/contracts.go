package conformance

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/netmodel"
)

// Contracts is the table every backend must pass. Contract programs only
// use seed-derived data — each rank can reconstruct every other rank's
// inputs locally, so serial references need no side channel (the ranks
// may be in different OS processes).
var Contracts = []Contract{
	{
		// Messages between one (src, dst) pair with one tag arrive in
		// send order; interleaved tags do not disturb each other's order.
		Name:          "fifo-order",
		Ranks:         2,
		Deterministic: true,
		Opts:          gigeOpts,
		Rank: func(r *comm.Rank, seed int64) error {
			const n = 50
			peer := 1 - r.ID()
			for i := 0; i < n; i++ {
				r.IsendMsg(peer, 5, []float64{float64(seed)}, []int64{int64(i)})
				r.IsendMsg(peer, 6, nil, []int64{int64(-i)})
			}
			for i := 0; i < n; i++ {
				_, ints, _ := r.RecvMsg(peer, 5)
				if len(ints) != 1 || ints[0] != int64(i) {
					return fmt.Errorf("tag 5 message %d out of order: %v", i, ints)
				}
				_, ints, _ = r.RecvMsg(peer, 6)
				if len(ints) != 1 || ints[0] != int64(-i) {
					return fmt.Errorf("tag 6 message %d out of order: %v", i, ints)
				}
			}
			return nil
		},
	},
	{
		// Nonblocking sends match nonblocking receives across tags and
		// AnySource, with payloads intact.
		Name:          "isend-irecv-matching",
		Ranks:         3,
		Deterministic: true,
		Opts:          gigeOpts,
		Rank: func(r *comm.Rank, seed int64) error {
			id, size := r.ID(), r.Size()
			const per = 10
			var reqs []*comm.Request
			for peer := 0; peer < size; peer++ {
				if peer == id {
					continue
				}
				for k := 0; k < per; k++ {
					src := peer
					if k%2 == 1 {
						src = comm.AnySource
					}
					reqs = append(reqs, r.Irecv(src, 10+k))
				}
			}
			for peer := 0; peer < size; peer++ {
				if peer == id {
					continue
				}
				rng := rankRNG(seed, id, peer)
				for k := 0; k < per; k++ {
					r.IsendMsg(peer, 10+k, []float64{rng.Float64()}, []int64{int64(id)})
				}
			}
			for _, req := range reqs {
				data, ints, err := req.WaitErr()
				if err != nil {
					return err
				}
				if len(data) != 1 || len(ints) != 1 {
					return fmt.Errorf("payload shape %d/%d", len(data), len(ints))
				}
				if src := int(ints[0]); src == id || src < 0 || src >= size {
					return fmt.Errorf("impossible source %d", src)
				}
				req.Free()
			}
			return nil
		},
	},
	{
		// Receives posted before the matching send arrives complete with
		// the right payload — on the in-process backend this is the
		// direct-delivery fast path (no staging copy); over TCP the frame
		// lands in the posted request from the reader goroutine.
		Name:          "posted-direct-delivery",
		Ranks:         2,
		Deterministic: true,
		Opts:          gigeOpts,
		Rank: func(r *comm.Rank, seed int64) error {
			peer := 1 - r.ID()
			const n = 20
			reqs := make([]*comm.Request, n)
			for i := range reqs {
				reqs[i] = r.Irecv(peer, 3)
			}
			// Both sides have posted everything before either sends: the
			// ready handshake guarantees the receives exist first.
			r.Send(peer, 1, nil)
			r.Recv(peer, 1)
			rng := rankRNG(seed, r.ID(), peer)
			for i := 0; i < n; i++ {
				r.Isend(peer, 3, []float64{rng.Float64(), float64(i)})
			}
			want := rankRNG(seed, peer, r.ID())
			for i, req := range reqs {
				data, _, err := req.WaitErr()
				if err != nil {
					return err
				}
				if len(data) != 2 || data[0] != want.Float64() || data[1] != float64(i) {
					return fmt.Errorf("posted receive %d got %v", i, data)
				}
				req.Free()
			}
			return nil
		},
	},
	{
		// Sends are eager whatever the wire's buffers hold: both ranks
		// send one 16 MB message and then 200 small ones on two tags
		// before either posts a receive. The big message overflows any
		// socket buffer, so over TCP most of it takes the backlog path
		// and the small ones queue behind it. Every send returns, every
		// payload arrives bit-exact, per-(src, tag) order holds, and the
		// whole exchange finishes within a deadline.
		Name:          "eager-send-backlog",
		Ranks:         2,
		Deterministic: true,
		Opts:          gigeOpts,
		Rank:          eagerSendBacklog,
	},
	{
		// Collectives agree with serial references computed locally from
		// the shared seed: allreduce over all ops, bcast, allgather.
		Name:          "collectives-vs-serial",
		Ranks:         5,
		Deterministic: true,
		Opts:          gigeOpts,
		Rank:          collectivesVsSerial,
	},
	{
		// Injected corruption is detected by CRC and retransmitted; drops
		// are retransmitted. Payloads still arrive exact, and both
		// counters prove the machinery actually fired.
		Name:          "crc-reject-retransmit",
		Ranks:         3,
		Deterministic: true,
		Opts: func() comm.Options {
			return comm.Options{Model: netmodel.GigE, Faults: &cyclingFaults{n: 2}}
		},
		Rank: func(r *comm.Rank, seed int64) error {
			id, size := r.ID(), r.Size()
			rng := rankRNG(seed, id, 0)
			for round := 0; round < 8; round++ {
				peer := (id + 1 + round%(size-1)) % size
				payload := []float64{float64(rng.Intn(1000)), float64(round)}
				r.Isend(peer, 20+round, payload)
			}
			for round := 0; round < 8; round++ {
				from := (id - 1 - round%(size-1) + 2*size) % size
				want := rankRNG(seed, from, 0)
				for skip := 0; skip < round; skip++ {
					want.Intn(1000)
				}
				data := r.Recv(from, 20+round)
				if len(data) != 2 || data[0] != float64(want.Intn(1000)) || data[1] != float64(round) {
					return fmt.Errorf("round %d from %d: corrupted payload survived: %v", round, from, data)
				}
			}
			sum := r.Allreduce(comm.OpSum, []float64{1})
			if sum[0] != float64(size) {
				return fmt.Errorf("faulted allreduce = %v, want %d", sum[0], size)
			}
			return nil
		},
		Check: func(m *Merged, seed int64) error {
			if m.CRCDetected == 0 {
				return errors.New("fault plane injected corruption but no CRC rejection was recorded")
			}
			if m.Retransmits == 0 {
				return errors.New("fault plane fired but no retransmissions were recorded")
			}
			return nil
		},
	},
	{
		// A dead peer surfaces as DeadRankError on receives that can
		// never complete — after already-sent messages drain.
		Name:  "dead-rank-error",
		Ranks: 3,
		Rank: func(r *comm.Rank, seed int64) error {
			switch r.ID() {
			case 0:
				r.Send(1, 1, []float64{42})
				r.Kill()
			case 1:
				if data := r.Recv(0, 1); len(data) != 1 || data[0] != 42 {
					return fmt.Errorf("pre-death message lost: %v", data)
				}
				return wantDead(r.Irecv(0, 2), 0)
			case 2:
				return wantDead(r.Irecv(0, 3), 0)
			}
			return nil
		},
		Check: func(m *Merged, seed int64) error {
			if len(m.Killed) != 1 || m.Killed[0] != 0 {
				return fmt.Errorf("killed = %v, want [0]", m.Killed)
			}
			return nil
		},
	},
	{
		// A collective with a dead member fails fast with DeadRankError;
		// survivors Shrink and the re-formed communicator's collectives
		// work.
		Name:  "shrink-reformation",
		Ranks: 4,
		Rank: func(r *comm.Rank, seed int64) error {
			if r.ID() == 2 {
				r.Kill()
			}
			if _, err := r.AllreduceErr(comm.OpSum, []float64{1}); !isDead(err, 2) {
				return fmt.Errorf("collective with dead member: err = %v, want DeadRankError world 2", err)
			}
			sub, err := r.Shrink([]int{0, 1, 3})
			if err != nil {
				return fmt.Errorf("shrink: %v", err)
			}
			if sum := sub.Allreduce(comm.OpSum, []float64{1}); sum[0] != 3 {
				return fmt.Errorf("shrunken allreduce = %v, want 3", sum[0])
			}
			worlds := sub.Allgather([]float64{float64(sub.WorldID())})
			if fmt.Sprint(worlds) != "[0 1 3]" {
				return fmt.Errorf("shrunken allgather world ids = %v, want [0 1 3]", worlds)
			}
			return nil
		},
		Check: func(m *Merged, seed int64) error {
			if len(m.Killed) != 1 || m.Killed[0] != 2 {
				return fmt.Errorf("killed = %v, want [2]", m.Killed)
			}
			return nil
		},
	},
	{
		// Satellite of internal/comm/property_test.go: the same class of
		// randomized-collective properties, seeded so each rank derives
		// the serial reference locally, run against every backend
		// (multi-process over TCP) at several seeds.
		Name:          "property-collectives",
		Ranks:         5,
		Deterministic: true,
		Opts:          gigeOpts,
		Rank:          propertyCollectives,
		Seeds:         []int64{1, 2, 3},
	},
	{
		// Hierarchical collectives on a power-of-two block layout are
		// bit-identical to the flat algorithms: float allreduces match a
		// local simulation of the flat recursive-doubling combine tree
		// bitwise, exact ops match serial references, and the
		// Deterministic flag additionally pins the modeled clocks across
		// the in-process and TCP backends.
		Name:          "hier-collectives-vs-flat",
		Ranks:         8,
		Deterministic: true,
		Opts:          hierOpts(8, 4),
		Rank:          hierCollectivesVsFlat,
		Seeds:         []int64{1, 4},
	},
	{
		// Split groups of unequal size — five members (not a power of
		// two), two, and a singleton, each ordered by descending world
		// rank — run every Group collective at the same time: Barrier,
		// Bcast from every root, Allreduce under every op and Allgather,
		// each checked against a serial reference over the group. The
		// tracer fails the run if a group collective's message leaves
		// its group.
		Name:          "split-group-collectives",
		Ranks:         len(splitColors),
		Deterministic: true,
		Opts: func() comm.Options {
			return comm.Options{Model: netmodel.GigE, Tracer: groupBoundTracer{}}
		},
		Rank:  splitGroupCollectives,
		Seeds: []int64{1, 2},
	},
	{
		// A node leader dying mid-run fails hierarchical collectives fast
		// with a typed DeadRankError on every rank — including the dead
		// leader's node members, who must not deadlock waiting for their
		// stuck leader — and the shrunken communicator (which drops back
		// to flat collectives) works.
		Name:  "hier-leader-death",
		Ranks: 6,
		Opts:  hierOpts(6, 3),
		Rank: func(r *comm.Rank, seed int64) error {
			// BlockHierarchy(6, 3): nodes {0,1,2} and {3,4,5}, leaders 0
			// and 3. Rank 3 dies as the leader of node 1.
			if r.ID() == 3 {
				r.Kill()
			}
			if _, err := r.AllreduceErr(comm.OpSum, []float64{1}); !isDead(err, 3) {
				return fmt.Errorf("hier collective with dead leader: err = %v, want DeadRankError world 3", err)
			}
			if err := r.BarrierErr(); !isDead(err, 3) {
				return fmt.Errorf("hier barrier with dead leader: err = %v, want DeadRankError world 3", err)
			}
			sub, err := r.Shrink([]int{0, 1, 2, 4, 5})
			if err != nil {
				return fmt.Errorf("shrink: %v", err)
			}
			if sum := sub.Allreduce(comm.OpSum, []float64{1}); sum[0] != 5 {
				return fmt.Errorf("shrunken allreduce = %v, want 5", sum[0])
			}
			return nil
		},
		Check: func(m *Merged, seed int64) error {
			if len(m.Killed) != 1 || m.Killed[0] != 3 {
				return fmt.Errorf("killed = %v, want [3]", m.Killed)
			}
			return nil
		},
	},
}

func gigeOpts() comm.Options { return comm.Options{Model: netmodel.GigE} }

// hierOpts builds options that turn the hierarchical collectives on over
// a block node map of the given shape, under the GigE model.
func hierOpts(ranks, perNode int) func() comm.Options {
	return func() comm.Options {
		return comm.Options{
			Model:     netmodel.GigE,
			Hierarchy: comm.BlockHierarchy(ranks, perNode),
		}
	}
}

// rankRNG derives a deterministic stream from (seed, a, b) so any rank
// can reproduce any other rank's payloads.
func rankRNG(seed int64, a, b int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(a)*9_697 + int64(b)))
}

func wantDead(req *comm.Request, world int) error {
	_, _, err := req.WaitErr()
	if !isDead(err, world) {
		return fmt.Errorf("receive from dead rank: err = %v, want DeadRankError world %d", err, world)
	}
	return nil
}

func isDead(err error, world int) bool {
	var dre comm.DeadRankError
	return errors.As(err, &dre) && dre.World == world
}

// serialReduce folds op over per-rank inputs element-wise.
func serialReduce(op comm.ReduceOp, inputs [][]float64) []float64 {
	want := append([]float64(nil), inputs[0]...)
	for i := 1; i < len(inputs); i++ {
		for j := range want {
			switch op {
			case comm.OpSum:
				want[j] += inputs[i][j]
			case comm.OpProd:
				want[j] *= inputs[i][j]
			case comm.OpMin:
				want[j] = math.Min(want[j], inputs[i][j])
			case comm.OpMax:
				want[j] = math.Max(want[j], inputs[i][j])
			}
		}
	}
	return want
}

// intPayload fills integer-valued float64s in [-8, 8) so sums and
// products are exact regardless of reduction association order.
func intPayload(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(rng.Intn(16) - 8)
	}
	return out
}

// backlogWord is element i of rank's payload in eager-send-backlog: a
// splitmix64 bit pattern with exponent bit 62 cleared, so every value is
// finite and bit-exact comparison covers all other bits.
func backlogWord(seed int64, rank, i int) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(rank)<<40 ^ uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return math.Float64frombits(x &^ (1 << 62))
}

func eagerSendBacklog(r *comm.Rank, seed int64) error {
	const (
		bigLen   = 2 << 20 // float64s: 16 MB
		small    = 200
		deadline = 60 * time.Second
	)
	start := time.Now()
	id, peer := r.ID(), 1-r.ID()
	big := make([]float64, bigLen)
	for i := range big {
		big[i] = backlogWord(seed, id, i)
	}
	r.Send(peer, 1, big)
	for i := 0; i < small; i++ {
		r.IsendMsg(peer, 2+i%2, []float64{backlogWord(seed, id, -1-i)}, []int64{int64(i)})
	}

	got := r.Recv(peer, 1)
	if len(got) != bigLen {
		return fmt.Errorf("16 MB message arrived with %d elements, want %d", len(got), bigLen)
	}
	for i, v := range got {
		if want := backlogWord(seed, peer, i); math.Float64bits(v) != math.Float64bits(want) {
			return fmt.Errorf("16 MB message element %d = %x, want %x", i, math.Float64bits(v), math.Float64bits(want))
		}
	}
	for tag := 2; tag <= 3; tag++ {
		for i := tag - 2; i < small; i += 2 {
			data, ints, _ := r.RecvMsg(peer, tag)
			if len(ints) != 1 || ints[0] != int64(i) {
				return fmt.Errorf("tag %d: got message %v, want %d (FIFO order)", tag, ints, i)
			}
			if want := backlogWord(seed, peer, -1-i); len(data) != 1 || math.Float64bits(data[0]) != math.Float64bits(want) {
				return fmt.Errorf("tag %d message %d payload %v, want %v", tag, i, data, want)
			}
		}
	}
	if el := time.Since(start); el > deadline {
		return fmt.Errorf("exchange took %v, deadline %v", el, deadline)
	}
	return nil
}

func collectivesVsSerial(r *comm.Rank, seed int64) error {
	id, size := r.ID(), r.Size()
	const n = 16
	inputs := make([][]float64, size)
	for i := range inputs {
		inputs[i] = intPayload(rankRNG(seed, i, 0), n)
	}
	for _, op := range []comm.ReduceOp{comm.OpSum, comm.OpProd, comm.OpMin, comm.OpMax} {
		want := serialReduce(op, inputs)
		got := r.Allreduce(op, append([]float64(nil), inputs[id]...))
		for j := range want {
			if got[j] != want[j] {
				return fmt.Errorf("allreduce op %d element %d = %v, want %v", op, j, got[j], want[j])
			}
		}
	}
	for root := 0; root < size; root++ {
		var in []float64
		if id == root {
			in = append([]float64(nil), inputs[root]...)
		}
		got := r.Bcast(root, in)
		for j := range inputs[root] {
			if got[j] != inputs[root][j] {
				return fmt.Errorf("bcast root %d element %d = %v, want %v", root, j, got[j], inputs[root][j])
			}
		}
	}
	all := r.Allgather(append([]float64(nil), inputs[id]...))
	if len(all) != size*n {
		return fmt.Errorf("allgather length %d, want %d", len(all), size*n)
	}
	for i := 0; i < size; i++ {
		for j := 0; j < n; j++ {
			if all[i*n+j] != inputs[i][j] {
				return fmt.Errorf("allgather rank %d element %d = %v, want %v", i, j, all[i*n+j], inputs[i][j])
			}
		}
	}
	if r.BarrierErr() != nil {
		return errors.New("barrier failed with no dead ranks")
	}
	return nil
}

func propertyCollectives(r *comm.Rank, seed int64) error {
	id, size := r.ID(), r.Size()
	ops := []comm.ReduceOp{comm.OpSum, comm.OpProd, comm.OpMin, comm.OpMax}
	for trial := 0; trial < 6; trial++ {
		// Every rank derives the identical trial shape from the shared
		// stream, then its own payload from a per-rank stream.
		shape := rankRNG(seed, -1, trial)
		n := 1 + shape.Intn(32)
		op := ops[shape.Intn(len(ops))]
		root := shape.Intn(size)
		inputs := make([][]float64, size)
		for i := range inputs {
			inputs[i] = intPayload(rankRNG(seed, i, trial+1), n)
		}
		want := serialReduce(op, inputs)
		got := r.Allreduce(op, append([]float64(nil), inputs[id]...))
		for j := range want {
			if got[j] != want[j] {
				return fmt.Errorf("trial %d allreduce element %d = %v, want %v", trial, j, got[j], want[j])
			}
		}
		gathered := r.Gather(root, append([]float64(nil), inputs[id]...))
		if id == root {
			for i := 0; i < size; i++ {
				for j := 0; j < n; j++ {
					if gathered[i*n+j] != inputs[i][j] {
						return fmt.Errorf("trial %d gather rank %d element %d = %v, want %v",
							trial, i, j, gathered[i*n+j], inputs[i][j])
					}
				}
			}
		} else if gathered != nil {
			return fmt.Errorf("trial %d: non-root got non-nil gather result", trial)
		}
		scattered := r.Scatter(root, flatten(inputs, id == root), n)
		for j := 0; j < n; j++ {
			if scattered[j] != inputs[id][j] {
				return fmt.Errorf("trial %d scatter element %d = %v, want %v", trial, j, scattered[j], inputs[id][j])
			}
		}
	}
	return nil
}

// serialRD simulates the flat recursive-doubling allreduce combine tree
// locally for a power-of-two rank count: at each round every rank folds
// its partner's pre-round buffer into its own, exactly as the flat
// recursive-doubling allreduce does, so the result is the bitwise reference the hierarchical path
// must reproduce on pow2 block layouts.
func serialRD(op comm.ReduceOp, inputs [][]float64) []float64 {
	p := len(inputs)
	bufs := make([][]float64, p)
	for i := range bufs {
		bufs[i] = append([]float64(nil), inputs[i]...)
	}
	for mask := 1; mask < p; mask <<= 1 {
		next := make([][]float64, p)
		for i := range next {
			next[i] = append([]float64(nil), bufs[i]...)
			src := bufs[i^mask]
			for j := range next[i] {
				switch op {
				case comm.OpSum:
					next[i][j] += src[j]
				case comm.OpProd:
					next[i][j] *= src[j]
				case comm.OpMin:
					if src[j] < next[i][j] {
						next[i][j] = src[j]
					}
				case comm.OpMax:
					if src[j] > next[i][j] {
						next[i][j] = src[j]
					}
				}
			}
		}
		bufs = next
	}
	return bufs[0]
}

func hierCollectivesVsFlat(r *comm.Rank, seed int64) error {
	id, size := r.ID(), r.Size()
	for _, n := range []int{1, 7, 32} {
		inputs := make([][]float64, size)
		for i := range inputs {
			rng := rankRNG(seed, i, n)
			inputs[i] = make([]float64, n)
			for j := range inputs[i] {
				inputs[i][j] = rng.NormFloat64() // full-mantissa floats
			}
		}
		for _, op := range []comm.ReduceOp{comm.OpSum, comm.OpProd, comm.OpMin, comm.OpMax} {
			want := serialRD(op, inputs)
			got := r.Allreduce(op, append([]float64(nil), inputs[id]...))
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					return fmt.Errorf("n=%d op %v element %d: hier %x differs from flat combine tree %x",
						n, op, j, got[j], want[j])
				}
			}
		}
	}
	// Integer reductions: exact under any association, checked against the
	// plain serial fold.
	mine := []int64{int64(id) + 1, int64(id * id)}
	got := r.AllreduceInts(comm.OpSum, append([]int64(nil), mine...))
	var wantA, wantB int64
	for i := 0; i < size; i++ {
		wantA += int64(i) + 1
		wantB += int64(i * i)
	}
	if got[0] != wantA || got[1] != wantB {
		return fmt.Errorf("int allreduce = %v, want [%d %d]", got, wantA, wantB)
	}
	// Broadcast from leader and non-leader roots through the two-level
	// tree.
	for _, root := range []int{0, 5} {
		payload := intPayload(rankRNG(seed, root, 99), 6)
		var in []float64
		if id == root {
			in = append([]float64(nil), payload...)
		}
		out := r.Bcast(root, in)
		for j := range payload {
			if out[j] != payload[j] {
				return fmt.Errorf("hier bcast root %d element %d = %v, want %v", root, j, out[j], payload[j])
			}
		}
	}
	if err := r.BarrierErr(); err != nil {
		return fmt.Errorf("hier barrier: %v", err)
	}
	return nil
}

// splitColors is the rank -> color map of split-group-collectives:
// groups {0,2,3,5,6}, {1,4} and {7}.
var splitColors = []int{0, 1, 0, 0, 1, 0, 0, 2}

// splitGroupTagBase is where the split-group collectives' tags start
// (comm's groupTagBase): color c's collectives use tags
// splitGroupTagBase+16c+op, and nothing else uses tags that high.
const splitGroupTagBase = 1 << 26

// groupBoundTracer panics, failing the sending rank, when a message of
// a group collective goes to or comes from a rank outside the color
// whose tag window it carries.
type groupBoundTracer struct{}

func (groupBoundTracer) Record(e comm.TraceEvent) {
	if e.Tag < splitGroupTagBase {
		return
	}
	c := (e.Tag - splitGroupTagBase) / 16
	if splitColors[e.Src] != c || splitColors[e.Dst] != c {
		panic(fmt.Errorf("group message with color %d's tag %d crossed groups: world %d (color %d) -> world %d (color %d)",
			c, e.Tag, e.Src, splitColors[e.Src], e.Dst, splitColors[e.Dst]))
	}
}

func splitGroupCollectives(r *comm.Rank, seed int64) error {
	id := r.ID()
	color := splitColors[id]
	var members []int // group order: keys -world rank, descending rank
	for w := len(splitColors) - 1; w >= 0; w-- {
		if splitColors[w] == color {
			members = append(members, w)
		}
	}
	g := r.Split(color, -id)
	if got := g.Members(); fmt.Sprint(got) != fmt.Sprint(members) {
		return fmt.Errorf("color %d members %v, want %v", color, got, members)
	}
	const n = 9
	inputs := make([][]float64, len(members)) // by group index
	for i, w := range members {
		inputs[i] = intPayload(rankRNG(seed, w, 7), n)
	}
	mine := func() []float64 { return append([]float64(nil), inputs[g.ID()]...) }
	g.Barrier()
	for root := range members {
		var in []float64
		if g.ID() == root {
			in = mine()
		}
		got := g.Bcast(root, in)
		if fmt.Sprint(got) != fmt.Sprint(inputs[root]) {
			return fmt.Errorf("color %d bcast root %d = %v, want %v", color, root, got, inputs[root])
		}
	}
	for _, op := range []comm.ReduceOp{comm.OpSum, comm.OpProd, comm.OpMin, comm.OpMax} {
		want := serialReduce(op, inputs)
		if got := g.Allreduce(op, mine()); fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("color %d allreduce %v = %v, want %v", color, op, got, want)
		}
	}
	var want []float64
	for _, in := range inputs {
		want = append(want, in...)
	}
	if got := g.Allgather(mine()); fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("color %d allgather = %v, want %v", color, got, want)
	}
	g.Barrier()
	return nil
}

func flatten(inputs [][]float64, isRoot bool) []float64 {
	if !isRoot {
		return nil
	}
	var out []float64
	for _, in := range inputs {
		out = append(out, in...)
	}
	return out
}

// cyclingFaults deterministically faults every n-th message per (src,
// dst) pair, cycling corrupt → drop → delay. Per-pair counting keeps the
// schedule identical whether the pairs live in one process or several;
// corruption comes first so even light per-pair traffic exercises the
// CRC reject path.
type cyclingFaults struct {
	mu  sync.Mutex
	n   int
	cnt map[[2]int]int
}

func (f *cyclingFaults) Message(src, dst, tag int, bytes int64, sendVT float64) comm.FaultAction {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cnt == nil {
		f.cnt = make(map[[2]int]int)
	}
	k := [2]int{src, dst}
	c := f.cnt[k]
	f.cnt[k] = c + 1
	if c%f.n != f.n-1 {
		return comm.FaultAction{}
	}
	switch (c / f.n) % 3 {
	case 0:
		if bytes > 0 {
			return comm.FaultAction{Corrupt: true, FlipBit: c * 7}
		}
		return comm.FaultAction{Drop: true}
	case 1:
		return comm.FaultAction{Drop: true}
	default:
		return comm.FaultAction{DelayVT: 3e-6}
	}
}

func (f *cyclingFaults) CRCDetected(src, dst, tag int) {}
