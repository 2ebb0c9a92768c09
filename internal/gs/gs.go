// Package gs is the gather-scatter library of the mini-app — the Go
// counterpart of the Nek5000 gs library that both CMT-bone and Nekbone
// inherit (the paper's gs_op_ kernel). A gather-scatter over a vector of
// values, each tagged with a global integer id, combines (sum/min/max/
// prod) every value sharing an id — across all ranks — and writes the
// combined value back to every occurrence.
//
// Setup mirrors Nek's gs_setup: a discovery phase using generalized
// all-to-all communication identifies, for every global id i on process
// p, all processes q that also hold i (Section VI of the paper). The
// exchange itself supports the three algorithms the paper names —
// pairwise exchange, crystal router, and all_reduce onto a big vector —
// plus the startup autotuner that times all three and picks a winner.
package gs

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Method selects the exchange algorithm.
type Method int

// Exchange algorithms evaluated at startup (paper Figure 7).
const (
	// Pairwise sends one message per sharing neighbor, directly.
	Pairwise Method = iota
	// CrystalRouter routes all traffic through a hypercube in
	// ceil(log2 P) stages, combining messages per stage.
	CrystalRouter
	// AllReduce scatters partials onto a dense vector over all shared
	// ids and allreduces it — simple, and too expensive at scale, as the
	// paper observes.
	AllReduce
)

// Methods lists the selectable algorithms.
var Methods = []Method{Pairwise, CrystalRouter, AllReduce}

// ParseMethod maps a command-line name to a Method.
func ParseMethod(name string) (Method, error) {
	switch name {
	case "pairwise":
		return Pairwise, nil
	case "crystal":
		return CrystalRouter, nil
	case "allreduce":
		return AllReduce, nil
	}
	return 0, fmt.Errorf("gs: unknown method %q (want pairwise, crystal, or allreduce)", name)
}

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Pairwise:
		return "pairwise exchange"
	case CrystalRouter:
		return "crystal router"
	case AllReduce:
		return "all_reduce"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// tag for gs point-to-point traffic; per-(source,tag) FIFO ordering keeps
// back-to-back operations separated.
const gsTag = 0x675f // "gs"

// neighbor is one rank this rank shares ids with, plus the canonical
// (id-sorted) list of shared remote slots, identical on both sides.
type neighbor struct {
	rank  int
	slots []int32 // indices into the remote slot list (index.remID)
}

// GS is a configured gather-scatter handle bound to one rank and one id
// layout. It is owned by the rank's goroutine.
type GS struct {
	rank *comm.Rank
	n    int // expected vector length

	ix        index      // the flat local map
	neighbors []neighbor // ascending rank order

	// Exchange sites of the blocking entry points: Op's (one field) and
	// OpFields' (k packed fields). Their buffers and receive requests are
	// persistent, so the steady-state exchange posts no allocations.
	one, packed site
	dst1, src1  [1][]float64 // Op's vector as a one-field list
	locVals     []float64    // one value per local group (index.local's scratch)
	creq        comm.Request // crystal-router stage receive

	// crystal-router id lookup: id -> remote slot
	slotOf map[int64]int32

	// crystal-router reusable routing state: three item buffers rotated
	// between the live set, the keep partition, and the send partition,
	// plus message staging and a persistent sorter for the per-stage merge.
	itemsA, itemsB, itemsC []item
	stageVals              []float64
	stageInts              []int64
	sorter                 itemSorter

	// all_reduce persistent dense-vector scratch, identity-reset in place
	// on every exchange.
	bigVec []float64

	// all_reduce big vector: globally consistent compact index over
	// remotely-shared ids. Built lazily on first use — at scale it is
	// enormous, which is exactly why the paper finds the method "too
	// expensive".
	globalShared int64   // count of globally distinct remotely-shared ids
	bigIdx       []int32 // per remote slot: dense position
	bigLen       int

	method Method // current default method (set by Tune or SetMethod)

	// pendings counts NewPending calls, assigning each split-phase
	// exchange handle its own deterministic point-to-point tag.
	pendings int

	spans *obs.RankTracer // the owning rank's recorder, for spans around exchanges (nil = off)
}

// Setup builds a gather-scatter handle for the given id vector: ids[i] is
// the global id of values[i] in later Op calls; negative ids mark entries
// that never participate. Setup is collective over all ranks of r.
func Setup(r *comm.Rank, ids []int64) *GS {
	if len(ids) > math.MaxInt32 {
		panic(fmt.Sprintf("gs: vector length %d exceeds the int32 index lists", len(ids)))
	}
	r.SetSite("gs_setup")
	defer r.SetSite("")
	return newGS(r, discover(r, ids))
}

// newGS builds a handle from a discovery result — fresh from discover or
// recorded (SetupFromTopology). It keeps no reference to t.
func newGS(r *comm.Rank, t *Topology) *GS {
	g := &GS{rank: r, n: t.N, method: Pairwise, globalShared: t.GlobalShared}
	var remOf []int32
	g.ix, remOf = buildIndex(t)
	g.locVals = make([]float64, len(g.ix.locID))
	g.slotOf = make(map[int64]int32, len(g.ix.remID))
	for m, id := range g.ix.remID {
		g.slotOf[id] = int32(m)
	}
	for _, nb := range t.Neighbors {
		slots := make([]int32, len(nb.Slots))
		for i, s := range nb.Slots {
			slots[i] = remOf[s]
		}
		g.neighbors = append(g.neighbors, neighbor{rank: nb.Rank, slots: slots})
	}
	g.one, g.packed = g.newSite(gsTag), g.newSite(gsTag+2)
	return g
}

// discover is Setup's collective phase: it finds, for every id this rank
// holds, the other ranks holding it, and returns the active id table with
// the per-neighbor slot lists.
func discover(r *comm.Rank, ids []int64) *Topology {
	t := &Topology{N: len(ids)}

	// Group local indices by id.
	byID := map[int64][]int{}
	for i, id := range ids {
		if id >= 0 {
			byID[id] = append(byID[id], i)
		}
	}
	distinct := make([]int64, 0, len(byID))
	for id := range byID {
		distinct = append(distinct, id)
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i] < distinct[j] })

	// Discovery phase: route each distinct id to a hashed "owner" rank,
	// which observes every rank holding it and replies with the sharer
	// lists. This is the generalized all-to-all of gs_setup.
	p := r.Size()
	owner := func(id int64) int { return int(id % int64(p)) }

	sendCounts := make([]int, p)
	for _, id := range distinct {
		sendCounts[owner(id)]++
	}
	sendIDs := make([]int64, 0, len(distinct))
	// distinct is sorted by id; bucket-stable assembly per destination.
	for dst := 0; dst < p; dst++ {
		for _, id := range distinct {
			if owner(id) == dst {
				sendIDs = append(sendIDs, id)
			}
		}
	}
	recvIDs, recvCounts := r.AlltoallvInts(sendIDs, sendCounts)

	// The owner groups ids by value and notes which ranks hold each.
	holders := map[int64][]int{}
	off := 0
	for src := 0; src < p; src++ {
		for k := 0; k < recvCounts[src]; k++ {
			id := recvIDs[off+k]
			holders[id] = append(holders[id], src)
		}
		off += recvCounts[src]
	}
	// Reply: for every id held by >= 2 ranks, tell each holder the full
	// holder list, encoded [id, m, rank0..rank_{m-1}].
	replyCounts := make([]int, p)
	type sharedEntry struct {
		id    int64
		ranks []int
	}
	var shared []sharedEntry
	for id, rs := range holders {
		if len(rs) >= 2 {
			shared = append(shared, sharedEntry{id, rs})
		}
	}
	sort.Slice(shared, func(i, j int) bool { return shared[i].id < shared[j].id })
	for _, s := range shared {
		entryLen := 2 + len(s.ranks)
		for _, dst := range s.ranks {
			replyCounts[dst] += entryLen
		}
	}
	replyOffs := make([]int, p+1)
	for i, c := range replyCounts {
		replyOffs[i+1] = replyOffs[i] + c
	}
	reply := make([]int64, replyOffs[p])
	cursor := append([]int(nil), replyOffs[:p]...)
	for _, s := range shared {
		for _, dst := range s.ranks {
			c := cursor[dst]
			reply[c] = s.id
			reply[c+1] = int64(len(s.ranks))
			for k, rr := range s.ranks {
				reply[c+2+k] = int64(rr)
			}
			cursor[dst] = c + 2 + len(s.ranks)
		}
	}
	gotReply, _ := r.AlltoallvInts(reply, replyCounts)

	// Parse the sharer lists: for each of my ids, which remote ranks
	// also hold it.
	remote := map[int64][]int{}
	for i := 0; i < len(gotReply); {
		id := gotReply[i]
		m := int(gotReply[i+1])
		for k := 0; k < m; k++ {
			q := int(gotReply[i+2+k])
			if q != r.ID() {
				remote[id] = append(remote[id], q)
			}
		}
		i += 2 + m
	}

	// Active ids: remotely shared, or duplicated locally.
	for _, id := range distinct {
		if len(remote[id]) > 0 || len(byID[id]) > 1 {
			t.IDs = append(t.IDs, id)
			t.Groups = append(t.Groups, byID[id])
			t.SharedMask = append(t.SharedMask, len(remote[id]) > 0)
		}
	}

	// Exact global count of distinct remotely-shared ids: each owner
	// counts the shared ids it adjudicated; one integer allreduce sums
	// them. This sizes the all_reduce big vector without building it.
	counts := r.AllreduceInts(comm.OpSum, []int64{int64(len(shared))})
	t.GlobalShared = counts[0]

	// Per-neighbor slot lists, canonical because the table is id-sorted on
	// every rank.
	nbSlots := map[int][]int{}
	for s, id := range t.IDs {
		for _, q := range remote[id] {
			nbSlots[q] = append(nbSlots[q], s)
		}
	}
	ranks := make([]int, 0, len(nbSlots))
	for q := range nbSlots {
		ranks = append(ranks, q)
	}
	sort.Ints(ranks)
	for _, q := range ranks {
		t.Neighbors = append(t.Neighbors, TopoNeighbor{Rank: q, Slots: nbSlots[q]})
	}
	return t
}

// bigScratch returns the persistent all_reduce dense-vector scratch,
// grown to at least n and sliced to exactly n. Contents are whatever the
// previous exchange left — callers reset with the op identity in place.
func (g *GS) bigScratch(n int) []float64 {
	if cap(g.bigVec) < n {
		g.bigVec = make([]float64, n)
	}
	return g.bigVec[:n]
}

// ensureBigVector lazily builds the globally consistent dense index for
// the all_reduce method: the sorted union of every rank's remotely-shared
// ids. Collective — it runs inside the (collective) all_reduce exchange,
// so every rank reaches it together. Deliberately non-scalable: this IS
// the "big vector" method.
func (g *GS) ensureBigVector() {
	if g.bigIdx != nil {
		return
	}
	r := g.rank
	mine := g.ix.remID
	counts := r.AllgatherInts(int64(len(mine)))
	maxCount := int64(0)
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	padded := make([]float64, maxCount)
	for i := range padded {
		padded[i] = -1
	}
	for i, id := range mine {
		padded[i] = float64(id)
	}
	all := r.Allgather(padded)
	seen := map[int64]bool{}
	var union []int64
	for src := 0; src < r.Size(); src++ {
		for k := int64(0); k < counts[src]; k++ {
			id := int64(all[int64(src)*maxCount+k])
			if !seen[id] {
				seen[id] = true
				union = append(union, id)
			}
		}
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	pos := make(map[int64]int32, len(union))
	for i, id := range union {
		pos[id] = int32(i)
	}
	g.bigLen = len(union)
	g.bigIdx = make([]int32, len(mine))
	for m, id := range mine {
		g.bigIdx[m] = pos[id]
	}
}

// Neighbors returns the ranks this rank exchanges shared values with.
func (g *GS) Neighbors() []int {
	out := make([]int, len(g.neighbors))
	for i, nb := range g.neighbors {
		out[i] = nb.rank
	}
	return out
}

// SharedSlots returns the number of active (shared or locally duplicated)
// ids on this rank.
func (g *GS) SharedSlots() int {
	return len(g.ix.pairID) + len(g.ix.locID) + len(g.ix.remID)
}

// BigVectorLen returns the length of the dense vector the all_reduce
// method would operate on — a direct measure of why it does not scale.
// It is known exactly without building the vector.
func (g *GS) BigVectorLen() int { return int(g.globalShared) }

// AllReduceMaxLen is the big-vector length above which the tuner deems
// the all_reduce method infeasible and skips timing it, as the paper's
// problem setups do ("all_reduce is too expensive for both mini-apps").
const AllReduceMaxLen = 1 << 20

// FeasibleMethods returns the exchange methods worth timing for this
// handle's pattern: all of them, unless the all_reduce big vector would
// be unreasonably large.
func (g *GS) FeasibleMethods() []Method {
	if g.globalShared > AllReduceMaxLen {
		return []Method{Pairwise, CrystalRouter}
	}
	return Methods
}

// SetSpanner attaches the owning rank's region recorder: every exchange
// emits one span on that rank's track — a span only, so the caller's
// region around the exchange stays the one Figure 4 row. nil (the
// default) disables it.
func (g *GS) SetSpanner(rt *obs.RankTracer) { g.spans = rt }

// Method returns the currently selected default exchange method.
func (g *GS) Method() Method { return g.method }

// SetMethod overrides the default exchange method.
func (g *GS) SetMethod(m Method) { g.method = m }

// Op performs the gather-scatter with the default method.
func (g *GS) Op(values []float64, op comm.ReduceOp) {
	g.OpWith(values, op, g.method)
}

// OpWith performs the gather-scatter with an explicit method: all values
// sharing a global id — across every rank — are combined with op, and the
// combined value replaces each of them. OpWith is collective: every rank
// must call it with the same op and method.
func (g *GS) OpWith(values []float64, op comm.ReduceOp, m Method) {
	g.opTo(values, values, op, m)
}

// OpTo is Op out of place: the combined values go to dst and src is left
// as it was. Only entries whose id is active — shared with another rank
// or held more than once here — are written; the rest of dst is not
// touched (it is not a copy of src). dst may be src, which is Op.
func (g *GS) OpTo(dst, src []float64, op comm.ReduceOp) {
	g.opTo(dst, src, op, g.method)
}

func (g *GS) opTo(dst, src []float64, op comm.ReduceOp, m Method) {
	g.dst1[0], g.src1[0] = dst, src
	g.run(g.dst1[:], g.src1[:], op, m, &g.one, "gs_op")
	g.dst1[0], g.src1[0] = nil, nil
}

// OpFields performs the gather-scatter over k field vectors at once,
// packing all fields' partials into a single message per neighbor — the
// Nek gs library's gs_op_fields. For a solver exchanging five conserved
// variables this trades 5 latency-bound messages per neighbor for one
// bandwidth-bound message, the latency/bandwidth trade the ablation
// benches quantify. Semantics match calling Op on each field.
//
// The packed path is implemented for Pairwise and AllReduce; the crystal
// router routes per-field (its per-stage merging already aggregates
// traffic), which keeps results identical across methods.
func (g *GS) OpFields(fields [][]float64, op comm.ReduceOp, m Method) {
	g.OpFieldsTo(fields, fields, op, m)
}

// OpFieldsTo is OpFields out of place, field by field as OpTo.
func (g *GS) OpFieldsTo(dst, src [][]float64, op comm.ReduceOp, m Method) {
	if len(src) == 0 && len(dst) == 0 {
		return
	}
	g.run(dst, src, op, m, &g.packed, "gs_op_fields")
}

// checkFields panics unless dst and src are equally many vectors of the
// setup's length.
func (g *GS) checkFields(dst, src [][]float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("gs: %d destination fields for %d sources", len(dst), len(src)))
	}
	for fi := range src {
		if len(src[fi]) != g.n || len(dst[fi]) != g.n {
			panic(fmt.Sprintf("gs: field %d length %d -> %d, setup saw %d", fi, len(src[fi]), len(dst[fi]), g.n))
		}
	}
}

// run is the one gather-scatter body behind every blocking entry point:
// gather the remotely-shared slots of each field into st's partials,
// exchange them by method m, finish the local-only ids, and scatter the
// exchanged slots. Under Pairwise the local pass runs between posting the
// messages and waiting for them, where it costs the exchange nothing.
func (g *GS) run(dst, src [][]float64, op comm.ReduceOp, m Method, st *site, span string) {
	g.checkFields(dst, src)
	g.rank.SetSite("gs_op")
	defer g.rank.SetSite("")
	defer g.spans.Span(span, obs.CatGS).End()

	k, nr := len(src), len(g.ix.remID)
	g.gatherRemote(st, src, op)
	if m == Pairwise {
		g.post(st, k)
	}
	g.localPass(dst, src, op)
	switch m {
	case Pairwise:
		g.complete(st, k, op)
	case CrystalRouter:
		// Per-field routing.
		for fi := 0; fi < k; fi++ {
			g.exchangeCrystal(op, st.partial[fi*nr:(fi+1)*nr])
		}
	case AllReduce:
		g.exchangeAllReduce(op, st.partial[:k*nr], k)
	default:
		panic(fmt.Sprintf("gs: unknown method %d", int(m)))
	}
	g.scatterRemote(dst, st)
}

// gatherRemote folds each field's remotely-shared slots into st's
// partials, field-major: partial[fi*nr+slot].
func (g *GS) gatherRemote(st *site, src [][]float64, op comm.ReduceOp) {
	nr := len(g.ix.remID)
	if cap(st.partial) < len(src)*nr {
		st.partial = make([]float64, len(src)*nr)
	}
	for fi, f := range src {
		gather(st.partial[fi*nr:(fi+1)*nr], f, g.ix.remOff, g.ix.remIdx, op)
	}
}

// localPass finishes every local-only id of every field.
func (g *GS) localPass(dst, src [][]float64, op comm.ReduceOp) {
	for fi, f := range src {
		g.ix.local(dst[fi], f, g.locVals, op)
	}
}

// scatterRemote writes st's exchanged partials to every occurrence of the
// remotely-shared slots.
func (g *GS) scatterRemote(dst [][]float64, st *site) {
	nr := len(g.ix.remID)
	for fi, f := range dst {
		scatter(f, st.partial[fi*nr:(fi+1)*nr], g.ix.remOff, g.ix.remIdx)
	}
}
